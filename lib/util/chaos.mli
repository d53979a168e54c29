(** Deterministic multi-plane chaos model.

    PR 2 gave the {e CAD flow} a seeded failure model ([Cad.Faults]);
    this module generalizes the idea to every other layer the pipeline
    leans on.  A {!config} holds one fault {e plane} per subsystem:

    - {b stage}: a pipeline-stage execution crashes (a transient,
      retryable {!Injected} exception) or stalls for a drawn number of
      {e simulated} seconds before running — the supervisor's stall
      hook charges them against its deadlines;
    - {b pool}: a domain-pool worker is poisoned before it starts its
      per-candidate work;
    - {b store}: artifact-store I/O misbehaves — reads error out
      (served as a miss), writes are silently dropped, written
      envelopes are torn ({!Store_disk} truncates the on-disk bytes so
      the envelope checksum catches it), and reads suffer bounded
      {e real} latency spikes.

    {2 Determinism contract}

    Every roll is a pure function of [(seed, plane, site, attempt)]
    via {!key_prng} on disjoint {!Prng} streams:

    - chaos-off output is byte-identical to a build without this
      module — every roll of a disabled config is a constant;
    - a faulted run replays exactly: rolls are keyed by {e site} (a
      stage label, a candidate signature, a [stage/digest] store
      entry), never by call count or wall clock, so a [jobs:4] run
      injects exactly the faults a serial one does;
    - store rolls deliberately drop the attempt component: backend
      call counts are scheduling-dependent (an L1 promotion races a
      concurrent probe), so a given [(stage, digest)] entry either
      always or never misbehaves under one seed.

    [Cad.Faults] keeps its own plane (and its exact PR 2 key format)
    on top of {!key_prng}, so existing fault seeds reproduce old runs
    bit for bit. *)

type config = {
  enabled : bool;  (** [false] short-circuits every roll *)
  seed : int;  (** mixed into every roll; the [--chaos-seed] flag *)
  stage_crash_rate : float;
      (** per-(stage execution, attempt) transient crash probability *)
  stage_stall_rate : float;  (** per-(stage execution, attempt) stall *)
  stage_stall_seconds : float;
      (** mean stall; the draw is uniform in [0.5x, 2x] of it *)
  pool_crash_rate : float;  (** per-work-item worker poisoning *)
  store_read_error_rate : float;  (** backend read fails -> miss *)
  store_write_drop_rate : float;  (** backend write silently lost *)
  store_torn_rate : float;
      (** on-disk envelope truncated mid-write (disk backend only; the
          envelope checksum degrades it to a miss, and the next put
          appends it again — torn again under the same seed, healed by
          a chaos-free run) *)
  store_latency_rate : float;  (** backend read latency spike *)
  store_latency_seconds : float;
      (** mean spike, {e real} seconds; bounded by {!validate} *)
}

val none : config
(** Chaos disabled — every roll is constant, output is byte-identical
    to a chaos-free build. *)

val defaults : seed:int -> config
(** Modest fixed rates ([--chaos]): occasional crashes, stalls and
    store faults that a default supervision policy absorbs. *)

val storm : seed:int -> config
(** A randomized fault mix for campaign runs: every rate (and both
    magnitudes) is drawn from the seed, so [N] seeds explore [N]
    different storm shapes while each remains exactly replayable. *)

val validate : config -> unit
(** @raise Invalid_argument on an out-of-range rate, a negative stall,
    or a real-sleep latency above 50 ms. *)

exception Injected of string
(** A chaos-injected transient failure; the payload names plane and
    site.  The supervisor retries these, and {e only} these — real
    bugs keep propagating. *)

val inject : string -> string -> 'a
(** [inject plane site] raises {!Injected}. *)

val is_injected : exn -> bool

val key_prng : seed:int -> string -> Prng.t
(** [key_prng ~seed key] is the generator for one roll site: a fresh
    {!Prng} seeded by [hash key lxor seed].  Shared with [Cad.Faults]
    so all planes draw from the same keyed-stream construction. *)

val bernoulli : Prng.t -> float -> bool
(** [bernoulli prng p] is [true] with probability [p]; [p <= 0] never
    draws. *)

(** {1 Plane rolls} *)

val stage_crash : config -> site:string -> attempt:int -> bool
val stage_stall : config -> site:string -> attempt:int -> float option
(** Simulated seconds this attempt stalls before running, if any. *)

val pool_crash : config -> site:string -> bool

val store_read_error : config -> site:string -> bool
val store_write_drop : config -> site:string -> bool
val store_torn : config -> site:string -> bool
val store_latency : config -> site:string -> float option
(** Real seconds to sleep on this read, if any. *)

val torn_length : config -> site:string -> len:int -> int
(** How many of [len] envelope bytes survive a torn write; always
    [< len], so the truncation is detectable. *)

val wrap_backend : config -> Artifact.backend -> Artifact.backend
(** Inject the store plane's read errors, write drops and latency
    spikes in front of a backend.  Disabled configs return the backend
    unchanged.  Torn writes are {e not} injected here — they must
    corrupt bytes {e below} the integrity envelope to be a sound
    model, so {!Store_disk.backend} takes the config directly. *)
