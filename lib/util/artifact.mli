(** Thread-safe content-addressed artifact store for the staged pipeline.

    Stage outputs are stored under [(stage name, input digest)] and shared
    between sweep points and between worker domains, generalizing the
    bitstream-only [Cad.Cache] of PR 1 to every pipeline stage.  Hits carry
    the same Local/Shared attribution: [Local] when the artifact was first
    built under the same application, [Shared] when another application
    built it.

    Values are heterogeneous: each stage owns a typed {!key} created once
    with {!key}, and the store guarantees that a value stored under a key
    can only be read back through that same key (a universal-type embedding
    per key, no [Obj.magic]).

    {2 Backends}

    The store is a typed front-end over an optional byte {!backend}.  The
    front-end always keeps an in-process table (the L1, with exactly the
    PR 3 semantics); when a backend is attached and a key carries a
    {!Binio.codec}, misses fall through to the backend and decoded hits
    are promoted into L1, while fresh puts are serialized through the
    codec and persisted.  Keys without a codec never touch the backend.
    Two implementations ship: {!memory_backend} (a per-process byte
    table, mostly for testing serialization round-trips) and
    {!Store_disk.backend} (a persistent on-disk layout enabling warm
    restarts and multi-process sharing).  Corrupt or truncated backend
    payloads degrade to misses — the pipeline recomputes, it never
    errors.

    {2 Counter guarantees}

    Hit/miss/computed counters are one [Atomic.t] per event class per
    stage: increments are lock-free and never lost, and {!stats} always
    reads whole values — per-stage and total counts are {e never torn},
    even while worker domains are mid-probe.  The counts themselves
    remain scheduling-dependent under [jobs > 1]: two workers can miss
    on the same digest concurrently and both compute (first {!put}
    wins, the duplicate value is dropped).  Stored values and hit
    attribution stay deterministic; tests asserting exact counter
    values must still run serially. *)

type t

type hit = Local | Shared

val hit_name : hit -> string
(** ["local"] or ["shared"]. *)

type 'a key

val key : ?codec:'a Binio.codec -> string -> 'a key
(** [key stage_name] mints the typed slot for one stage.  Call it once per
    stage, at module initialization: two keys made from the same name do
    not unify, and the name is the unit of stats aggregation, so it must be
    globally unique across the program.  When [codec] is given the stage's
    artifacts can be persisted through a byte backend; without it the
    stage is cached in-process only. *)

val key_name : _ key -> string

val key_persistent : _ key -> bool
(** Whether the key carries a codec and thus participates in backend
    persistence. *)

(** A byte-oriented storage backend.  Implementations must be safe for
    concurrent use and first-put-wins; [backend_get] returns
    [(builder, payload)] or [None] for absent {e or unreadable}
    entries.

    A backend may buffer puts: they are readable through the same
    backend at once, but other backends and processes see them only
    after [backend_flush].  {!Store_disk} streams puts into an open
    segment file and commits it on flush; the in-memory backend flushes
    nothing. *)
type backend = {
  backend_kind : string;  (** e.g. ["memory"] or ["disk:<root>"] *)
  backend_get : stage:string -> digest:string -> (string * string) option;
  backend_put :
    stage:string -> digest:string -> builder:string -> payload:string -> unit;
  backend_entries : unit -> (string * int * int) list;
      (** per-stage [(stage, entry count, serialized bytes)], sorted by
          stage name *)
  backend_flush : unit -> unit;
      (** make every put so far durable and visible to other backends;
          never raises *)
}

val memory_backend : unit -> backend
(** A fresh in-process byte table.  Functionally equivalent to running
    without a backend, but exercises the full encode/decode path — used
    to test codecs under the real store protocol. *)

val create : ?backend:backend -> unit -> t
(** An empty store, optionally over a persistent backend.  No eviction:
    entries live as long as the store, which is what makes re-evaluation
    against a warm store deterministic. *)

val backend_kind : t -> string option
(** [None] when the store is purely in-process. *)

val backend_entries : t -> (string * int * int) list
(** Per-stage [(stage, entries, bytes)] persisted in the backend; [[]]
    without a backend.  Feeds the bench [BENCH_store.json] size report. *)

val flush : t -> unit
(** Flush the backend, if any ([backend_flush]).  The sweep engine
    calls it when a sweep or an evaluation ends, failed runs included;
    without a flush, a disk backend's puts are lost with the process. *)

val find : t -> 'a key -> app:string -> digest:Digest.t -> ('a * hit) option
(** Probe for a stage artifact.  A hit is counted and attributed ([Local]
    if [app] matches the builder recorded at {!put} time); a miss is
    counted as such.  Backend hits are promoted into the in-process
    table.  Never inserts new artifacts. *)

val put : t -> 'a key -> app:string -> digest:Digest.t -> 'a -> unit
(** Record a freshly computed artifact.  First writer wins; a concurrent
    duplicate is ignored so that every reader observes one value per
    digest.  When the key has a codec and the store a backend, the
    winning value is serialized and persisted. *)

type stage_stats = {
  stage : string;
  entries : int;  (** distinct artifacts stored in-process for this stage *)
  computed : int;  (** {!put} calls, including dropped duplicates *)
  local_hits : int;
  shared_hits : int;
}

type stats = {
  total_entries : int;
  total_computed : int;
  total_local_hits : int;
  total_shared_hits : int;
  by_stage : stage_stats list;  (** sorted by stage name *)
}

val stats : t -> stats
(** A consistent snapshot of the counters: each value is read atomically
    and whole (never torn), though a probe racing the snapshot may or
    may not be included. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line per stage plus a totals line, for [--stage-stats]. *)
