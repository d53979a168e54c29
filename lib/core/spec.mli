(** Unified pipeline configuration.

    One value configures the whole sweep engine: the pruning filter,
    candidate-selection constraints and CAD model, plus the engine
    knobs — domain count, shared bitstream cache, span tracer, stage
    cache (and its backend) and fault/retry model.

    Build a spec from {!default} with the [with_*] setters:

    {[
      let spec =
        Spec.default
        |> Spec.with_jobs 4
        |> Spec.with_cache (Jitise_cad.Cache.create ())
        |> Spec.with_store_dir "/var/cache/jitise"
      in
      Experiment.sweep ~spec db
    ]} *)

module Ise = Jitise_ise
module Cad = Jitise_cad
module U = Jitise_util
module Vm = Jitise_vm
module Wool = Jitise_woolcano

(** Closed-loop (online) specialization knobs — consulted only by
    [Jit_manager.online]; the batch sweep and its stage digests never
    read them, so loop-off output is unaffected. *)
type online = {
  slots : int;  (** partial-reconfiguration slots on the fabric *)
  evict : Wool.Asip.policy;  (** eviction policy when all slots are full *)
  window : int;  (** block executions per phase-profile window *)
  decay : float;  (** history weight when a window closes, in [0, 1) *)
  latency_scale : float;
      (** divide simulated CAD seconds by this factor; > 1 models a
          pre-generated bitstream library / CAD farm (see DESIGN.md
          §12) *)
}

val default_online : online

(** Which byte backend the artifact store sits on. *)
type store_backend =
  | Memory_store
      (** in-process only: artifacts die with the process (the default,
          and the only choice before the disk backend existed) *)
  | Disk_store of string
      (** persistent {!U.Store_disk} rooted at this directory: a later
          process — or a concurrent one — warm-starts from it *)

type t = {
  prune : Ise.Prune.t;  (** block filter, default the paper's [@50pS3L] *)
  select : Ise.Select.config;  (** candidate-selection constraints *)
  cad : Cad.Flow.config;  (** CAD flow model (speedup, EAPR, device) *)
  jobs : int;
      (** domains used by {!Experiment.sweep} (across workloads) and
          {!Asip_sp.stage} (across selected candidates); 1 = serial.
          Reports are identical whatever the value. *)
  cache : Cad.Cache.t option;
      (** shared bitstream cache; [None] (the default) reuses data
          paths within one specialization run only, [Some c] also
          shares them across applications (Section VI-A) *)
  tracer : U.Trace.t option;
      (** when set, every pipeline stage records a span; export with
          {!U.Trace.write} *)
  stage_cache : U.Artifact.t option;
      (** content-addressed artifact store for whole-stage memoization
          ([None], the default, recomputes every stage).  [Some store]
          lets a sweep point reuse any stage artifact whose input
          digest is unchanged — e.g. a sweep varying only [select]
          re-executes zero compile/profile/prune/MAXMISO stages.
          Orthogonal to [cache], which shares {e bitstreams} across
          applications at a finer grain. *)
  store_backend : store_backend;
      (** the backend [stage_cache] was built over, for reporting;
          maintained by {!with_stage_cache}/{!with_store_dir} *)
  faults : Cad.Faults.config;
      (** CAD fault-injection model; {!Cad.Faults.none} (the default)
          reproduces the failure-free flow byte for byte *)
  retry : U.Retry.policy;
      (** recovery policy for injected CAD failures: attempts, backoff,
          per-candidate and whole-specialization deadlines.  Only
          consulted when [faults] is enabled. *)
  vm_engine : Vm.Machine.engine;
      (** VM execution engine used by the profiling stage (default
          {!Vm.Machine.Threaded}).  Outcomes — and therefore reports
          and stage digests — are engine-invariant; the knob exists for
          semantics cross-checks and benchmarking. *)
  vm_tuning : Vm.Machine.tuning;
      (** threaded-engine optimization knobs (block linking,
          superinstruction fusion, CI-native dispatch; default
          {!Vm.Machine.default_tuning}).  Like [vm_engine], outcomes
          are tuning-invariant, so the field is excluded from stage
          digests. *)
  chaos : U.Chaos.config;
      (** multi-plane chaos model (stage crashes/stalls, pool worker
          poisoning, store I/O faults); {!U.Chaos.none} (the default)
          reproduces the chaos-free pipeline byte for byte.  The CAD
          fault plane stays separate, under [faults]. *)
  supervisor : U.Supervisor.policy;
      (** supervision policy for pipeline-stage executions: transient
          retry, per-stage stall deadline, whole-run waste deadline.
          With the default policy and [chaos] off, supervision is
          behaviour-neutral. *)
  online : online;
      (** closed-loop runtime configuration ({!default_online});
          consulted only by the online controller *)
}

val default : t

val with_prune : Ise.Prune.t -> t -> t
val with_select : Ise.Select.config -> t -> t
val with_cad : Cad.Flow.config -> t -> t

val with_jobs : int -> t -> t
(** @raise Invalid_argument when [jobs < 1]. *)

val with_cache : Cad.Cache.t -> t -> t
val with_tracer : U.Trace.t -> t -> t

val with_stage_cache : U.Artifact.t -> t -> t
(** Memoize stages through [store].  [store_backend] is derived from
    the store's own backend description, so handing over a disk-backed
    store reports as {!Disk_store}. *)

val with_store_dir : string -> t -> t
(** [with_store_dir dir t] builds a fresh artifact store over
    {!U.Store_disk} rooted at [dir] (created if missing) and installs
    it as [stage_cache] — the one-call way to get persistent, warm-
    restartable stage memoization.  Its puts reach the disk when
    {!U.Artifact.flush} runs, which [Experiment.sweep] and
    [Experiment.evaluate] do as they return.  The store chaos planes
    are wired in from [t.chaos] at construction time, so apply
    {!with_chaos} {e before} this when combining them. *)

val with_faults : Cad.Faults.config -> t -> t
(** @raise Invalid_argument on an out-of-range fault configuration. *)

val with_retry : U.Retry.policy -> t -> t
(** @raise Invalid_argument on an invalid retry policy. *)

val with_vm_engine : Vm.Machine.engine -> t -> t

val with_vm_tuning : Vm.Machine.tuning -> t -> t
(** @raise Invalid_argument when [max_linked_blocks < 1]. *)

val with_chaos : U.Chaos.config -> t -> t
(** @raise Invalid_argument on an out-of-range chaos configuration. *)

val with_supervisor : U.Supervisor.policy -> t -> t
(** @raise Invalid_argument on an invalid supervision policy. *)

val with_online : online -> t -> t
(** @raise Invalid_argument when [slots < 1], [window < 1], [decay]
    outside [0, 1) or [latency_scale <= 0]. *)
