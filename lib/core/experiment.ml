(** Per-application experiment execution and the parallel sweep engine.

    One [app_result] bundles everything the four tables need for one
    benchmark: compilation statistics, the per-dataset VM outcomes
    (profiles + both clocks), the coverage classification, the kernel
    analysis, the full ASIP-SP report and the break-even result.  The
    table drivers share these records so each workload is compiled and
    executed once.

    Like {!Asip_sp}, the per-application pipeline is split in two:
    {!prepare} does all the expensive work (compile, profiled VM
    execution, analyses, candidate staging) and carries no shared
    mutable state, so {!sweep} can fan it out across a domain pool;
    {!finish} replays the staged candidates against the bitstream cache
    and is executed sequentially {e in registry order}, which makes a
    parallel sweep report-identical to a serial one — including the
    local/shared attribution of cache hits. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module An = Jitise_analysis
module U = Jitise_util

type app_result = {
  workload : W.Workload.t;
  compiled : F.Compiler.result;
  outcomes : (W.Workload.dataset * Vm.Machine.outcome) list;
      (** in dataset order; the first ("train") run feeds the ASIP-SP *)
  coverage : An.Coverage.t;
  kernel : An.Kernel.t;
  report : Asip_sp.report;
  split : An.Breakeven.split;
  break_even : An.Breakeven.result;
}

(** The train-dataset outcome (first dataset). *)
let train_outcome r = snd (List.hd r.outcomes)

(** The expensive, parallel-safe half of one application's pipeline. *)
type prepared = {
  pre_workload : W.Workload.t;
  pre_compiled : F.Compiler.result;
  pre_outcomes : (W.Workload.dataset * Vm.Machine.outcome) list;
  pre_coverage : An.Coverage.t;
  pre_kernel : An.Kernel.t;
  pre_staged : Asip_sp.staged;
}

(* The frontend/VM/analysis stages, digested on the workload identity:
   name, domain, sources and datasets pin everything their outputs
   depend on (compilation and the VM are deterministic), so across
   sweep points that vary only downstream knobs every one of these is
   an artifact-store hit. *)
let workload_digest (w : W.Workload.t) =
  let c = U.Digest.create () in
  U.Digest.add_string c w.W.Workload.name;
  U.Digest.add_string c (W.Workload.domain_to_string w.W.Workload.domain);
  U.Digest.add_list c
    (fun (file, src) ->
      U.Digest.add_string c file;
      U.Digest.add_string c src)
    w.W.Workload.sources;
  U.Digest.add_list c
    (fun (d : W.Workload.dataset) ->
      U.Digest.add_string c d.W.Workload.label;
      U.Digest.add_int c d.W.Workload.n)
    w.W.Workload.datasets;
  U.Digest.finish c

let compile_stage : (W.Workload.t, F.Compiler.result) Pipeline.stage =
  Pipeline.stage ~cat:"frontend" "compile"
    ~digest:(fun _spec w -> workload_digest w)
    ~codec:Codecs.compiler_result
    (fun _ctx w -> W.Workload.compile w)

let profile_stage :
    ( W.Workload.t * F.Compiler.result,
      (W.Workload.dataset * Vm.Machine.outcome) list )
    Pipeline.stage =
  Pipeline.stage ~cat:"vm" "profile"
    (* The digest deliberately excludes [spec.vm_engine] and
       [spec.vm_tuning]: every engine and tuning combination produces
       byte-identical outcomes (pinned by the differential suite in
       test_vm), so artifacts stay valid across all of them. *)
    ~digest:(fun _spec (w, _compiled) -> workload_digest w)
    ~codec:Codecs.profile_outcomes
    (fun ctx (w, compiled) ->
      W.Workload.run_all ~engine:ctx.Pipeline.spec.Spec.vm_engine
        ~tuning:ctx.Pipeline.spec.Spec.vm_tuning compiled w)

let coverage_stage :
    ( W.Workload.t * Ir.Irmod.t * Vm.Profile.t list,
      An.Coverage.t )
    Pipeline.stage =
  Pipeline.stage ~cat:"analysis" "coverage"
    ~digest:(fun _spec (w, _m, _ps) -> workload_digest w)
    ~codec:Codecs.coverage
    (fun _ctx (_w, modul, profiles) -> An.Coverage.classify modul profiles)

let kernel_stage :
    (W.Workload.t * Ir.Irmod.t * Vm.Profile.t, An.Kernel.t) Pipeline.stage =
  Pipeline.stage ~cat:"analysis" "kernel"
    ~digest:(fun _spec (w, _m, _p) -> workload_digest w)
    ~codec:Codecs.kernel
    (fun _ctx (_w, modul, profile) -> An.Kernel.compute modul profile)

(** Compile, execute, analyze and stage one workload.  Touches no
    shared mutable state (the PivPav database and the artifact store
    are thread-safe), so many applications can be prepared
    concurrently.  All stages of one application run under one
    {!Pipeline.ctx}, so the staged report's [stage_records] cover the
    whole chain from [compile] to [implement]. *)
let prepare ~(spec : Spec.t) (db : Pp.Database.t) (w : W.Workload.t) :
    prepared =
  let app = w.W.Workload.name in
  let ctx = Pipeline.context ~spec ~app () in
  let compiled = Pipeline.exec ctx compile_stage w in
  let outcomes = Pipeline.exec ctx profile_stage (w, compiled) in
  let modul = compiled.F.Compiler.modul in
  let profiles = List.map (fun (_, o) -> o.Vm.Machine.profile) outcomes in
  let coverage = Pipeline.exec ctx coverage_stage (w, modul, profiles) in
  let train = snd (List.hd outcomes) in
  let kernel =
    Pipeline.exec ctx kernel_stage (w, modul, train.Vm.Machine.profile)
  in
  let staged =
    Asip_sp.stage_in ctx db modul train.Vm.Machine.profile
      ~total_cycles:train.Vm.Machine.native_cycles
  in
  {
    pre_workload = w;
    pre_compiled = compiled;
    pre_outcomes = outcomes;
    pre_coverage = coverage;
    pre_kernel = kernel;
    pre_staged = staged;
  }

(** The cheap, sequential half: bitstream-cache accounting and the
    derived analyses. *)
let finish ~(spec : Spec.t) (p : prepared) : app_result =
  let w = p.pre_workload in
  let modul = p.pre_compiled.F.Compiler.modul in
  let train = snd (List.hd p.pre_outcomes) in
  let report =
    Asip_sp.finalize ~spec ~app:w.W.Workload.name p.pre_staged
  in
  let split =
    An.Breakeven.split_costs modul train.Vm.Machine.profile p.pre_coverage
      report.Asip_sp.selection
  in
  let break_even =
    An.Breakeven.of_split split ~overhead_seconds:report.Asip_sp.sum_seconds
  in
  {
    workload = w;
    compiled = p.pre_compiled;
    outcomes = p.pre_outcomes;
    coverage = p.pre_coverage;
    kernel = p.pre_kernel;
    report;
    split;
    break_even;
  }

(* Commit what the run wrote to the store's backend, failed and
   cancelled runs included: a disk backend's puts only become visible
   to later runs at a flush. *)
let flushing (spec : Spec.t) f =
  Fun.protect
    ~finally:(fun () -> Option.iter U.Artifact.flush spec.Spec.stage_cache)
    f

(** Run the full experiment pipeline for one workload. *)
let evaluate ?(spec = Spec.default) (db : Pp.Database.t) (w : W.Workload.t) :
    app_result =
  flushing spec (fun () -> finish ~spec (prepare ~spec db w))

(** Run every registered workload — the sweep engine.  [spec.jobs]
    domains prepare the applications concurrently; finalization runs
    sequentially in registry order, so the results (including the
    local/shared cache-hit attribution against [spec.cache]) are
    identical whatever the parallelism.  [verbose] logs progress to
    stderr (a full sweep interprets ~10^8 simulated instructions). *)
let sweep ?(verbose = false) ?(spec = Spec.default) (db : Pp.Database.t) :
    app_result list =
  flushing spec @@ fun () ->
  let prepared =
    U.Pool.map ~jobs:spec.Spec.jobs
      (fun w ->
        if verbose then
          Printf.eprintf "[experiment] %s...\n%!" w.W.Workload.name;
        prepare ~spec db w)
      W.Registry.all
  in
  List.map (finish ~spec) prepared

let is_scientific r = r.workload.W.Workload.domain = W.Workload.Scientific
let is_embedded r = r.workload.W.Workload.domain = W.Workload.Embedded
