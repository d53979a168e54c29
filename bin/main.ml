(** The [jitise] command-line tool.

    Subcommands regenerate every table and figure of the paper's
    evaluation ([table1] .. [table4], [figure1], [figure2], [all]),
    inspect workloads ([list], [inspect]), expose the compiler and VM
    for ad-hoc MiniC programs ([compile], [run], [specialize]), and
    write the machine-readable bench reports ([bench], see {!Bench}). *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module Core = Jitise_core
module U = Jitise_util
module Wool = Jitise_woolcano

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Sweep-engine configuration shared by the table/specialize commands  *)
(* ------------------------------------------------------------------ *)

(* Everything the [--faults]/[--fault-seed]/[--retries]/[--deadline]
   and [--chaos]/[--chaos-seed]/[--stage-*]/[--run-deadline] flags
   decide, bundled so every command threads one value. *)
type fault_options = {
  faults : bool;
  fault_seed : int;
  retries : int;
  deadline : float option;  (** whole-specialization budget, seconds *)
  chaos : bool;
  chaos_seed : int;
  stage_attempts : int;  (** supervised attempts per stage execution *)
  stage_deadline : float option;  (** simulated stall budget per attempt *)
  run_deadline : float option;  (** simulated supervision budget per run *)
}

let mk_spec ~trace ~jobs ~shared_cache ~stage_cache ~store_dir ~vm_engine
    ~vm_tuning ~fault_options:fo =
  (* Fail before the sweep, not after: a full run takes minutes and an
     unwritable trace path would otherwise only surface at the end. *)
  Option.iter
    (fun path ->
      try Out_channel.with_open_text path (fun _ -> ())
      with Sys_error msg ->
        Printf.eprintf "jitise: cannot write trace file: %s\n" msg;
        exit 1)
    trace;
  let supervisor =
    {
      U.Supervisor.default_policy with
      U.Supervisor.max_attempts = fo.stage_attempts;
      stage_deadline_seconds = fo.stage_deadline;
      run_deadline_seconds = fo.run_deadline;
    }
  in
  let spec =
    Core.Spec.default |> Core.Spec.with_jobs jobs
    |> Core.Spec.with_vm_engine vm_engine
    |> Core.Spec.with_vm_tuning vm_tuning
    |> Core.Spec.with_supervisor supervisor
  in
  (* Chaos before the store: {!Core.Spec.with_store_dir} wires the
     store fault planes from the spec's chaos config. *)
  let spec =
    if fo.chaos then
      Core.Spec.with_chaos (U.Chaos.defaults ~seed:fo.chaos_seed) spec
    else spec
  in
  let spec =
    if trace <> None then Core.Spec.with_tracer (U.Trace.create ()) spec
    else spec
  in
  let spec =
    if shared_cache then Core.Spec.with_cache (Cad.Cache.create ()) spec
    else spec
  in
  let spec =
    match store_dir with
    | Some dir -> Core.Spec.with_store_dir dir spec
    | None ->
        if stage_cache then
          Core.Spec.with_stage_cache (U.Artifact.create ()) spec
        else spec
  in
  if not fo.faults then spec
  else
    spec
    |> Core.Spec.with_faults (Cad.Faults.defaults ~seed:fo.fault_seed)
    |> Core.Spec.with_retry
         (U.Retry.default
         |> U.Retry.with_max_attempts fo.retries
         |> U.Retry.with_specialization_deadline fo.deadline)

(* Write the trace and report cache statistics once the work is done. *)
let finish_spec ?(stage_stats = false) (spec : Core.Spec.t) trace =
  (match (spec.Core.Spec.tracer, trace) with
  | Some t, Some path ->
      U.Trace.write t path;
      Printf.eprintf "[trace] wrote %s (%d spans)\n%!" path
        (List.length (U.Trace.events t))
  | _ -> ());
  (match spec.Core.Spec.cache with
  | Some c ->
      Format.eprintf "[cache] %a@." Cad.Cache.pp_stats (Cad.Cache.stats c)
  | None -> ());
  (match spec.Core.Spec.stage_cache with
  | Some store when stage_stats ->
      Format.eprintf "[stage-cache] %a@." U.Artifact.pp_stats
        (U.Artifact.stats store)
  | Some _ | None -> ());
  if stage_stats then
    match Vm.Machine.fusion_stats () with
    | [] -> ()
    | stats ->
        Printf.eprintf "[vm-fusion] %s\n%!"
          (String.concat ", "
             (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) stats))

let render_table1 ~faults:_ results =
  print_string (Core.Tables.render_table1 (Core.Tables.table1 results))

let render_table2 ~faults results =
  print_string (Core.Tables.render_table2 ~faults (Core.Tables.table2 results))

let render_table3 ~faults:_ results =
  print_string (Core.Tables.render_table3 (Core.Tables.table3 results))

let render_table4 ~faults:_ results =
  print_string (Core.Tables.render_table4 (Core.Tables.table4 results))

let run_figure1 () = print_string (Core.Diagrams.figure1 ())
let run_figure2 () = print_string (Core.Diagrams.figure2 ())

let render_all ~faults results =
  print_endline "=== Table I ===";
  render_table1 ~faults results;
  print_endline "\n=== Table II ===";
  render_table2 ~faults results;
  print_endline "\n=== Table III ===";
  render_table3 ~faults results;
  print_endline "\n=== Table IV ===";
  render_table4 ~faults results;
  print_endline "\n=== Figure 1 ===";
  run_figure1 ();
  print_endline "\n=== Figure 2 ===";
  run_figure2 ()

let run_list () =
  let line (w : W.Workload.t) =
    Printf.printf "%-12s %-10s %s\n" w.W.Workload.name
      (W.Workload.domain_to_string w.W.Workload.domain)
      w.W.Workload.description
  in
  List.iter line W.Registry.all;
  print_endline "\nphase-shifting (for the `online' command):";
  List.iter line W.Registry.phased

let run_inspect name =
  let w = Cli.load_workload name in
  let r = W.Workload.compile w in
  print_string (Ir.Printer.module_to_string r.F.Compiler.modul)

let run_specialize name trace jobs shared_cache stage_cache stage_stats
    store_dir vm_engine vm_tuning fault_options =
  let w = Cli.load_workload name in
  let db = Lazy.force Cli.db in
  let spec =
    mk_spec ~trace ~jobs ~shared_cache
      ~stage_cache:(stage_cache || stage_stats)
      ~store_dir ~vm_engine ~vm_tuning ~fault_options
  in
  let r = Core.Experiment.evaluate ~spec db w in
  let rep = r.Core.Experiment.report in
  Printf.printf "%s: %d candidate(s) selected, ASIP ratio %.2fx (max %.2fx)\n"
    name
    (List.length rep.Core.Asip_sp.selection)
    rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio
    rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio;
  List.iter
    (fun (c : Core.Asip_sp.candidate_result) ->
      let cand = c.Core.Asip_sp.scored.Ise.Select.candidate in
      let est = c.Core.Asip_sp.scored.Ise.Select.estimate in
      Printf.printf
        "  %s  %s/bb%d  %d instrs, %d inputs, sw %d cyc -> hw %d cyc, %s CAD%s%s\n"
        cand.Ise.Candidate.signature cand.Ise.Candidate.func
        cand.Ise.Candidate.block cand.Ise.Candidate.size
        cand.Ise.Candidate.num_inputs est.Pp.Estimator.sw_cycles
        est.Pp.Estimator.hw_cycles
        (U.Duration.to_min_sec c.Core.Asip_sp.total_seconds)
        (match c.Core.Asip_sp.cache_hit with
        | Some kind ->
            Printf.sprintf " (%s cache hit)" (Cad.Cache.hit_name kind)
        | None -> "")
        (if not fault_options.faults then ""
         else
           let retry =
             if c.Core.Asip_sp.failed_attempts = 0 then ""
             else
               Printf.sprintf ", %d attempt(s), %d failed (%s wasted)"
                 c.Core.Asip_sp.attempts c.Core.Asip_sp.failed_attempts
                 (U.Duration.to_min_sec c.Core.Asip_sp.wasted_seconds)
           in
           match c.Core.Asip_sp.outcome with
           | Core.Asip_sp.Promoted { from; _ } ->
               Printf.sprintf "%s [promoted; %s failed]" retry
                 from.Ise.Select.candidate.Ise.Candidate.signature
           | Core.Asip_sp.Implemented -> retry))
    rep.Core.Asip_sp.candidates;
  if fault_options.faults || fault_options.chaos then begin
    List.iter
      (fun (d : Core.Asip_sp.dropped) ->
        Printf.printf "  %s  abandoned: %s, %d failed attempt(s), %s wasted\n"
          d.Core.Asip_sp.drop_scored.Ise.Select.candidate
            .Ise.Candidate.signature
          (Core.Asip_sp.drop_reason_name d.Core.Asip_sp.drop_reason)
          d.Core.Asip_sp.drop_attempts
          (U.Duration.to_min_sec d.Core.Asip_sp.drop_wasted_seconds))
      rep.Core.Asip_sp.dropped;
    Printf.printf
      "faults: %d CAD attempt(s), %d failed, %s wasted; %d promoted, %d \
       dropped%s\n"
      rep.Core.Asip_sp.total_attempts rep.Core.Asip_sp.failed_attempts
      (U.Duration.to_min_sec rep.Core.Asip_sp.wasted_seconds)
      rep.Core.Asip_sp.degraded
      (List.length rep.Core.Asip_sp.dropped)
      ((if rep.Core.Asip_sp.stage_failures > 0 then
          Printf.sprintf "; %d stage-failed" rep.Core.Asip_sp.stage_failures
        else "")
      ^
      if rep.Core.Asip_sp.deadline_exceeded then "; deadline exceeded" else "")
  end;
  Printf.printf "total ASIP-SP overhead: %s (const %s, map %s, par %s)\n"
    (U.Duration.to_min_sec rep.Core.Asip_sp.sum_seconds)
    (U.Duration.to_min_sec rep.Core.Asip_sp.const_seconds)
    (U.Duration.to_min_sec rep.Core.Asip_sp.map_seconds)
    (U.Duration.to_min_sec rep.Core.Asip_sp.par_seconds);
  Printf.printf "break-even: %s\n"
    (match r.Core.Experiment.break_even with
    | Jitise_analysis.Breakeven.Never -> "never"
    | Jitise_analysis.Breakeven.After s -> U.Duration.to_dhms s);
  finish_spec ~stage_stats spec trace

let run_timeline name jobs fault_options =
  let w = Cli.load_workload name in
  let db = Lazy.force Cli.db in
  let spec =
    mk_spec ~trace:None ~jobs:1 ~shared_cache:false ~stage_cache:false
      ~store_dir:None ~vm_engine:Vm.Machine.default_engine
      ~vm_tuning:Vm.Machine.default_tuning ~fault_options
  in
  let r = Core.Experiment.evaluate ~spec db w in
  let t = Core.Jit_manager.timeline ~jobs r.Core.Experiment.report in
  Format.printf "%a" Core.Jit_manager.pp_timeline t;
  Printf.printf
    "\nspeedup %.2fx; specialization %s; reconfiguration %.1f ms\n"
    t.Core.Jit_manager.speedup
    (U.Duration.to_min_sec t.Core.Jit_manager.specialization_seconds)
    (1000.0 *. t.Core.Jit_manager.reconfiguration_seconds)

let run_online name slots evict window decay latency_scale jobs =
  let w = Cli.load_workload name in
  let online = { Core.Spec.slots; evict; window; decay; latency_scale } in
  let spec = Cli.online_spec ~online ~jobs () in
  let o = Core.Jit_manager.online ~spec (Lazy.force Cli.db) w in
  Format.printf "%a" Core.Jit_manager.pp_online o

let run_ablation name =
  let w = Cli.load_workload name in
  let db = Lazy.force Cli.db in
  let r = W.Workload.compile w in
  let d = List.hd w.W.Workload.datasets in
  let out = W.Workload.run r d in
  let filters =
    [
      Ise.Prune.of_name "@25pS1L"; Ise.Prune.of_name "@50pS3L";
      Ise.Prune.of_name "@75pS5L"; Ise.Prune.of_name "@90pS8L";
      Ise.Prune.none;
    ]
  in
  let t =
    U.Texttable.create
      ~headers:[ "filter"; "search[ms]"; "blk"; "ins"; "can"; "ratio"; "sum" ]
  in
  List.iter
    (fun prune ->
      let rep =
        Core.Asip_sp.run_spec
          ~spec:(Core.Spec.with_prune prune Core.Spec.default)
          ~app:name db r.Jitise_frontend.Compiler.modul
          out.Vm.Machine.profile ~total_cycles:out.Vm.Machine.native_cycles
      in
      U.Texttable.add_row t
        [
          Ise.Prune.name prune;
          Printf.sprintf "%.2f" (1000.0 *. rep.Core.Asip_sp.search_wall_seconds);
          string_of_int rep.Core.Asip_sp.searched_blocks;
          string_of_int rep.Core.Asip_sp.searched_instrs;
          string_of_int (List.length rep.Core.Asip_sp.selection);
          Printf.sprintf "%.2f" rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio;
          U.Duration.to_min_sec rep.Core.Asip_sp.sum_seconds;
        ])
    filters;
  Printf.printf "pruning-filter ablation for %s (train dataset):\n" name;
  U.Texttable.print t

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_compile path no_opt =
  let src = read_file path in
  match
    F.Compiler.compile ~optimize:(not no_opt) ~module_name:path
      [ (path, src) ]
  with
  | r ->
      Printf.printf "; %d blocks, %d instructions, compiled in %.3f s\n"
        r.F.Compiler.stats.F.Compiler.blocks r.F.Compiler.stats.F.Compiler.instrs
        r.F.Compiler.stats.F.Compiler.compile_seconds;
      print_string (Ir.Printer.module_to_string r.F.Compiler.modul)
  | exception F.Compiler.Error m ->
      Printf.eprintf "%s\n" m;
      exit 1

let run_run path n engine tuning =
  let src = read_file path in
  match F.Compiler.compile ~module_name:path [ (path, src) ] with
  | exception F.Compiler.Error m ->
      Printf.eprintf "%s\n" m;
      exit 1
  | r -> (
      match
        Vm.Machine.run ~engine ~tuning r.F.Compiler.modul ~entry:"main"
          ~args:[ Ir.Eval.VInt (Int64.of_int n) ]
      with
      | exception Vm.Machine.Fault m ->
          Printf.eprintf "runtime fault: %s\n" m;
          exit 1
      | out ->
          (match out.Vm.Machine.ret with
          | Some v -> Format.printf "result: %a@." Ir.Eval.pp_value v
          | None -> print_endline "result: (void)");
          Printf.printf "native: %.0f cycles (%.4f s at 300 MHz), VM: %.0f cycles (ratio %.3f)\n"
            out.Vm.Machine.native_cycles
            (Vm.Machine.seconds_of_cycles out.Vm.Machine.native_cycles)
            out.Vm.Machine.vm_cycles
            (out.Vm.Machine.vm_cycles /. out.Vm.Machine.native_cycles))

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let unit_cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record one span per pipeline stage per workload and write a \
           Chrome-trace JSON to $(docv) (open in chrome://tracing or \
           Perfetto).")

let jobs_arg =
  Arg.(
    value & opt Cli.positive_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Evaluate workloads (and candidates) on $(docv) domains.  The \
           reports are identical to a serial run.")

let shared_cache_arg =
  Arg.(
    value & flag
    & info [ "shared-cache" ]
        ~doc:
          "Share the bitstream cache across applications (the Section VI-A \
           proposal) and report its local/shared hit statistics on stderr.")

let stage_cache_arg =
  Arg.(
    value & flag
    & info [ "stage-cache" ]
        ~doc:
          "Keep a content-addressed store of every pipeline stage's output \
           (keyed on the stage's input digest), so sweep points that only \
           change downstream knobs reuse upstream artifacts instead of \
           recomputing them.")

let stage_stats_arg =
  Arg.(
    value & flag
    & info [ "stage-stats" ]
        ~doc:
          "Report per-stage artifact-store statistics (entries, computed, \
           local/shared hits) on stderr after the run.  Implies \
           $(b,--stage-cache).")

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Persist the stage artifact store to a content-addressed on-disk \
           layout rooted at $(docv) (created if missing), and warm-start \
           from whatever a previous run left there.  A second run against \
           the same $(docv) re-executes zero cacheable stages.  Implies \
           $(b,--stage-cache).")

let vm_engine_conv =
  let parse s =
    match Vm.Machine.engine_of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "expected one of %s, got %S"
                (String.concat ", "
                   (List.map Vm.Machine.engine_name Vm.Machine.engines))
                s))
  in
  Arg.conv
    (parse, fun ppf e -> Format.pp_print_string ppf (Vm.Machine.engine_name e))

let vm_engine_arg =
  Arg.(
    value
    & opt vm_engine_conv Vm.Machine.default_engine
    & info [ "vm-engine" ] ~docv:"ENGINE"
        ~doc:
          "VM execution engine: $(b,threaded) (the default; per-block closure \
           compilation over typed, unboxed register files) or $(b,reference) (the \
           AST-walking baseline).  Profiles, reports and stage digests are \
           identical either way.")

let vm_link_arg =
  Arg.(
    value
    & opt bool Vm.Machine.default_tuning.Vm.Machine.link
    & info [ "vm-link" ] ~docv:"BOOL"
        ~doc:
          "Threaded-engine block linking: terminators transfer to the \
           successor's compiled block directly instead of returning to the \
           indexed dispatch loop.  Semantics-preserving; on by default.")

let vm_fuse_arg =
  Arg.(
    value
    & opt bool Vm.Machine.default_tuning.Vm.Machine.fuse
    & info [ "vm-fuse" ] ~docv:"BOOL"
        ~doc:
          "Threaded-engine superinstructions: compare-and-branch, global \
           addresses folded to constants, address arithmetic folded into \
           the loads and stores that use it, and phi rows as slot-move \
           tables.  \
           Semantics-preserving; on by default.  Per-pattern hit counts \
           print under $(b,--stage-stats).")

let vm_ci_native_arg =
  Arg.(
    value
    & opt bool Vm.Machine.default_tuning.Vm.Machine.ci_native
    & info [ "vm-ci-native" ] ~docv:"BOOL"
        ~doc:
          "Execute loaded custom instructions as one fused native closure \
           compiled from the MISO subgraph instead of interpreting the \
           constituent ops.  Semantics-preserving; on by default.")

let vm_link_budget_arg =
  Arg.(
    value
    & opt Cli.positive_int Vm.Machine.default_tuning.Vm.Machine.max_linked_blocks
    & info [ "vm-link-budget" ] ~docv:"N"
        ~doc:
          "Consecutive direct block-to-block transfers before the linked \
           engine takes one trip through the indexed dispatch path.")

let vm_tuning_term =
  Term.(
    const (fun link fuse ci_native max_linked_blocks ->
        { Vm.Machine.link; fuse; ci_native; max_linked_blocks })
    $ vm_link_arg $ vm_fuse_arg $ vm_ci_native_arg $ vm_link_budget_arg)

let evict_conv =
  let parse s =
    match Wool.Asip.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "expected lru or beneficial, got %S" s))
  in
  Arg.conv
    (parse, fun ppf p -> Format.pp_print_string ppf (Wool.Asip.policy_name p))

let slots_arg =
  Arg.(
    value
    & opt Cli.positive_int Core.Spec.default_online.Core.Spec.slots
    & info [ "slots" ] ~docv:"N"
        ~doc:
          "Partial-reconfiguration slots on the modeled fabric.  Fewer \
           slots than program phases is the regime the adaptive \
           controller is built for.")

let evict_arg =
  Arg.(
    value
    & opt evict_conv Core.Spec.default_online.Core.Spec.evict
    & info [ "evict" ] ~docv:"POLICY"
        ~doc:
          "Slot eviction policy when the fabric is full: $(b,lru) \
           (least-recently-dispatched occupant) or $(b,beneficial) \
           (lowest recorded benefit, ties on signature).")

let window_arg =
  Arg.(
    value
    & opt Cli.positive_int Core.Spec.default_online.Core.Spec.window
    & info [ "window" ] ~docv:"N"
        ~doc:
          "Block executions per phase-profile window.  Smaller windows \
           react faster but see noisier rates.")

let nonneg_float_below_one =
  let parse s =
    match float_of_string_opt s with
    | Some d when d >= 0.0 && d < 1.0 -> Ok d
    | Some d -> Error (`Msg (Printf.sprintf "expected 0 <= decay < 1, got %g" d))
    | None -> Error (`Msg (Printf.sprintf "expected a float, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let decay_arg =
  Arg.(
    value
    & opt nonneg_float_below_one Core.Spec.default_online.Core.Spec.decay
    & info [ "decay" ] ~docv:"D"
        ~doc:"History weight when a profile window closes, in [0, 1).")

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 -> Ok f
    | Some f -> Error (`Msg (Printf.sprintf "expected a value > 0, got %g" f))
    | None -> Error (`Msg (Printf.sprintf "expected a float, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let latency_scale_arg =
  Arg.(
    value
    & opt positive_float Core.Spec.default_online.Core.Spec.latency_scale
    & info [ "latency-scale" ] ~docv:"F"
        ~doc:
          "Divide simulated CAD seconds by $(docv); values > 1 model a \
           pre-generated bitstream library or a CAD farm (DESIGN.md \
           §12).")

let faults_arg =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:
          "Inject deterministic CAD tool-flow failures (crashes, congestion, \
           timing misses, corrupt bitstreams) and recover with the retry \
           policy.  Off by default, which reproduces the failure-free flow \
           exactly.")

let fault_seed_arg =
  Arg.(
    value & opt int 20110516
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the fault-injection model.  The same seed produces the \
           same failures, whatever $(b,--jobs) is.")

let retries_arg =
  Arg.(
    value & opt Cli.positive_int 3
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "CAD attempts per candidate before it degrades to the next-ranked \
           candidate or to software (with $(b,--faults)).")

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Simulated-time budget for a whole specialization run (with \
           $(b,--faults)); candidates past it are left in software.")

let chaos_arg =
  Arg.(
    value & flag
    & info [ "chaos" ]
        ~doc:
          "Inject deterministic cross-layer chaos (stage crashes and \
           stalls, pool worker crashes, store read/write errors, torn \
           envelopes, latency spikes) with the default fault mix; the \
           supervisor degrades affected candidates to software instead \
           of aborting the sweep.  Off by default, which reproduces the \
           chaos-free pipeline byte for byte.")

let chaos_seed_arg =
  Arg.(
    value & opt int 4207
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the chaos model.  The same seed replays the same \
           faults on every plane, whatever $(b,--jobs) is.")

let stage_attempts_arg =
  Arg.(
    value & opt Cli.positive_int 3
    & info [ "stage-attempts" ] ~docv:"N"
        ~doc:
          "Supervised attempts per pipeline-stage execution before the \
           candidate degrades to software (transient chaos crashes are \
           retried with deterministic backoff).")

let stage_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stage-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Simulated stall budget per stage attempt; an attempt whose \
           injected stalls overrun it is killed and retried (the killed \
           attempt billed at the full deadline).")

let run_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "run-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Simulated supervision budget (stalls + backoffs) for all \
           sequential stage executions of one run; past it, further \
           stages are refused and their candidates stay in software.")

let fault_options_term =
  Term.(
    const
      (fun faults fault_seed retries deadline chaos chaos_seed stage_attempts
           stage_deadline run_deadline ->
        {
          faults;
          fault_seed;
          retries;
          deadline;
          chaos;
          chaos_seed;
          stage_attempts;
          stage_deadline;
          run_deadline;
        })
    $ faults_arg $ fault_seed_arg $ retries_arg $ deadline_arg $ chaos_arg
    $ chaos_seed_arg $ stage_attempts_arg $ stage_deadline_arg
    $ run_deadline_arg)

(* A command that runs the full sweep once and renders from it. *)
let sweep_cmd name doc render =
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const
        (fun trace jobs shared_cache stage_cache stage_stats store_dir
             vm_engine vm_tuning fault_options ->
          let spec =
            mk_spec ~trace ~jobs ~shared_cache
              ~stage_cache:(stage_cache || stage_stats)
              ~store_dir ~vm_engine ~vm_tuning ~fault_options
          in
          let results =
            Core.Experiment.sweep ~verbose:true ~spec (Lazy.force Cli.db)
          in
          render ~faults:fault_options.faults results;
          finish_spec ~stage_stats spec trace)
      $ trace_arg $ jobs_arg $ shared_cache_arg $ stage_cache_arg
      $ stage_stats_arg $ store_dir_arg $ vm_engine_arg $ vm_tuning_term
      $ fault_options_term)

let cmds =
  [
    sweep_cmd "table1" "Reproduce Table I (application characterization)"
      render_table1;
    sweep_cmd "table2" "Reproduce Table II (ASIP-SP runtime overheads)"
      render_table2;
    sweep_cmd "table3" "Reproduce Table III (constant CAD overheads)"
      render_table3;
    sweep_cmd "table4" "Reproduce Table IV (cache / faster-CAD break-even)"
      render_table4;
    unit_cmd "figure1" "Render Figure 1 (tool-flow overview)" run_figure1;
    unit_cmd "figure2" "Render Figure 2 (ASIP specialization process)"
      run_figure2;
    sweep_cmd "all" "Reproduce every table and figure" render_all;
    unit_cmd "list" "List the benchmark workloads" run_list;
    Cmd.v
      (Cmd.info "inspect" ~doc:"Dump a workload's optimized bitcode")
      Term.(const run_inspect $ workload_arg);
    Cmd.v
      (Cmd.info "specialize"
         ~doc:"Run the ASIP specialization process on a workload")
      Term.(
        const run_specialize $ workload_arg $ trace_arg $ jobs_arg
        $ shared_cache_arg $ stage_cache_arg $ stage_stats_arg $ store_dir_arg
        $ vm_engine_arg $ vm_tuning_term $ fault_options_term);
    Cmd.v
      (Cmd.info "timeline"
         ~doc:
           "Simulate the concurrent JIT-customization timeline of a \
            workload (--jobs models concurrent CAD flows on the host)")
      Term.(const run_timeline $ workload_arg $ jobs_arg $ fault_options_term);
    Cmd.v
      (Cmd.info "online"
         ~doc:
           "Run a workload under the closed-loop adaptive-specialization \
            controller and compare it against oracle-offline and \
            no-specialization baselines (try the phase-shifting \
            phased.* workloads)")
      Term.(
        const run_online $ workload_arg $ slots_arg $ evict_arg $ window_arg
        $ decay_arg $ latency_scale_arg $ jobs_arg);
    Cmd.v
      (Cmd.info "ablation"
         ~doc:"Sweep pruning filters over a workload (search time vs speedup)")
      Term.(const run_ablation $ workload_arg);
    Cmd.v
      (Cmd.info "compile" ~doc:"Compile a MiniC file and print its bitcode")
      Term.(
        const run_compile $ path_arg
        $ Arg.(value & flag & info [ "no-opt" ] ~doc:"Disable -O3 pipeline"));
    Cmd.v
      (Cmd.info "run" ~doc:"Compile and execute a MiniC file's main(n)")
      Term.(
        const run_run $ path_arg
        $ Arg.(
            value & opt int 10
            & info [ "n" ] ~docv:"N" ~doc:"Argument passed to main")
        $ vm_engine_arg $ vm_tuning_term);
    Bench.cmd;
  ]

let () =
  let info =
    Cmd.info "jitise" ~version:"1.0.0"
      ~doc:"Just-in-time instruction set extension: feasibility study tooling"
  in
  exit (Cmd.eval (Cmd.group info cmds))
