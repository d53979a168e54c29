(** [jitise bench]: machine-readable reports and microbenchmarks.

    [vm], [pipeline], [store], [online] and [chaos] each write one JSON
    report ([-o FILE], default [BENCH_<mode>.json]) and exit 1 when a
    contract they assert is broken; [micro] prints Bechamel estimates
    for the pipeline stage behind each table and figure.  The paper's
    tables themselves are [jitise all]. *)

open Bechamel
module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Hw = Jitise_hwgen
module Cad = Jitise_cad
module Core = Jitise_core
module U = Jitise_util
module J = U.Json

(* A broken contract.  Raised, not [exit]ed, so temporary store roots
   are removed on the way out; {!checked} turns it into exit 1. *)
exception Violation of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Violation msg)) fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [f] on a fresh temporary directory, removed however [f] exits. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ratio x = J.Fixed (4, x)
let seconds x = J.Fixed (6, x)
let count x = J.Fixed (0, x)
let strings l = J.List (List.map (fun s -> J.String s) l)

let stage_counts (s : Core.Pipeline.summary) =
  [
    ("stage", J.String s.Core.Pipeline.sum_stage);
    ("executions", J.Int s.Core.Pipeline.sum_executions);
    ("computed", J.Int s.Core.Pipeline.sum_computed);
    ("local_hits", J.Int s.Core.Pipeline.sum_local_hits);
    ("shared_hits", J.Int s.Core.Pipeline.sum_shared_hits);
  ]

let same_ret = Option.equal Ir.Eval.equal_value

let records_of results =
  List.concat_map
    (fun r -> r.Core.Experiment.report.Core.Asip_sp.stage_records)
    results

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (Bechamel)                                          *)
(* ------------------------------------------------------------------ *)

(* One test per table/figure, plus ablation benches for the design
   decisions DESIGN.md calls out (MAXMISO vs the exponential SingleCut,
   pruning on/off, unrolling on/off), all on small sor fixtures. *)
let micro_tests () =
  let db = Lazy.force Cli.db in
  let sor = Cli.load_workload "sor" in
  let sor_compiled = lazy (W.Workload.compile sor) in
  let sor_profiled =
    lazy
      (let r = Lazy.force sor_compiled in
       let out = W.Workload.run r { label = "bench"; n = 20 } in
       (r.F.Compiler.modul, out))
  in
  let sor_report =
    lazy
      (let m, out = Lazy.force sor_profiled in
       Core.Asip_sp.run_spec db m out.Vm.Machine.profile
         ~total_cycles:out.Vm.Machine.native_cycles)
  in
  let block_dfg m fname label =
    match Ir.Irmod.find_func m fname with
    | Some f -> Ir.Dfg.of_block f (Ir.Func.block f label)
    | None -> failwith (Printf.sprintf "bench: function %S not found" fname)
  in
  let sor_candidate =
    lazy
      (let m, _ = Lazy.force sor_profiled in
       let r = Lazy.force sor_report in
       let c = (List.hd r.Core.Asip_sp.selection).Ise.Select.candidate in
       (block_dfg m c.Ise.Candidate.func c.Ise.Candidate.block, c))
  in
  let hot_dfg =
    lazy
      (let m, out = Lazy.force sor_profiled in
       match Vm.Profile.block_costs out.Vm.Machine.profile m with
       | ((fname, label), _) :: _ -> block_dfg m fname label
       | [] -> failwith "bench: sor profile has no blocks")
  in
  let test name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"jitise"
    [
      (* Table I columns come from compilation, profiled VM execution,
         coverage and kernel analysis. *)
      test "table1/characterize-sor" (fun () ->
          let r = W.Workload.compile sor in
          let o1 = W.Workload.run r { label = "a"; n = 4 } in
          let o2 = W.Workload.run r { label = "b"; n = 8 } in
          let cov =
            Jitise_analysis.Coverage.classify r.F.Compiler.modul
              [ o1.Vm.Machine.profile; o2.Vm.Machine.profile ]
          in
          let k =
            Jitise_analysis.Kernel.compute r.F.Compiler.modul
              o1.Vm.Machine.profile
          in
          Sys.opaque_identity (cov, k));
      (* Table II's dominant live cost is the candidate search (the CAD
         times are simulated). *)
      test "table2/candidate-search-sor" (fun () ->
          let m, out = Lazy.force sor_profiled in
          let pruning =
            Ise.Prune.apply Ise.Prune.at_50p_s3l m out.Vm.Machine.profile
          in
          let cands =
            List.concat_map
              (fun (fname, label) ->
                match Ir.Irmod.find_func m fname with
                | None -> []
                | Some f ->
                    let dfg = Ir.Dfg.of_block f (Ir.Func.block f label) in
                    Ise.Maxmiso.of_block dfg ~func:fname)
              pruning.Ise.Prune.blocks
          in
          Sys.opaque_identity
            (Ise.Select.select db m out.Vm.Machine.profile cands));
      (* Table III: one full simulated implementation (VHDL + netlists +
         all six stages). *)
      test "table3/cad-flow-one-candidate" (fun () ->
          let dfg, c = Lazy.force sor_candidate in
          Sys.opaque_identity
            (Cad.Flow.implement db (Hw.Project.create db dfg c)));
      (* Table IV: the cache/CAD-speedup extrapolation grid. *)
      test "table4/cache-grid-sor" (fun () ->
          let costs = Core.Asip_sp.candidate_costs (Lazy.force sor_report) in
          Sys.opaque_identity
            (List.map
               (fun hit ->
                 Jitise_analysis.Cache_model.residual_overhead ~hit_rate:hit
                   ~cad_speedup:0.3 costs)
               [ 0.0; 0.3; 0.6; 0.9 ]));
      (* Figures 1/2 are the flow itself: the end-to-end JIT path and the
         three-phase specialization. *)
      test "figure1/jit-ise-end-to-end" (fun () ->
          let r = Lazy.force sor_compiled in
          let out = W.Workload.run r { label = "f1"; n = 4 } in
          let report =
            Core.Asip_sp.run_spec db r.F.Compiler.modul out.Vm.Machine.profile
              ~total_cycles:out.Vm.Machine.native_cycles
          in
          let adapted =
            Core.Adapt.apply r.F.Compiler.modul report.Core.Asip_sp.selection
          in
          Sys.opaque_identity
            (Vm.Machine.run adapted.Core.Adapt.modul ~entry:"main"
               ~cis:adapted.Core.Adapt.registry ~args:[ Ir.Eval.VInt 4L ]));
      test "figure2/asip-specialization" (fun () ->
          let m, out = Lazy.force sor_profiled in
          Sys.opaque_identity
            (Core.Asip_sp.run_spec db m out.Vm.Machine.profile
               ~total_cycles:out.Vm.Machine.native_cycles));
      test "ablation/ise-maxmiso-linear" (fun () ->
          Sys.opaque_identity
            (Ise.Maxmiso.of_block (Lazy.force hot_dfg) ~func:"sweep"));
      test "ablation/ise-singlecut-exponential" (fun () ->
          let config =
            {
              Ise.Singlecut.default_config with
              Ise.Singlecut.step_budget = 20_000;
              max_nodes = 64;
            }
          in
          Sys.opaque_identity
            (Ise.Singlecut.of_block ~config db (Lazy.force hot_dfg)
               ~func:"sweep"));
      test "ablation/search-with-50pS3L" (fun () ->
          let m, out = Lazy.force sor_profiled in
          Sys.opaque_identity
            (Ise.Prune.apply Ise.Prune.at_50p_s3l m out.Vm.Machine.profile));
      test "ablation/search-unpruned" (fun () ->
          let m, _ = Lazy.force sor_profiled in
          Sys.opaque_identity (Ise.Maxmiso.of_module m));
      test "ablation/compile-unroll4" (fun () ->
          Sys.opaque_identity (W.Workload.compile ~optimize:true sor));
      test "ablation/compile-O0" (fun () ->
          Sys.opaque_identity (W.Workload.compile ~optimize:false sor));
    ]

let micro () =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  print_endline "\n=== Bechamel microbenchmarks (monotonic clock) ===";
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%8.3f s " (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
            else Printf.sprintf "%8.0f ns" est
          in
          Printf.printf "  %-42s %s/run\n" name pretty
      | _ -> Printf.printf "  %-42s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Pipeline stage-cache report (BENCH_pipeline.json)                   *)
(* ------------------------------------------------------------------ *)

(* A small selection-knob sweep against one shared artifact store.  This
   is the incremental recomputation claim in numbers: across sweep
   points that only vary the selection config, everything upstream of
   selection is a stage hit.  Serial on purpose — hit/miss counters are
   scheduling-dependent under jobs > 1 (values are not). *)
let pipeline out =
  let apps = [ "sor"; "fft" ] in
  let variants =
    [
      ("default", Ise.Select.default_config);
      ( "top2",
        { Ise.Select.default_config with Ise.Select.max_candidates = Some 2 }
      );
      ( "top1",
        { Ise.Select.default_config with Ise.Select.max_candidates = Some 1 }
      );
    ]
  in
  prerr_endline
    "[bench] pipeline: selection sweep against a shared stage cache...";
  let store = U.Artifact.create () in
  let results =
    List.concat_map
      (fun (_, sel) ->
        let spec =
          Core.Spec.default |> Core.Spec.with_select sel
          |> Core.Spec.with_stage_cache store
        in
        List.map
          (fun name ->
            Core.Experiment.evaluate ~spec (Lazy.force Cli.db)
              (Cli.load_workload name))
          apps)
      variants
  in
  let summaries = Core.Pipeline.summarize (records_of results) in
  let hits (s : Core.Pipeline.summary) =
    s.Core.Pipeline.sum_local_hits + s.Core.Pipeline.sum_shared_hits
  in
  let saved = List.fold_left (fun acc s -> acc + hits s) 0 summaries in
  let stats = U.Artifact.stats store in
  J.write out
    (J.Obj
       [
         ( "sweep",
           J.Obj
             [
               ("apps", strings apps);
               ("select_variants", strings (List.map fst variants));
               ("jobs", J.Int 1);
             ] );
         ( "stages",
           J.List
             (List.map
                (fun (s : Core.Pipeline.summary) ->
                  let n = s.Core.Pipeline.sum_executions in
                  J.Obj
                    (stage_counts s
                    @ [
                        ( "hit_rate",
                          ratio
                            (if n = 0 then 0.0
                             else float_of_int (hits s) /. float_of_int n) );
                        ( "wall_seconds",
                          seconds s.Core.Pipeline.sum_wall_seconds );
                      ]))
                summaries) );
         ( "store",
           J.Obj
             [
               ("entries", J.Int stats.U.Artifact.total_entries);
               ("computed", J.Int stats.U.Artifact.total_computed);
               ("local_hits", J.Int stats.U.Artifact.total_local_hits);
               ("shared_hits", J.Int stats.U.Artifact.total_shared_hits);
             ] );
         ("executions_saved", J.Int saved);
       ]);
  Printf.eprintf "[bench] pipeline: wrote %s (%d stage executions saved)\n%!"
    out saved

(* ------------------------------------------------------------------ *)
(* VM engine report (BENCH_vm.json)                                    *)
(* ------------------------------------------------------------------ *)

(* The tuned/untuned geomean below which the report fails: the tuning
   knobs must never make the engine slower. *)
let vm_gate = 1.0

(* Earlier engines' numbers, the baseline BENCH_vm.json is read against. *)
let vm_baseline =
  let per_app digits l =
    J.Obj (List.map (fun (k, v) -> (k, J.Fixed (digits, v))) l)
  in
  J.Obj
    [
      ( "label",
        J.String
          "PR 12 typed engine beside the boxed compiled tier: boxed memory \
           cells, icmp+br the only typed superinstruction" );
      ("pr12_tuned_over_reference_geomean", J.Fixed (4, 5.2611));
      ("pr12_tuned_over_tuned_boxed_geomean", J.Fixed (4, 1.3988));
      ( "pr12_tuned_over_reference",
        per_app 4
          [
            ("164.gzip", 4.7362); ("179.art", 4.9093); ("183.equake", 5.5436);
            ("188.ammp", 3.8561); ("429.mcf", 7.3014); ("433.milc", 4.8501);
            ("444.namd", 4.5650); ("458.sjeng", 6.8336); ("470.lbm", 6.5106);
            ("473.astar", 6.4570); ("adpcm", 4.4541); ("fft", 3.7221);
            ("sor", 6.3478); ("whetstone", 5.1244);
          ] );
      ( "pr12_tuned_words_per_instr",
        per_app 3
          [
            ("164.gzip", 0.026); ("179.art", 0.195); ("183.equake", 0.183);
            ("188.ammp", 0.116); ("429.mcf", 0.193); ("433.milc", 0.439);
            ("444.namd", 0.164); ("458.sjeng", 0.276); ("470.lbm", 0.339);
            ("473.astar", 0.008); ("adpcm", 0.363); ("fft", 0.267);
            ("sor", 0.139); ("whetstone", 0.155);
          ] );
      ("pr9_tuned_over_reference_geomean", J.Fixed (4, 3.6821));
      ("pr8_tuned_over_reference_geomean", J.Fixed (2, 3.04));
      ("pr4_threaded_over_reference_geomean", J.Fixed (2, 2.08));
      ( "note",
        J.String
          "PR 12's untuned config was the boxed compiled tier with every knob \
           off, so its tuned/threaded ratios are not comparable with \
           tuned_over_untuned here; words/instr is Gc.minor_words per dynamic \
           instruction on the first dataset, deterministic across reps" );
    ]

(* Dynamic instructions per second of three VM configurations:

   - reference — the AST-walking semantics baseline;
   - untuned   — the threaded engine with every tuning knob off
     ({!Vm.Machine.untuned}: indexed dispatch, no superinstructions,
     interpreted CIs);
   - tuned     — everything on ({!Vm.Machine.default_tuning}).

   Each workload's first dataset runs [reps] times per configuration —
   the configurations alternate within one rep loop, so slow drift
   (frequency scaling, a noisy neighbour) hits all three equally — and
   the best wall time counts, with a major GC slice collected before
   each timing so one run's garbage is not billed to the next.  All
   outcomes are cross-checked pairwise: a semantics divergence fails the
   benchmark rather than producing a meaningless speedup number. *)
let vm workloads out =
  let reps = 5 in
  prerr_endline "[bench] vm: reference vs untuned vs tuned over the registry...";
  let check_identical name what (a : Vm.Machine.outcome)
      (b : Vm.Machine.outcome) =
    if
      not
        (same_ret a.Vm.Machine.ret b.Vm.Machine.ret
        && a.Vm.Machine.native_cycles = b.Vm.Machine.native_cycles
        && a.Vm.Machine.vm_cycles = b.Vm.Machine.vm_cycles
        && Vm.Profile.to_list a.Vm.Machine.profile
           = Vm.Profile.to_list b.Vm.Machine.profile)
    then fail "vm configs disagree on %s (%s)" name what
  in
  let time_once compiled d engine tuning =
    Gc.major ();
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let out = W.Workload.run ~engine ~tuning compiled d in
    let dt = Unix.gettimeofday () -. t0 in
    (out, dt, Gc.minor_words () -. w0)
  in
  let configs =
    [
      ("reference", Vm.Machine.Reference, Vm.Machine.untuned);
      ("untuned", Vm.Machine.Threaded, Vm.Machine.untuned);
      ("tuned", Vm.Machine.Threaded, Vm.Machine.default_tuning);
    ]
  in
  let rows =
    List.map
      (fun name ->
        let w = Cli.load_workload name in
        let compiled = W.Workload.compile w in
        let d = List.hd w.W.Workload.datasets in
        let best = Array.make (List.length configs) infinity in
        let words = Array.make (List.length configs) 0.0 in
        let outs = Array.make (List.length configs) None in
        for _ = 1 to reps do
          List.iteri
            (fun i (_, engine, tuning) ->
              let o, dt, w = time_once compiled d engine tuning in
              if dt < best.(i) then best.(i) <- dt;
              (* allocation is deterministic: every rep measures the
                 same count, the last one is kept *)
              words.(i) <- w;
              outs.(i) <- Some o)
            configs
        done;
        let out i = Option.get outs.(i) in
        check_identical name "reference vs untuned" (out 0) (out 1);
        check_identical name "untuned vs tuned" (out 1) (out 2);
        let instrs =
          Int64.to_float (out 0).Vm.Machine.profile.Vm.Profile.executed_instrs
        in
        let ips i = instrs /. best.(i) in
        let wpi = Array.map (fun w -> w /. instrs) words in
        Printf.eprintf
          "[bench] vm: %-14s %10.0f instrs  ref %7.2f  untuned %7.2f  tuned \
           %7.2f Mi/s  (tuned/untuned %.2fx, tuned %.3f words/instr)\n\
           %!"
          name instrs (ips 0 /. 1e6) (ips 1 /. 1e6) (ips 2 /. 1e6)
          (ips 2 /. ips 1) wpi.(2);
        (name, instrs, best, wpi))
      workloads
  in
  (* times are seconds, so the speedup of config i over config j is
     b.(j) /. b.(i) *)
  let geomean ratio =
    exp
      (List.fold_left (fun acc (_, _, b, _) -> acc +. log (ratio b)) 0.0 rows
      /. float_of_int (List.length rows))
  in
  let g_untuned_ref = geomean (fun b -> b.(0) /. b.(1)) in
  let g_tuned_untuned = geomean (fun b -> b.(1) /. b.(2)) in
  let g_tuned_ref = geomean (fun b -> b.(0) /. b.(2)) in
  let words x = J.Fixed (3, x) in
  let tuning = Vm.Machine.default_tuning in
  J.write out
    (J.Obj
       [
         ("configs", strings (List.map (fun (l, _, _) -> l) configs));
         ("reps", J.Int reps);
         ( "tuning",
           J.Obj
             [
               ("link", J.Bool tuning.Vm.Machine.link);
               ("fuse", J.Bool tuning.Vm.Machine.fuse);
               ("ci_native", J.Bool tuning.Vm.Machine.ci_native);
               ("max_linked_blocks", J.Int tuning.Vm.Machine.max_linked_blocks);
             ] );
         ( "workloads",
           J.List
             (List.map
                (fun (name, instrs, b, wpi) ->
                  J.Obj
                    [
                      ("name", J.String name);
                      ("dynamic_instrs", count instrs);
                      ("reference_seconds", seconds b.(0));
                      ("untuned_seconds", seconds b.(1));
                      ("tuned_seconds", seconds b.(2));
                      ("reference_ips", count (instrs /. b.(0)));
                      ("untuned_ips", count (instrs /. b.(1)));
                      ("tuned_ips", count (instrs /. b.(2)));
                      ("tuned_over_untuned", ratio (b.(1) /. b.(2)));
                      ("tuned_over_reference", ratio (b.(0) /. b.(2)));
                      ("reference_words_per_instr", words wpi.(0));
                      ("untuned_words_per_instr", words wpi.(1));
                      ("tuned_words_per_instr", words wpi.(2));
                    ])
                rows) );
         ( "tuned_below_untuned",
           J.List
             (List.filter_map
                (fun (name, _, b, _) ->
                  if b.(1) /. b.(2) < 1.0 then
                    Some
                      (J.Obj
                         [
                           ("name", J.String name);
                           ("ratio", ratio (b.(1) /. b.(2)));
                         ])
                  else None)
                rows) );
         ( "geomean",
           J.Obj
             [
               ("untuned_over_reference", ratio g_untuned_ref);
               ("tuned_over_untuned", ratio g_tuned_untuned);
               ("tuned_over_reference", ratio g_tuned_ref);
             ] );
         ("baseline", vm_baseline);
         ( "gate",
           J.Obj
             [
               ("floor", ratio vm_gate);
               ("passed", J.Bool (g_tuned_untuned >= vm_gate));
             ] );
       ]);
  Printf.eprintf
    "[bench] vm: wrote %s (geomean: untuned/ref %.2fx, tuned/untuned %.2fx, \
     tuned/ref %.2fx)\n\
     %!"
    out g_untuned_ref g_tuned_untuned g_tuned_ref;
  if g_tuned_untuned < vm_gate then
    fail "vm: tuned/untuned geomean %.4f is below the gate %.4f"
      g_tuned_untuned vm_gate

(* ------------------------------------------------------------------ *)
(* Persistent-store report (BENCH_store.json)                          *)
(* ------------------------------------------------------------------ *)

(* Cold-vs-warm timing of the disk store backend.  The cold half
   evaluates a couple of workloads against a fresh on-disk store and
   must compute every stage; the warm half builds a NEW artifact
   front-end over the same root — a simulated process restart, so every
   hit really crosses the serialization boundary — and must recompute
   zero stages while producing a byte-identical report projection (the
   deterministic tables; measured wall clocks are excluded by
   construction).  Per-stage serialized sizes come from the segment
   indexes.  Then one profile record is damaged in place: the next run
   must recompute exactly it, and the run after that nothing.  Serial
   on purpose, like the pipeline report: exact counter values are only
   meaningful at jobs = 1. *)
let store out =
  let apps = [ "sor"; "fft" ] in
  prerr_endline "[bench] store: cold vs warm against a disk-backed store...";
  with_temp_dir "jitise-bench-store" @@ fun root ->
  let run_once () =
    (* A fresh spec per run: [with_store_dir] builds a new in-process
       front-end each time, so the warm run's hits all come through the
       disk backend, exactly as after a process restart. *)
    let spec = Core.Spec.with_store_dir root Core.Spec.default in
    let t0 = Unix.gettimeofday () in
    let results =
      List.map
        (fun name ->
          Core.Experiment.evaluate ~spec (Lazy.force Cli.db)
            (Cli.load_workload name))
        apps
    in
    let wall = Unix.gettimeofday () -. t0 in
    (spec, results, Core.Pipeline.summarize (records_of results), wall)
  in
  let _, cold_results, cold_sum, cold_wall = run_once () in
  List.iter
    (fun (s : Core.Pipeline.summary) ->
      if s.Core.Pipeline.sum_computed = 0 then
        fail "store: cold run computed no %s stage (store not empty?)"
          s.Core.Pipeline.sum_stage)
    cold_sum;
  let warm_spec, warm_results, warm_sum, warm_wall = run_once () in
  let proj rs =
    Core.Tables.render_table1 (Core.Tables.table1 rs)
    ^ Core.Tables.render_table3 (Core.Tables.table3 rs)
  in
  if proj cold_results <> proj warm_results then
    fail "store: warm report differs from the cold report";
  let computed sum =
    List.fold_left
      (fun acc (s : Core.Pipeline.summary) -> acc + s.Core.Pipeline.sum_computed)
      0 sum
  in
  let warm_computed = computed warm_sum in
  if warm_computed <> 0 then
    fail "store: warm run recomputed %d stage executions" warm_computed;
  let entries =
    match warm_spec.Core.Spec.stage_cache with
    | Some store -> U.Artifact.backend_entries store
    | None -> []
  in
  let total_bytes =
    List.fold_left (fun acc (_, _, bytes) -> acc + bytes) 0 entries
  in
  (* Damage one profile record in place: the next run must recompute
     exactly that entry, and its put heals the key for the run after. *)
  let digest =
    U.Digest.to_hex
      (Core.Experiment.workload_digest (Cli.load_workload (List.hd apps)))
  in
  (match U.Store_disk.locate ~root ~stage:"profile" ~digest with
  | None -> fail "store: no profile record for %s" (List.hd apps)
  | Some (path, off, len) ->
      let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let i = off + len - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b));
  List.iter
    (fun (what, expect) ->
      let _, results, sum, _ = run_once () in
      if proj results <> proj cold_results then
        fail "store: %s report differs from the cold report" what;
      if computed sum <> expect then
        fail "store: %s run recomputed %d stage executions, expected %d" what
          (computed sum) expect)
    [ ("damaged", 1); ("healed", 0) ];
  let half wall summaries =
    J.Obj
      [
        ("wall_seconds", seconds wall);
        ( "stages",
          J.List (List.map (fun s -> J.Obj (stage_counts s)) summaries) );
      ]
  in
  J.write out
    (J.Obj
       [
         ( "sweep",
           J.Obj
             [
               ("apps", strings apps);
               ("jobs", J.Int 1);
               ("backend", J.String "disk");
             ] );
         ("cold", half cold_wall cold_sum);
         ("warm", half warm_wall warm_sum);
         ( "warm_speedup",
           ratio (if warm_wall > 0.0 then cold_wall /. warm_wall else 0.0) );
         ( "serialized",
           J.List
             (List.map
                (fun (stage, n, bytes) ->
                  J.Obj
                    [
                      ("stage", J.String stage);
                      ("entries", J.Int n);
                      ("bytes", J.Int bytes);
                    ])
                entries) );
         ("serialized_total_bytes", J.Int total_bytes);
         ("reports_identical", J.Bool true);
       ]);
  Printf.eprintf
    "[bench] store: wrote %s (cold %.3fs, warm %.3fs, %d bytes on disk)\n%!"
    out cold_wall warm_wall total_bytes

(* ------------------------------------------------------------------ *)
(* Online adaptive specialization (BENCH_online.json)                  *)
(* ------------------------------------------------------------------ *)

(* The closed-loop controller over the phase-shifting workloads:
   adaptive vs oracle-offline vs no-specialization cycle totals
   (reconfiguration stalls included) plus the fabric and CAD counters.
   Two contracts are asserted rather than just reported: the loop
   replays byte-identically under jobs:4 (it is a sequential
   simulated-time computation; jobs only parallelizes the staged
   preparation), and the adaptive controller beats static whole-run
   specialization on at least one workload — the reason the online
   loop exists. *)
let online out =
  let module JM = Core.Jit_manager in
  prerr_endline
    "[bench] online: adaptive vs oracle vs nospec over phased workloads...";
  let run_online jobs w =
    JM.online ~spec:(Cli.online_spec ~jobs ()) (Lazy.force Cli.db) w
  in
  let results =
    List.map
      (fun name ->
        let w = Cli.load_workload name in
        let o = run_online 1 w in
        let proj r = Format.asprintf "%a" JM.pp_online r in
        if proj o <> proj (run_online 4 w) then
          fail "online: %s: jobs:4 replay diverged from the serial run" name;
        if
          not
            (same_ret o.JM.o_adaptive.JM.run_ret o.JM.o_oracle.JM.run_ret
            && same_ret o.JM.o_adaptive.JM.run_ret o.JM.o_nospec.JM.run_ret)
        then fail "online: %s: runs disagree on the program result" name;
        Printf.eprintf
          "[bench] online: %-14s adaptive %12.0f  oracle %12.0f  nospec \
           %12.0f  (cad %d/%d/%d)\n\
           %!"
          name o.JM.o_adaptive.JM.run_cycles o.JM.o_oracle.JM.run_cycles
          o.JM.o_nospec.JM.run_cycles o.JM.o_cad_launched o.JM.o_cad_completed
          o.JM.o_cad_cancelled;
        o)
      W.Registry.phased_names
  in
  if
    not
      (List.exists
         (fun (o : JM.online_report) ->
           o.JM.o_adaptive.JM.run_cycles < o.JM.o_oracle.JM.run_cycles)
         results)
  then fail "online: adaptive never beat the oracle-offline baseline";
  let cfg = Core.Spec.default_online in
  let run (r : JM.online_run) =
    J.Obj
      [
        ("cycles", count r.JM.run_cycles);
        ("vm_cycles", count r.JM.run_vm_cycles);
        ("stall_cycles", count r.JM.run_stall_cycles);
        ("reconfigurations", J.Int r.JM.run_reconfigurations);
        ("evictions", J.Int r.JM.run_evictions);
        ("swaps", J.Int r.JM.run_swaps);
      ]
  in
  J.write out
    (J.Obj
       [
         ( "config",
           J.Obj
             [
               ("slots", J.Int cfg.Core.Spec.slots);
               ( "policy",
                 J.String (Jitise_woolcano.Asip.policy_name cfg.Core.Spec.evict)
               );
               ("window", J.Int cfg.Core.Spec.window);
               ("decay", J.Float cfg.Core.Spec.decay);
               ("latency_scale", J.Float cfg.Core.Spec.latency_scale);
               ("prune", J.String (Ise.Prune.name Ise.Prune.none));
             ] );
         ( "workloads",
           J.List
             (List.map
                (fun (o : JM.online_report) ->
                  let cycles = o.JM.o_adaptive.JM.run_cycles in
                  J.Obj
                    [
                      ("name", J.String o.JM.o_app);
                      ("dataset", J.String o.JM.o_dataset);
                      ("cis", J.Int o.JM.o_cis);
                      ("adaptive", run o.JM.o_adaptive);
                      ("oracle", run o.JM.o_oracle);
                      ("nospec", run o.JM.o_nospec);
                      ("windows", J.Int o.JM.o_windows);
                      ("phase_exits", J.Int o.JM.o_phase_exits);
                      ("cad_launched", J.Int o.JM.o_cad_launched);
                      ("cad_completed", J.Int o.JM.o_cad_completed);
                      ("cad_cancelled", J.Int o.JM.o_cad_cancelled);
                      ( "adaptive_vs_oracle",
                        ratio (cycles /. o.JM.o_oracle.JM.run_cycles) );
                      ( "adaptive_vs_nospec",
                        ratio (cycles /. o.JM.o_nospec.JM.run_cycles) );
                    ])
                results) );
         ("adaptive_beats_oracle", J.Bool true);
         ("replay_identical", J.Bool true);
       ]);
  Printf.eprintf "[bench] online: wrote %s (%d workloads)\n%!" out
    (List.length results)

(* ------------------------------------------------------------------ *)
(* Chaos campaign (BENCH_chaos.json)                                   *)
(* ------------------------------------------------------------------ *)

let chaos_base_seed = 4207

(* Storm randomized fault mixes over registry workloads and assert the
   supervision contract: every run completes (no hangs — wall-clock
   protection is the CI timeout), no corrupt artifact is ever accepted,
   every degradation is flagged and waste-billed, and each seed replays
   byte-identically — cold vs warm against the same store root, and
   serial vs [jobs:4] against a fresh one. *)
let chaos seeds out =
  (* Small-to-medium workloads keep a multi-seed campaign tractable;
     together they exercise every pipeline stage and both fan-out
     shapes (few and many selected candidates). *)
  let apps = [ "adpcm"; "sor"; "fft"; "183.equake"; "429.mcf"; "whetstone" ] in
  let violations = ref [] in
  let violate seed fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench: chaos: seed %d: %s\n%!" seed msg;
        violations := (seed, msg) :: !violations)
      fmt
  in
  (* Everything deterministic a faulted run decides, rendered as one
     string: replay passes must agree byte for byte.  Wall-measured
     fields (search wall clock) are excluded by construction. *)
  let projection outcome =
    let b = Buffer.create 1024 in
    (match outcome with
    | Error (f : U.Supervisor.failure) ->
        Buffer.add_string b
          (Printf.sprintf "run-failed %s %s %d %.6f\n" f.U.Supervisor.f_site
             (U.Supervisor.error_name f.U.Supervisor.f_error)
             f.U.Supervisor.f_attempts f.U.Supervisor.f_wasted_seconds)
    | Ok (r : Core.Experiment.app_result) ->
        let rep = r.Core.Experiment.report in
        Buffer.add_string b
          (Printf.sprintf "ratio %.6f/%.6f sum %.6f attempts %d/%d waste %.6f\n"
             rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio
             rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio
             rep.Core.Asip_sp.sum_seconds rep.Core.Asip_sp.total_attempts
             rep.Core.Asip_sp.failed_attempts rep.Core.Asip_sp.wasted_seconds);
        Buffer.add_string b
          (Printf.sprintf "degraded %d stage-failed %d deadline %b\n"
             rep.Core.Asip_sp.degraded rep.Core.Asip_sp.stage_failures
             rep.Core.Asip_sp.deadline_exceeded);
        List.iter
          (fun (c : Core.Asip_sp.candidate_result) ->
            Buffer.add_string b
              (Printf.sprintf "cand %s total %.6f att %d/%d waste %.6f %s\n"
                 c.Core.Asip_sp.scored.Ise.Select.candidate
                   .Ise.Candidate.signature
                 c.Core.Asip_sp.total_seconds c.Core.Asip_sp.attempts
                 c.Core.Asip_sp.failed_attempts c.Core.Asip_sp.wasted_seconds
                 (match c.Core.Asip_sp.outcome with
                 | Core.Asip_sp.Implemented -> "implemented"
                 | Core.Asip_sp.Promoted { from; _ } ->
                     "promoted-from "
                     ^ from.Ise.Select.candidate.Ise.Candidate.signature)))
          rep.Core.Asip_sp.candidates;
        List.iter
          (fun (d : Core.Asip_sp.dropped) ->
            Buffer.add_string b
              (Printf.sprintf "drop %s %s att %d waste %.6f at %d\n"
                 d.Core.Asip_sp.drop_scored.Ise.Select.candidate
                   .Ise.Candidate.signature
                 (Core.Asip_sp.drop_reason_name d.Core.Asip_sp.drop_reason)
                 d.Core.Asip_sp.drop_attempts
                 d.Core.Asip_sp.drop_wasted_seconds
                 d.Core.Asip_sp.drop_at_index))
          rep.Core.Asip_sp.dropped);
    Buffer.contents b
  in
  let stage_deadline = 60.0 in
  let policy =
    {
      U.Supervisor.default_policy with
      U.Supervisor.stage_deadline_seconds = Some stage_deadline;
    }
  in
  let evaluate_one ~seed ~chaos ~jobs ~root name =
    let spec =
      Core.Spec.default |> Core.Spec.with_jobs jobs
      |> Core.Spec.with_supervisor policy
      |> Core.Spec.with_chaos chaos
      |> Core.Spec.with_store_dir root
      |> Core.Spec.with_faults (Cad.Faults.defaults ~seed)
      |> Core.Spec.with_retry U.Retry.default
    in
    match
      Core.Experiment.evaluate ~spec (Lazy.force Cli.db) (Cli.load_workload name)
    with
    | r -> Ok r
    | exception U.Supervisor.Stage_failed f -> Error f
  in
  let check_invariants seed name outcome =
    match outcome with
    | Error _ -> ()
    | Ok (r : Core.Experiment.app_result) ->
        let rep = r.Core.Experiment.report in
        let n_sel = List.length rep.Core.Asip_sp.selection in
        let n_cand = List.length rep.Core.Asip_sp.candidates in
        let n_drop = List.length rep.Core.Asip_sp.dropped in
        if n_cand + n_drop <> n_sel then
          violate seed "%s: %d candidates + %d dropped <> %d selected" name
            n_cand n_drop n_sel;
        List.iter
          (fun (c : Core.Asip_sp.candidate_result) ->
            let run = c.Core.Asip_sp.run in
            if not (Cad.Bitstream.well_formed run.Cad.Flow.bitstream) then
              violate seed "%s: accepted candidate %s has a corrupt bitstream"
                name
                c.Core.Asip_sp.scored.Ise.Select.candidate
                  .Ise.Candidate.signature;
            if run.Cad.Flow.syntax_problems <> [] then
              violate seed "%s: accepted candidate carries syntax problems"
                name;
            if c.Core.Asip_sp.wasted_seconds < 0.0 then
              violate seed "%s: negative waste on a candidate" name)
          rep.Core.Asip_sp.candidates;
        List.iter
          (fun (d : Core.Asip_sp.dropped) ->
            if d.Core.Asip_sp.drop_wasted_seconds < 0.0 then
              violate seed "%s: negative waste on a drop" name;
            if
              d.Core.Asip_sp.drop_reason = Core.Asip_sp.Stage_failure
              && d.Core.Asip_sp.drop_failure <> None
            then
              violate seed "%s: stage-failure drop carries a CAD failure" name)
          rep.Core.Asip_sp.dropped;
        let flagged =
          List.length
            (List.filter
               (fun (d : Core.Asip_sp.dropped) ->
                 d.Core.Asip_sp.drop_reason = Core.Asip_sp.Stage_failure)
               rep.Core.Asip_sp.dropped)
        in
        if flagged <> rep.Core.Asip_sp.stage_failures then
          violate seed "%s: stage_failures %d but %d flagged drops" name
            rep.Core.Asip_sp.stage_failures flagged
  in
  let run_seed i =
    let seed = chaos_base_seed + i in
    let chaos = U.Chaos.storm ~seed in
    Printf.eprintf "[bench] chaos: seed %d (%d/%d)...\n%!" seed (i + 1) seeds;
    let prefix = Printf.sprintf "jitise-chaos-%d-" seed in
    with_temp_dir prefix @@ fun root1 ->
    with_temp_dir prefix @@ fun root2 ->
    let pass ~jobs ~root =
      List.map (fun n -> evaluate_one ~seed ~chaos ~jobs ~root n) apps
    in
    let cold = pass ~jobs:1 ~root:root1 in
    (* Warm replay over the same (possibly torn) store: corrupt entries
       must degrade to recomputation, never change the outcome. *)
    let warm = pass ~jobs:1 ~root:root1 in
    (* Parallel replay against a fresh root: scheduling independence. *)
    let par = pass ~jobs:4 ~root:root2 in
    List.iteri
      (fun j name ->
        let c = List.nth cold j in
        check_invariants seed name c;
        let pc = projection c in
        if pc <> projection (List.nth warm j) then
          violate seed "%s: warm replay diverged from the cold run" name;
        if pc <> projection (List.nth par j) then
          violate seed "%s: jobs:4 replay diverged from the serial run" name)
      apps;
    let orphans = U.Store_disk.sweep_orphans ~root:root1 in
    if orphans <> 0 then
      violate seed "%d orphan temp files survived the store's own sweep"
        orphans;
    (* Every run, failed ones included, commits its segment. *)
    let open_segments =
      U.Store_disk.temp_segments ~root:root1 + U.Store_disk.temp_segments ~root:root2
    in
    if open_segments <> 0 then
      violate seed "%d store segments were left uncommitted" open_segments;
    let reports =
      List.filter_map
        (function Ok r -> Some r.Core.Experiment.report | Error _ -> None)
        cold
    in
    let sum f = List.fold_left (fun acc rep -> acc + f rep) 0 reports in
    let wasted =
      List.fold_left
        (fun acc -> function
          | Ok r -> acc +. r.Core.Experiment.report.Core.Asip_sp.wasted_seconds
          | Error (f : U.Supervisor.failure) ->
              acc +. f.U.Supervisor.f_wasted_seconds)
        0.0 cold
    in
    J.Obj
      [
        ("seed", J.Int seed);
        ("run_failures", J.Int (List.length cold - List.length reports));
        ("stage_failures", J.Int (sum (fun r -> r.Core.Asip_sp.stage_failures)));
        ("promoted", J.Int (sum (fun r -> r.Core.Asip_sp.degraded)));
        ("dropped", J.Int (sum (fun r -> List.length r.Core.Asip_sp.dropped)));
        ( "failed_attempts",
          J.Int (sum (fun r -> r.Core.Asip_sp.failed_attempts)) );
        ("wasted_seconds", J.Fixed (3, wasted));
        ( "replay_identical",
          J.Bool (not (List.exists (fun (s, _) -> s = seed) !violations)) );
      ]
  in
  let t0 = Unix.gettimeofday () in
  let per_seed = List.init seeds run_seed in
  let wall = Unix.gettimeofday () -. t0 in
  let n_violations = List.length !violations in
  J.write out
    (J.Obj
       [
         ( "campaign",
           J.Obj
             [
               ("seeds", J.Int seeds);
               ("base_seed", J.Int chaos_base_seed);
               ("apps", strings apps);
               ("stage_deadline_seconds", J.Fixed (1, stage_deadline));
             ] );
         ("seeds", J.List per_seed);
         ("wall_seconds", J.Fixed (3, wall));
         ("violations", J.Int n_violations);
         ("ok", J.Bool (n_violations = 0));
       ]);
  Printf.eprintf "[bench] chaos: wrote %s (%d seeds, %d violations, %.1fs)\n%!"
    out seeds n_violations wall;
  if n_violations > 0 then fail "chaos: %d violations" n_violations

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let checked run out =
  try run out
  with Violation msg ->
    prerr_endline ("bench: " ^ msg);
    exit 1

let workloads_conv =
  let known = W.Registry.names @ W.Registry.phased_names in
  let parse csv =
    let names = String.split_on_char ',' csv in
    match List.find_opt (fun n -> not (List.mem n known)) names with
    | None -> Ok names
    | Some bad ->
        Error
          (`Msg
             (Printf.sprintf "unknown workload %S (have: %s)" bad
                (String.concat ", " known)))
  in
  Arg.conv
    (parse, fun ppf l -> Format.pp_print_string ppf (String.concat "," l))

let workloads_arg =
  Arg.(
    value
    & opt workloads_conv W.Registry.names
    & info [ "workloads" ] ~docv:"CSV"
        ~doc:"Comma-separated workloads to time (default: the registry).")

let seeds_arg =
  Arg.(
    value & opt Cli.positive_int 10
    & info [ "seeds" ] ~docv:"N"
        ~doc:
          (Printf.sprintf "Chaos seeds to storm, from %d upward."
             chaos_base_seed))

let report mode doc run =
  let out =
    Arg.(
      value
      & opt string ("BENCH_" ^ mode ^ ".json")
      & info [ "o" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")
  in
  Cmd.v (Cmd.info mode ~doc) Term.(const checked $ run $ out)

let cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Write the machine-readable BENCH_*.json reports, or time the \
             pipeline stages with Bechamel")
    [
      report "vm"
        "Reference vs untuned vs tuned VM speed over the registry; fails on \
         an outcome mismatch or when tuned is slower than untuned (geomean)"
        Term.(const vm $ workloads_arg);
      report "pipeline"
        "Stage-cache hits across a selection-knob sweep"
        (Term.const pipeline);
      report "store"
        "Cold vs warm run against a fresh disk store; fails unless the cold \
         run computes every stage and the warm run recomputes none with an \
         identical report"
        (Term.const store);
      report "online"
        "Adaptive vs oracle vs no-specialization on the phased workloads; \
         fails on a jobs:4 replay divergence or when adaptive never beats \
         the oracle"
        (Term.const online);
      report "chaos"
        "Chaos campaign: faulted runs must replay identically and never \
         accept a corrupt artifact"
        Term.(const chaos $ seeds_arg);
      Cmd.v
        (Cmd.info "micro"
           ~doc:"Bechamel microbenchmarks, one per table and figure plus \
                 ablations")
        Term.(const micro $ const ());
    ]
