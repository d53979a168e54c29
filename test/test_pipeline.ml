(* The staged pipeline engine: content-addressed artifact store wired
   through the whole Experiment/Asip_sp chain.

   The acceptance bar of the refactor, verified here:

   - golden: with a stage cache, reports are identical (up to the
     measured wall-clock fields) to the store-less engine — in serial,
     jobs:4 and faults-on modes, on pinned seeds;
   - incremental: a sweep that varies only the selection knobs
     re-executes ZERO compile/profile/prune/MAXMISO stages — everything
     upstream of the changed knob is served from the store;
   - eviction-free determinism: re-evaluating against a warm store
     computes nothing and reproduces the same report. *)

module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module An = Jitise_analysis
module Core = Jitise_core
module U = Jitise_util

let find_workload name = Option.get (W.Registry.find name)

(* Two small embedded workloads that share a candidate signature, so
   the bitstream cache's cross-app path stays exercised alongside the
   stage cache. *)
let apps = [ "fft"; "sor" ]

let eval_apps ~spec db =
  List.map (fun n -> Core.Experiment.evaluate ~spec db (find_workload n)) apps

(* Same projection idea as test_integration: everything deterministic
   by construction, i.e. the report minus measured wall clocks and
   minus the stage-record log itself. *)
type candidate_projection = {
  p_signature : string;
  p_c2v : float;
  p_total : float;
  p_cache_hit : Cad.Cache.hit option;
  p_attempts : int;
  p_wasted : float;
}

type app_projection = {
  p_app : string;
  p_selection : string list;
  p_candidates : candidate_projection list;
  p_dropped : int;
  p_const : float;
  p_map : float;
  p_par : float;
  p_sum : float;
  p_attempts_total : int;
  p_failed : int;
  p_degraded : int;
  p_ratio : float;
  p_ratio_max : float;
  p_break_even : An.Breakeven.result;
}

let project (r : Core.Experiment.app_result) : app_projection =
  let rep = r.Core.Experiment.report in
  let signature (s : Ise.Select.scored) =
    s.Ise.Select.candidate.Ise.Candidate.signature
  in
  {
    p_app = r.Core.Experiment.workload.W.Workload.name;
    p_selection = List.map signature rep.Core.Asip_sp.selection;
    p_candidates =
      List.map
        (fun (c : Core.Asip_sp.candidate_result) ->
          {
            p_signature = signature c.Core.Asip_sp.scored;
            p_c2v = c.Core.Asip_sp.c2v_seconds;
            p_total = c.Core.Asip_sp.total_seconds;
            p_cache_hit = c.Core.Asip_sp.cache_hit;
            p_attempts = c.Core.Asip_sp.attempts;
            p_wasted = c.Core.Asip_sp.wasted_seconds;
          })
        rep.Core.Asip_sp.candidates;
    p_dropped = List.length rep.Core.Asip_sp.dropped;
    p_const = rep.Core.Asip_sp.const_seconds;
    p_map = rep.Core.Asip_sp.map_seconds;
    p_par = rep.Core.Asip_sp.par_seconds;
    p_sum = rep.Core.Asip_sp.sum_seconds;
    p_attempts_total = rep.Core.Asip_sp.total_attempts;
    p_failed = rep.Core.Asip_sp.failed_attempts;
    p_degraded = rep.Core.Asip_sp.degraded;
    p_ratio = rep.Core.Asip_sp.asip_ratio.Ise.Speedup.ratio;
    p_ratio_max = rep.Core.Asip_sp.asip_ratio_max.Ise.Speedup.ratio;
    p_break_even = r.Core.Experiment.break_even;
  }

let check_identical what a b =
  List.iter2
    (fun x y ->
      let x = project x and y = project y in
      Alcotest.(check bool) (x.p_app ^ " " ^ what) true (x = y))
    a b

let records (r : Core.Experiment.app_result) =
  r.Core.Experiment.report.Core.Asip_sp.stage_records

(* CI pins the fault seed via JITISE_FAULT_SEED (same convention as
   test_integration); the assertions hold for any seed. *)
let fault_seed =
  match Sys.getenv_opt "JITISE_FAULT_SEED" with
  | Some s -> int_of_string s
  | None -> 20110516

(* ------------------------------------------------------------------ *)
(* Golden: staged engine = store-less engine, three modes              *)
(* ------------------------------------------------------------------ *)

let test_golden_serial () =
  let db = Pp.Database.create () in
  let plain = eval_apps ~spec:Core.Spec.default db in
  let store = U.Artifact.create () in
  let spec = Core.Spec.with_stage_cache store Core.Spec.default in
  let staged = eval_apps ~spec db in
  check_identical "report identical with stage cache (serial)" plain staged;
  (* Eviction-free determinism: a warm store recomputes nothing and
     changes nothing. *)
  let again = eval_apps ~spec db in
  check_identical "report identical against a warm store" staged again;
  List.iter
    (fun r ->
      List.iter
        (fun (s : Core.Pipeline.summary) ->
          Alcotest.(check int)
            ((project r).p_app ^ ": warm " ^ s.Core.Pipeline.sum_stage
           ^ " computes nothing")
            0 s.Core.Pipeline.sum_computed)
        (Core.Pipeline.summarize (records r)))
    again

let test_golden_jobs4 () =
  let db = Pp.Database.create () in
  let plain = eval_apps ~spec:Core.Spec.default db in
  let spec =
    Core.Spec.default |> Core.Spec.with_jobs 4
    |> Core.Spec.with_stage_cache (U.Artifact.create ())
  in
  let staged = eval_apps ~spec db in
  check_identical "report identical with stage cache (jobs:4)" plain staged

let test_golden_faults () =
  let with_faults spec =
    spec
    |> Core.Spec.with_faults (Cad.Faults.defaults ~seed:fault_seed)
    |> Core.Spec.with_retry
         (U.Retry.with_max_attempts 3 U.Retry.default)
  in
  let db = Pp.Database.create () in
  let plain = eval_apps ~spec:(with_faults Core.Spec.default) db in
  let serial_spec =
    with_faults
      (Core.Spec.with_stage_cache (U.Artifact.create ()) Core.Spec.default)
  in
  let staged = eval_apps ~spec:serial_spec db in
  check_identical "faulted report identical with stage cache" plain staged;
  let parallel_spec =
    with_faults
      (Core.Spec.default |> Core.Spec.with_jobs 4
      |> Core.Spec.with_stage_cache (U.Artifact.create ()))
  in
  let parallel = eval_apps ~spec:parallel_spec db in
  check_identical "faulted report identical with stage cache (jobs:4)" plain
    parallel

(* ------------------------------------------------------------------ *)
(* Golden: the disk backend changes nothing but persistence            *)
(* ------------------------------------------------------------------ *)

let tmp_root () =
  let path = Filename.temp_file "jitise-pipeline-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun name ->
        let p = Filename.concat dir name in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_root f =
  let root = tmp_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let total_computed rs =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (s : Core.Pipeline.summary) ->
          acc + s.Core.Pipeline.sum_computed)
        acc
        (Core.Pipeline.summarize (records r)))
    0 rs

let test_golden_disk_serial () =
  with_root (fun root ->
      let db = Pp.Database.create () in
      let plain = eval_apps ~spec:Core.Spec.default db in
      let cold = eval_apps ~spec:(Core.Spec.with_store_dir root Core.Spec.default) db in
      check_identical "report identical with disk store (cold)" plain cold;
      (* The warm-restart contract: a NEW spec over the same root is a
         fresh process as far as the store is concerned — every hit
         crosses the serialization boundary — and must recompute ZERO
         stages while reproducing the report. *)
      let warm = eval_apps ~spec:(Core.Spec.with_store_dir root Core.Spec.default) db in
      check_identical "report identical after warm restart" cold warm;
      Alcotest.(check int) "warm restart computes nothing" 0
        (total_computed warm))

let test_golden_disk_jobs4 () =
  with_root (fun root ->
      let db = Pp.Database.create () in
      let plain = eval_apps ~spec:Core.Spec.default db in
      let spec dir =
        Core.Spec.default |> Core.Spec.with_jobs 4
        |> Core.Spec.with_store_dir dir
      in
      let cold = eval_apps ~spec:(spec root) db in
      check_identical "report identical with disk store (jobs:4)" plain cold;
      let warm = eval_apps ~spec:(spec root) db in
      check_identical "report identical after warm restart (jobs:4)" plain
        warm)

let test_golden_disk_faults () =
  with_root (fun root ->
      let with_faults spec =
        spec
        |> Core.Spec.with_faults (Cad.Faults.defaults ~seed:fault_seed)
        |> Core.Spec.with_retry (U.Retry.with_max_attempts 3 U.Retry.default)
      in
      let db = Pp.Database.create () in
      let plain = eval_apps ~spec:(with_faults Core.Spec.default) db in
      let spec () = with_faults (Core.Spec.with_store_dir root Core.Spec.default) in
      let cold = eval_apps ~spec:(spec ()) db in
      check_identical "faulted report identical with disk store" plain cold;
      let warm = eval_apps ~spec:(spec ()) db in
      check_identical "faulted report identical after warm restart" plain warm;
      Alcotest.(check int) "faulted warm restart computes nothing" 0
        (total_computed warm))

(* Corrupt and cut short store records under a warm root: the affected
   stages silently recompute, the report does not change, and the
   defective entries are the only extra computes. *)
let test_disk_corruption_degrades_to_recompute () =
  with_root (fun root ->
      let db = Pp.Database.create () in
      let spec () = Core.Spec.with_store_dir root Core.Spec.default in
      let cold = eval_apps ~spec:(spec ()) db in
      (* Damage every app's record of two stages in place, differently
         (both stages are keyed by the workload digest). *)
      let damage stage f =
        List.iter
          (fun name ->
            let digest =
              U.Digest.to_hex (Core.Experiment.workload_digest (find_workload name))
            in
            match U.Store_disk.locate ~root ~stage ~digest with
            | None -> Alcotest.failf "no %s record for %s" stage name
            | Some (path, off, len) ->
                let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
                f b off len;
                Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b))
          apps
      in
      (* Only the first third of the record survives. *)
      damage "compile" (fun b off len ->
          Bytes.fill b (off + (len / 3)) (len - (len / 3)) '\000');
      damage "coverage" (fun b off _ ->
          Bytes.blit_string "JTSEgarbage that is no envelope" 0 b off 31);
      let warm = eval_apps ~spec:(spec ()) db in
      check_identical "report identical despite corrupt entries" cold warm;
      List.iter
        (fun r ->
          let app = (project r).p_app in
          List.iter
            (fun stage ->
              Alcotest.(check int)
                (Printf.sprintf "%s recomputes damaged %s" app stage)
                1
                (Core.Pipeline.computed_of (records r) stage))
            [ "compile"; "coverage" ];
          List.iter
            (fun stage ->
              Alcotest.(check int)
                (Printf.sprintf "%s still hits intact %s" app stage)
                0
                (Core.Pipeline.computed_of (records r) stage))
            [ "profile"; "kernel"; "prune"; "maxmiso"; "select" ])
        warm;
      (* The recomputes append valid records after the damaged ones
         (first put wins only for *valid* entries), so a THIRD run hits
         every stage and reports the same. *)
      let third = eval_apps ~spec:(spec ()) db in
      check_identical "third run still identical" cold third;
      Alcotest.(check int) "third run computes nothing" 0
        (total_computed third))

(* ------------------------------------------------------------------ *)
(* Incremental recomputation                                           *)
(* ------------------------------------------------------------------ *)

(* The headline acceptance criterion: across sweep points that vary
   only the selection knobs, the stages upstream of selection are never
   re-executed — every one is a stage-cache hit.  Serial on purpose:
   hit/miss *counters* are scheduling-dependent under jobs > 1 (values
   are not), so exact-count assertions need the deterministic
   schedule. *)
let test_selection_sweep_zero_recompute () =
  let db = Pp.Database.create () in
  let store = U.Artifact.create () in
  let select_variants =
    [
      Ise.Select.default_config;
      { Ise.Select.default_config with Ise.Select.max_candidates = Some 2 };
      { Ise.Select.default_config with Ise.Select.max_candidates = Some 1 };
    ]
  in
  let upstream =
    [ "compile"; "profile"; "coverage"; "kernel"; "search-reference";
      "prune"; "maxmiso" ]
  in
  let runs =
    List.map
      (fun sel ->
        let spec =
          Core.Spec.default |> Core.Spec.with_select sel
          |> Core.Spec.with_stage_cache store
        in
        eval_apps ~spec db)
      select_variants
  in
  (* Sweep point 1 computes everything... *)
  List.iter
    (fun r ->
      List.iter
        (fun stage ->
          Alcotest.(check int)
            ((project r).p_app ^ " point 1 computes " ^ stage)
            1
            (Core.Pipeline.computed_of (records r) stage))
        upstream)
    (List.hd runs);
  (* ...and every later point re-executes ZERO upstream stages. *)
  List.iteri
    (fun i point ->
      List.iter
        (fun r ->
          let app = (project r).p_app in
          let recs = records r in
          List.iter
            (fun stage ->
              Alcotest.(check int)
                (Printf.sprintf "%s point %d recomputes no %s" app (i + 2)
                   stage)
                0
                (Core.Pipeline.computed_of recs stage);
              Alcotest.(check int)
                (Printf.sprintf "%s point %d hits %s" app (i + 2) stage)
                1
                (Core.Pipeline.hits_of recs stage))
            upstream;
          (* The changed knob is downstream: selection DOES recompute. *)
          Alcotest.(check int)
            (Printf.sprintf "%s point %d recomputes select" app (i + 2))
            1
            (Core.Pipeline.computed_of recs "select"))
        point)
    (List.tl runs);
  (* The store agrees: one computation per app for each upstream stage
     over the whole sweep, the rest hits. *)
  let stats = U.Artifact.stats store in
  let by name =
    List.find (fun s -> s.U.Artifact.stage = name) stats.U.Artifact.by_stage
  in
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (stage ^ " computed once per app over the sweep")
        (List.length apps)
        (by stage).U.Artifact.computed;
      Alcotest.(check int)
        (stage ^ " hit on every later point")
        (List.length apps * (List.length select_variants - 1))
        (by stage).U.Artifact.local_hits)
    upstream;
  Alcotest.(check bool) "the sweep saved stage executions" true
    (stats.U.Artifact.total_local_hits > 0)

(* ------------------------------------------------------------------ *)
(* Stage records as a consumable surface                               *)
(* ------------------------------------------------------------------ *)

let test_stage_records_cover_the_chain () =
  let db = Pp.Database.create () in
  let r =
    Core.Experiment.evaluate ~spec:Core.Spec.default db (find_workload "sor")
  in
  let stages =
    List.sort_uniq compare
      (List.map (fun x -> x.Core.Pipeline.rec_stage) (records r))
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("records include " ^ s) true (List.mem s stages))
    [ "compile"; "profile"; "coverage"; "kernel"; "search-reference";
      "prune"; "maxmiso"; "select"; "alternates"; "vhdl"; "implement" ];
  (* Without a store everything is computed, and the implemented
     candidates each ran vhdl + implement. *)
  let ncand =
    List.length r.Core.Experiment.report.Core.Asip_sp.selection
  in
  Alcotest.(check int) "one vhdl execution per selected candidate" ncand
    (Core.Pipeline.computed_of (records r) "vhdl");
  Alcotest.(check int) "no hits without a store" 0
    (List.length (records r)
    - List.fold_left
        (fun acc (s : Core.Pipeline.summary) ->
          acc + s.Core.Pipeline.sum_computed)
        0
        (Core.Pipeline.summarize (records r)));
  (* The timeline surfaces the per-stage search events. *)
  let t = Core.Jit_manager.timeline r.Core.Experiment.report in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        ("timeline has a search-stage event for " ^ stage)
        true
        (List.exists
           (fun (e : Core.Jit_manager.event) ->
             contains e.Core.Jit_manager.what ("search stage " ^ stage))
           t.Core.Jit_manager.events))
    [ "prune"; "maxmiso"; "select" ]

let () =
  Alcotest.run "pipeline-engine"
    [
      ( "golden",
        [
          Alcotest.test_case "serial" `Slow test_golden_serial;
          Alcotest.test_case "jobs:4" `Slow test_golden_jobs4;
          Alcotest.test_case "faults on" `Slow test_golden_faults;
        ] );
      ( "disk backend",
        [
          Alcotest.test_case "serial + warm restart" `Slow
            test_golden_disk_serial;
          Alcotest.test_case "jobs:4 + warm restart" `Slow
            test_golden_disk_jobs4;
          Alcotest.test_case "faults + warm restart" `Slow
            test_golden_disk_faults;
          Alcotest.test_case "corruption degrades to recompute" `Slow
            test_disk_corruption_degrades_to_recompute;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "selection sweep recomputes nothing upstream"
            `Slow test_selection_sweep_zero_recompute;
        ] );
      ( "records",
        [
          Alcotest.test_case "cover the chain" `Slow
            test_stage_records_cover_the_chain;
        ] );
    ]
