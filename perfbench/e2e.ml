(* End-to-end benchmark of the jitise pipeline.

   One process drives one workload through the library's public entry
   points and prints every metric by name and unit, then one JSON
   object as the last line of standard output:

     e2e.exe --workload W --seed N --seconds S --trace 0|1 \
       --oracle perfbench/oracle.tsv --work-dir DIR

   Workloads (README.md records why each exists and which layer it
   stresses):
   - registry-cold: Experiment.sweep over the 14 registry applications
     against an empty on-disk store;
   - dse-warm: the prune filter x selection cap grid, with CAD models
     dealt to its points by the seed; each point a sweep over the
     registry with a per-point shared bitstream cache, every pass
     starting from the same warm store;
   - online-phased: Experiment.evaluate then Jit_manager.online over
     the phase-shifting workloads, by nproc clients side by side.

   Every operation (one application specialized, or one online loop)
   is checked: VM outcomes against the Reference-engine oracle file,
   candidates + dropped = selection, well-formed bitstreams, equal
   online baselines, and identical reports across passes and between
   jobs 1 and jobs nproc.  A violation counts as a failed operation.

   With --trace 1 the passes alternate untraced and traced; the traced
   ones attribute host time to the lib/ layers from the stage spans
   the pipeline records through Spec.tracer, from spans this file
   records around Jit_manager.online and Experiment.sweep, and from a
   timing wrapper around the store's byte backend.

   Other modes: --write-oracle FILE regenerates the oracle with the
   Reference engine; --check-oracle FILE fails when FILE has drifted
   from a fresh regeneration. *)

module U = Jitise_util
module Ir = Jitise_ir
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module Core = Jitise_core
module Ex = Core.Experiment
module Asp = Core.Asip_sp
module JM = Core.Jit_manager
module Spec = Core.Spec
module Pl = Core.Pipeline

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* VM oracle                                                           *)
(* ------------------------------------------------------------------ *)

let value_text = function
  | None -> "void"
  | Some (Ir.Eval.VInt v) -> "i" ^ Int64.to_string v
  | Some (Ir.Eval.VFloat f) -> Printf.sprintf "f%h" f
  | Some (Ir.Eval.VPtr p) -> "p" ^ string_of_int p

(* One oracle row: return value, both clocks, dynamic instruction count
   and profile digest of one (application, dataset) run. *)
let oracle_line app (d : W.Workload.dataset) (o : Vm.Machine.outcome) =
  String.concat "\t"
    [
      app;
      d.W.Workload.label;
      string_of_int d.W.Workload.n;
      value_text o.Vm.Machine.ret;
      Printf.sprintf "%h" o.Vm.Machine.native_cycles;
      Printf.sprintf "%h" o.Vm.Machine.vm_cycles;
      Int64.to_string o.Vm.Machine.profile.Vm.Profile.executed_instrs;
      U.Digest.to_hex (Pl.digest_profile o.Vm.Machine.profile);
    ]

let oracle_header =
  "# VM outcomes of every (app, dataset) the workloads run, from the \
   Reference engine.\n\
   # Regenerate: dune exec perfbench/e2e.exe -- --write-oracle \
   perfbench/oracle.tsv\n\
   # app\tdataset\tn\treturn\tnative_cycles\tvm_cycles\tdyn_instrs\tprofile_digest\n"

let oracle_text () =
  let rows =
    U.Pool.map ~jobs:nproc
      (fun (w : W.Workload.t) ->
        let compiled = W.Workload.compile w in
        List.map
          (fun (d, o) -> oracle_line w.W.Workload.name d o ^ "\n")
          (W.Workload.run_all ~engine:Vm.Machine.Reference compiled w))
      (W.Registry.all @ W.Registry.phased)
  in
  oracle_header ^ String.concat "" (List.concat rows)

type oracle = (string * string, string) Hashtbl.t

let load_oracle path : oracle =
  let t = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | app :: label :: _ when line.[0] <> '#' -> Hashtbl.replace t (app, label) line
      | _ -> ())
    (In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> l <> ""));
  t

let outcome_errors (oracle : oracle) app outcomes =
  List.filter_map
    (fun ((d : W.Workload.dataset), o) ->
      let got = oracle_line app d o in
      match Hashtbl.find_opt oracle (app, d.W.Workload.label) with
      | Some want when want = got -> None
      | Some want ->
          Some
            (Printf.sprintf "VM outcome differs from the oracle\n  want %s\n  got  %s"
               want got)
      | None -> Some ("no oracle row for dataset " ^ d.W.Workload.label))
    outcomes

(* The oracle's return value of the last dataset: what all three online
   runs must return. *)
let oracle_ret (oracle : oracle) (w : W.Workload.t) =
  let d = List.nth w.W.Workload.datasets (List.length w.W.Workload.datasets - 1) in
  Option.map
    (fun line -> List.nth (String.split_on_char '\t' line) 3)
    (Hashtbl.find_opt oracle (w.W.Workload.name, d.W.Workload.label))

(* ------------------------------------------------------------------ *)
(* Operations and their checks                                          *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* Count one operation; any error makes it a failed one. *)
let operation name errors =
  incr attempted;
  if errors <> [] then begin
    incr failed;
    List.iter (fun e -> Printf.eprintf "e2e: FAIL %s: %s\n%!" name e) errors
  end

(* The simulated content of one application's result, for identity
   checks across passes and job counts.  Measured wall clocks are left
   out. *)
let fingerprint (r : Ex.app_result) =
  let rep = r.Ex.report in
  let b = Buffer.create 256 in
  Printf.bprintf b "%s %h %h %h %h %h %h %d %d" r.Ex.workload.W.Workload.name
    rep.Asp.asip_ratio.Ise.Speedup.ratio rep.Asp.asip_ratio_max.Ise.Speedup.ratio
    rep.Asp.sum_seconds rep.Asp.const_seconds rep.Asp.map_seconds
    rep.Asp.par_seconds rep.Asp.all_candidates
    (List.length rep.Asp.selection);
  List.iter
    (fun (c : Asp.candidate_result) ->
      Printf.bprintf b " %s/%h/%s/%d"
        c.Asp.scored.Ise.Select.candidate.Ise.Candidate.signature
        c.Asp.total_seconds
        (match c.Asp.cache_hit with
        | None -> "miss"
        | Some h -> Cad.Cache.hit_name h)
        c.Asp.run.Cad.Flow.bitstream.Cad.Bitstream.checksum)
    rep.Asp.candidates;
  List.iter
    (fun (d : Asp.dropped) ->
      Printf.bprintf b " drop/%s"
        d.Asp.drop_scored.Ise.Select.candidate.Ise.Candidate.signature)
    rep.Asp.dropped;
  (match r.Ex.break_even with
  | Jitise_analysis.Breakeven.Never -> Buffer.add_string b " never"
  | Jitise_analysis.Breakeven.After s -> Printf.bprintf b " %h" s);
  Buffer.contents b

let app_errors oracle (r : Ex.app_result) =
  let rep = r.Ex.report in
  let implemented = List.length rep.Asp.candidates in
  let dropped = List.length rep.Asp.dropped in
  let selected = List.length rep.Asp.selection in
  outcome_errors oracle r.Ex.workload.W.Workload.name r.Ex.outcomes
  @ (if implemented + dropped = selected then []
     else
       [
         Printf.sprintf "%d candidates + %d dropped <> %d selected" implemented
           dropped selected;
       ])
  @ List.filter_map
      (fun (c : Asp.candidate_result) ->
        let bits = c.Asp.run.Cad.Flow.bitstream in
        if Cad.Bitstream.well_formed bits then None
        else Some ("accepted bitstream is not well formed: " ^ bits.Cad.Bitstream.signature))
      rep.Asp.candidates

let online_errors oracle (w : W.Workload.t) (o : JM.online_report) =
  let rets =
    List.map
      (fun (r : JM.online_run) -> value_text r.JM.run_ret)
      [ o.JM.o_adaptive; o.JM.o_oracle; o.JM.o_nospec ]
  in
  match (rets, oracle_ret oracle w) with
  | [ a; b; c ], Some want when a = want && b = want && c = want -> []
  | _, want ->
      [
        Printf.sprintf "online runs return %s, the oracle says %s"
          (String.concat "/" rets)
          (Option.value want ~default:"nothing");
      ]

(* ------------------------------------------------------------------ *)
(* Store meter: a timing wrapper around the store's byte backend        *)
(* ------------------------------------------------------------------ *)

type meter = {
  lock : Mutex.t;
  by_stage : (string, float array) Hashtbl.t;
      (** per stage: hit-read, miss-read and write seconds *)
  mutable bytes : int;
}

let meter () = { lock = Mutex.create (); by_stage = Hashtbl.create 16; bytes = 0 }

let note m stage slot dt bytes =
  Mutex.protect m.lock (fun () ->
      let a =
        match Hashtbl.find_opt m.by_stage stage with
        | Some a -> a
        | None ->
            let a = Array.make 3 0.0 in
            Hashtbl.replace m.by_stage stage a;
            a
      in
      a.(slot) <- a.(slot) +. dt;
      m.bytes <- m.bytes + bytes)

let metered m (b : U.Artifact.backend) =
  {
    b with
    U.Artifact.backend_get =
      (fun ~stage ~digest ->
        let t0 = now () in
        let r = b.U.Artifact.backend_get ~stage ~digest in
        note m stage (if Option.is_some r then 0 else 1) (now () -. t0) 0;
        r);
    backend_put =
      (fun ~stage ~digest ~builder ~payload ->
        let t0 = now () in
        b.U.Artifact.backend_put ~stage ~digest ~builder ~payload;
        note m stage 2 (now () -. t0) (String.length payload));
  }

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(* One operation of a pass: its check results and the simulated
   content that must repeat across passes and job counts. *)
type op = { op_name : string; op_errors : string list; op_print : string }

type acc = (string, float) Hashtbl.t

let bump (acc : acc) k v =
  Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)

let get (acc : acc) k = Option.value (Hashtbl.find_opt acc k) ~default:0.0

(* What one pass accumulates.  Results are reduced as they arrive:
   holding them would inflate the peak RSS this benchmark reports. *)
type pass = {
  mutable wall : float;  (** host seconds inside the timed calls *)
  mutable cpu : float;  (** process CPU seconds over the same calls *)
  mutable calls : float list;  (** wall of each timed call *)
  mutable ops : op list;  (** newest first *)
  mutable speedups : float list;
  mutable overheads : float list;  (** simulated ASIP-SP seconds *)
  mutable cycles : float list;  (** simulated cycles with the specialization applied *)
  clients : int;  (** independent clients that ran the pass side by side *)
  counts : acc;  (** per-layer work counts *)
  mutable records : Pl.record list;  (** stage executions, for the store split *)
}

let new_pass () =
  {
    wall = 0.0;
    cpu = 0.0;
    calls = [];
    ops = [];
    speedups = [];
    overheads = [];
    cycles = [];
    clients = 1;
    counts = Hashtbl.create 16;
    records = [];
  }

(* Run [f] and charge its host wall and CPU time to the pass. *)
let timed p f =
  let t0 = now () and c0 = cpu_now () in
  let r = f () in
  let dt = now () -. t0 in
  p.calls <- dt :: p.calls;
  p.wall <- p.wall +. dt;
  p.cpu <- p.cpu +. cpu_now () -. c0;
  r

let add_op p op_name op_errors op_print =
  p.ops <- { op_name; op_errors; op_print } :: p.ops

(* Fold one application's result into the pass: simulated sums, stage
   records, and what each layer computed (store hits compute nothing). *)
let add_result p (r : Ex.app_result) =
  let rep = r.Ex.report in
  p.overheads <- rep.Asp.sum_seconds :: p.overheads;
  p.records <- rep.Asp.stage_records @ p.records;
  let computed stage =
    List.length
      (List.filter
         (fun (rc : Pl.record) -> rc.Pl.rec_stage = stage && rc.Pl.rec_outcome = Pl.Computed)
         rep.Asp.stage_records)
  in
  let count k n = bump p.counts k (float_of_int n) in
  if computed "compile" > 0 then
    count "frontend.ir_instrs"
      r.Ex.compiled.Jitise_frontend.Compiler.stats.Jitise_frontend.Compiler.instrs;
  if computed "profile" > 0 then
    List.iter
      (fun (_, o) ->
        bump p.counts "vm.dyn_instrs"
          (Int64.to_float o.Vm.Machine.profile.Vm.Profile.executed_instrs))
      r.Ex.outcomes;
  count "ise.candidates" rep.Asp.all_candidates;
  (* Every project request, store hits included: clones racing on one
     digest under jobs > 1 may both compute, so a computed count would
     depend on scheduling. *)
  count "hwgen.projects"
    (List.length (List.filter (fun (rc : Pl.record) -> rc.Pl.rec_stage = "vhdl") rep.Asp.stage_records));
  let local, shared = Asp.cache_hit_counts rep in
  count "cad.hits" (local + shared);
  count "cad.implemented" (List.length rep.Asp.candidates)

type ctx = {
  db : Pp.Database.t;
  oracle : oracle;
  root : string;  (** the store directory of this run *)
}

let with_store ?meter root spec =
  match meter with
  | None -> Spec.with_store_dir root spec
  | Some m ->
      Spec.with_stage_cache
        (U.Artifact.create ~backend:(metered m (U.Store_disk.backend ~root ())) ())
        spec

let with_tracer tracer spec =
  match tracer with Some t -> Spec.with_tracer t spec | None -> spec

(* One sweep over the registry: every application is one operation.
   A sweep is what one user invocation does, so it starts from a
   collected heap, as a new process would; the collection is not
   timed.  Without it, garbage from earlier sweeps makes the heap peak
   depend on GC pacing. *)
let sweep_into ctx p ~tracer ~label spec =
  Gc.full_major ();
  match
    timed p (fun () ->
        U.Trace.span tracer ~cat:"sweep" "sweep" (fun () -> Ex.sweep ~spec ctx.db))
  with
  | exception exn ->
      List.iter
        (fun (w : W.Workload.t) ->
          add_op p (label ^ w.W.Workload.name) [ Printexc.to_string exn ] "")
        W.Registry.all
  | results ->
      List.iter
        (fun (r : Ex.app_result) ->
          let sp = r.Ex.report.Asp.asip_ratio in
          p.speedups <- sp.Ise.Speedup.ratio :: p.speedups;
          p.cycles <- (sp.Ise.Speedup.total_cycles -. sp.Ise.Speedup.saved_cycles) :: p.cycles;
          add_result p r;
          add_op p
            (label ^ r.Ex.workload.W.Workload.name)
            (app_errors ctx.oracle r) (fingerprint r))
        results

(* registry-cold: the user's first `jitise all` against a fresh store. *)
let cold_pass ctx ~jobs ~tracer ~meter =
  rm_rf ctx.root;
  let spec =
    Spec.default |> Spec.with_jobs jobs |> with_tracer tracer
    |> with_store ?meter ctx.root
  in
  let p = new_pass () in
  sweep_into ctx p ~tracer ~label:"" spec;
  p

(* dse-warm design points. *)
type point = { prune : Ise.Prune.t; select : Ise.Select.config; cad : Cad.Flow.config }

let prunes =
  List.map Ise.Prune.of_name [ "@25pS1L"; "@50pS3L"; "@75pS5L"; "@90pS8L"; "@nofilter" ]

let selects =
  let d = Ise.Select.default_config in
  [
    d;
    { d with Ise.Select.max_candidates = Some 2 };
    { d with Ise.Select.max_candidates = Some 5 };
    { d with Ise.Select.lut_budget = Some 1500 };
  ]

let cads =
  let d = Cad.Flow.default_config in
  [ d; Cad.Flow.small_device_config; { d with Cad.Flow.eapr = false } ]

(* Every pass runs the whole prune x selection grid; the seed deals the
   CAD models to the grid cells from a balanced deck and orders the
   points.  Speedups and simulated cycles depend on the grid alone, so
   they do not move with the seed; the simulated overhead moves only
   with the dealing, which the balanced deck keeps within a few
   percent. *)
let draw_points seed =
  let rng = U.Prng.create ~seed in
  let cells = List.concat_map (fun prune -> List.map (fun s -> (prune, s)) selects) prunes in
  let deck = Array.init (List.length cells) (fun i -> List.nth cads (i mod List.length cads)) in
  U.Prng.shuffle rng deck;
  let points = Array.of_list (List.mapi (fun i (prune, select) -> { prune; select; cad = deck.(i) }) cells) in
  U.Prng.shuffle rng points;
  Array.to_list points

let point_name p =
  Printf.sprintf "%s/cap=%s/lut=%s/cad=%g,%b,%g" (Ise.Prune.name p.prune)
    (match p.select.Ise.Select.max_candidates with Some n -> string_of_int n | None -> "-")
    (match p.select.Ise.Select.lut_budget with Some n -> string_of_int n | None -> "-")
    p.cad.Cad.Flow.speedup_factor p.cad.Cad.Flow.eapr p.cad.Cad.Flow.device_scale

(* The store's files right after warm-up, so every pass can start from
   exactly that state. *)
let rec list_files dir =
  match Sys.readdir dir with
  | names ->
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then p :: list_files p else [ p ])
  | exception Sys_error _ -> []

let restore root warm =
  List.iter
    (fun p -> if not (Hashtbl.mem warm p) then rm_rf p)
    (List.rev (list_files root))

let dse_pass ctx ~warm ~points ~jobs ~tracer ~meter =
  restore ctx.root warm;
  let p = new_pass () in
  List.iteri
    (fun i pt ->
      let spec =
        Spec.default |> Spec.with_prune pt.prune |> Spec.with_select pt.select
        |> Spec.with_cad pt.cad |> Spec.with_jobs jobs
        |> Spec.with_cache (Cad.Cache.create ())
        |> with_tracer tracer |> with_store ?meter ctx.root
      in
      sweep_into ctx p ~tracer ~label:(Printf.sprintf "point %d: " i) spec)
    points;
  p

(* online-phased: the batch specialization (checked against the oracle)
   and then the closed loop over it; the loop's own staged preparation
   is served from the in-memory store the batch run filled. *)
let online_loops ctx ~jobs ~tracer =
  let p = new_pass () in
  List.iter
    (fun (w : W.Workload.t) ->
      let name = w.W.Workload.name in
      let spec =
        Spec.default
        |> Spec.with_prune Ise.Prune.none
        |> Spec.with_jobs jobs |> with_tracer tracer
        |> Spec.with_stage_cache (U.Artifact.create ())
      in
      match
        timed p (fun () ->
            let r = Ex.evaluate ~spec ctx.db w in
            let o =
              U.Trace.span tracer ~cat:"online" ("online:" ^ name) (fun () ->
                  JM.online ~spec ctx.db w)
            in
            (r, o))
      with
      | exception exn -> add_op p name [ Printexc.to_string exn ] ""
      | r, o ->
          let adaptive = o.JM.o_adaptive.JM.run_cycles in
          add_result p r;
          p.speedups <- (o.JM.o_nospec.JM.run_cycles /. adaptive) :: p.speedups;
          p.cycles <- adaptive :: p.cycles;
          let count k n = bump p.counts k (float_of_int n) in
          count "online.windows" o.JM.o_windows;
          count "online.reconfigurations" o.JM.o_adaptive.JM.run_reconfigurations;
          count "online.cad_launched" o.JM.o_cad_launched;
          bump p.counts "online.stall_cycles" o.JM.o_adaptive.JM.run_stall_cycles;
          add_op p name
            (app_errors ctx.oracle r @ online_errors ctx.oracle w o)
            (fingerprint r ^ "\n" ^ Format.asprintf "%a" JM.pp_online o))
    W.Registry.phased;
  p

(* A closed loop of [clients] clients, one domain each, every client
   running the three loops back to back with [jobs] inside.  The pass
   takes as long as the slowest client; its simulated sums are the first
   client's, so they do not depend on the client count. *)
let online_pass ctx ~clients ~jobs ~tracer =
  Gc.full_major ();
  let t0 = now () and c0 = cpu_now () in
  let ps =
    U.Pool.map ~jobs:clients (fun _ -> online_loops ctx ~jobs ~tracer) (List.init clients Fun.id)
  in
  let first = List.hd ps in
  {
    first with
    wall = now () -. t0;
    cpu = cpu_now () -. c0;
    clients;
    calls = List.concat_map (fun p -> p.calls) ps;
    ops = List.concat_map (fun p -> p.ops) (List.rev ps);
    counts =
      (let c = Hashtbl.create 16 in
       List.iter (fun p -> Hashtbl.iter (bump c) p.counts) ps;
       c);
    records = List.concat_map (fun p -> p.records) ps;
  }

(* ------------------------------------------------------------------ *)
(* Traced attribution                                                  *)
(* ------------------------------------------------------------------ *)

(* Simulated CAD spans sit on the same timeline with modelled durations
   (minutes each); they are not host time. *)
let is_simulated (e : U.Trace.event) = e.U.Trace.cat = "cad-sim" || e.U.Trace.cat = "cad-fault"

let stage_of (e : U.Trace.event) =
  match String.index_opt e.U.Trace.name ':' with
  | Some i -> String.sub e.U.Trace.name 0 i
  | None -> e.U.Trace.name

let app_of (e : U.Trace.event) =
  match String.rindex_opt e.U.Trace.name ':' with
  | Some i -> String.sub e.U.Trace.name (i + 1) (String.length e.U.Trace.name - i - 1)
  | None -> ""

let layer_of (e : U.Trace.event) =
  match e.U.Trace.cat with
  | "frontend" -> Some "frontend.compile_s"
  | "vm" -> Some "vm.profile_s"
  | "analysis" -> Some "analysis.s"
  | "search" -> Some (if stage_of e = "select" then "ise.select_s" else "ise.search_s")
  | "hwgen" -> Some "hwgen.vhdl_s"
  | "cad" -> Some "cad.implement_s"
  | "online" -> Some "vm.monitored_s"
  | _ -> None

(* Self time: a span's duration minus what its direct children on the
   same domain cover. *)
let self_times (events : U.Trace.event list) =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : U.Trace.event) ->
      Hashtbl.replace by_tid e.U.Trace.tid
        (e :: Option.value (Hashtbl.find_opt by_tid e.U.Trace.tid) ~default:[]))
    events;
  Hashtbl.fold
    (fun _ es acc ->
      let es =
        List.sort
          (fun (a : U.Trace.event) (b : U.Trace.event) ->
            compare (a.U.Trace.ts, -.a.U.Trace.dur) (b.U.Trace.ts, -.b.U.Trace.dur))
          es
      in
      let out = ref acc and stack = ref [] in
      let close ((e : U.Trace.event), child) =
        out := (e, e.U.Trace.dur -. !child) :: !out
      in
      List.iter
        (fun (e : U.Trace.event) ->
          let rec unwind () =
            match !stack with
            | ((p : U.Trace.event), child) :: rest
              when p.U.Trace.ts +. p.U.Trace.dur <= e.U.Trace.ts ->
                close (p, child);
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (_, child) :: _ -> child := !child +. e.U.Trace.dur
          | [] -> ());
          stack := (e, ref 0.0) :: !stack)
        es;
      List.iter close !stack;
      !out)
    by_tid []

(* Attribute one traced pass. *)
let attribute (acc : acc) ~events ~(meter : meter) (p : pass) =
  let host = List.filter (fun e -> not (is_simulated e)) events in
  List.iter
    (fun (e : U.Trace.event) -> if is_simulated e then bump acc "cad.sim_s" e.U.Trace.dur)
    events;
  (* Layer self times; the stage -> layer map carves store time back
     out below. *)
  let stage_layer = Hashtbl.create 16 in
  List.iter
    (fun (e, self) ->
      match layer_of e with
      | Some m ->
          bump acc m self;
          Hashtbl.replace stage_layer (stage_of e) m
      | None -> ())
    (self_times host);
  let charge_store stage dt =
    Option.iter (fun m -> bump acc m (-.dt)) (Hashtbl.find_opt stage_layer stage)
  in
  let hit_s = ref 0.0 in
  List.iter
    (fun (rc : Pl.record) ->
      bump acc "store.executions" 1.0;
      match rc.Pl.rec_outcome with
      | Pl.Hit _ ->
          bump acc "store.hits" 1.0;
          hit_s := !hit_s +. rc.Pl.rec_wall_seconds;
          charge_store rc.Pl.rec_stage rc.Pl.rec_wall_seconds
      | Pl.Computed | Pl.Failed _ -> ())
    p.records;
  let hit_read = ref 0.0 in
  Hashtbl.iter
    (fun stage a ->
      hit_read := !hit_read +. a.(0);
      charge_store stage (a.(1) +. a.(2));
      bump acc "store.read_s" (a.(0) +. a.(1));
      bump acc "store.write_s" a.(2))
    meter.by_stage;
  bump acc "store.decode_s" (!hit_s -. !hit_read);
  bump acc "store.bytes_written" (float_of_int meter.bytes);
  Hashtbl.iter (bump acc) p.counts;
  (* Sweep structure: each application's prepare extent is the span of
     its stage spans inside the sweep; finish is what follows the last
     one. *)
  let stage_spans = List.filter (fun e -> layer_of e <> None) host in
  List.iter
    (fun (s : U.Trace.event) ->
      if s.U.Trace.cat = "sweep" then begin
        let t0 = s.U.Trace.ts and t1 = s.U.Trace.ts +. s.U.Trace.dur in
        let extents = Hashtbl.create 16 in
        List.iter
          (fun (e : U.Trace.event) ->
            if e.U.Trace.ts >= t0 && e.U.Trace.ts <= t1 then begin
              let a = app_of e and e1 = e.U.Trace.ts +. e.U.Trace.dur in
              let lo, hi =
                Option.value (Hashtbl.find_opt extents a) ~default:(e.U.Trace.ts, e1)
              in
              Hashtbl.replace extents a (Float.min lo e.U.Trace.ts, Float.max hi e1)
            end)
          stage_spans;
        let last = Hashtbl.fold (fun _ (_, hi) m -> Float.max m hi) extents t0 in
        let longest = Hashtbl.fold (fun _ (lo, hi) m -> Float.max m (hi -. lo)) extents 0.0 in
        let busy = Hashtbl.fold (fun _ (lo, hi) m -> m +. hi -. lo) extents 0.0 in
        bump acc "sweep.critical_path_s" longest;
        bump acc "sweep.prepare_busy" busy;
        bump acc "sweep.prepare_wall" (last -. t0);
        bump acc "core.finish_s" (t1 -. last)
      end)
    host

(* Minor-heap words per dynamic instruction around Vm.Machine.run, on
   each workload's first dataset, serially. *)
let minor_words_per_instr (ws : W.Workload.t list) =
  let words, instrs =
    List.fold_left
      (fun (words, instrs) (w : W.Workload.t) ->
        let compiled = W.Workload.compile w in
        let d = List.hd w.W.Workload.datasets in
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let o =
          Vm.Machine.run compiled.Jitise_frontend.Compiler.modul ~entry:"main"
            ~args:[ Ir.Eval.VInt (Int64.of_int d.W.Workload.n) ]
        in
        let dw = Gc.minor_words () -. w0 in
        (words +. dw, instrs +. Int64.to_float o.Vm.Machine.profile.Vm.Profile.executed_instrs))
      (0.0, 0.0) ws
  in
  if instrs > 0.0 then words /. instrs else 0.0

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_lines
      |> List.find_map (fun l ->
             try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
             with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type workload = {
  name : string;
  warm : ctx -> unit;  (** one-time set-up beyond the database and the oracle *)
  run_pass : ctx -> jobs:int -> tracer:U.Trace.t option -> meter:meter option -> pass;
  replay : ctx -> pass;
      (** operations re-run at the other job count; they must repeat the
          first pass's reports *)
  minor_words : W.Workload.t list;  (** VM runs for the allocation probe *)
  notes : string list;  (** printed with the results, e.g. the drawn points *)
}

(* Count a pass's operations.  Each must also repeat the simulated
   content of the same operation in [against], when there is one. *)
let tally ?(against = []) what p =
  List.iteri
    (fun i o ->
      let drift =
        match List.nth_opt against i with
        | Some r when r.op_print <> o.op_print ->
            [ Printf.sprintf "%s:\n  %s\n  %s" what r.op_print o.op_print ]
        | _ -> []
      in
      operation o.op_name (o.op_errors @ drift))
    (List.rev p.ops)

let registry_cold =
  {
    name = "registry-cold";
    warm = (fun _ -> ());
    run_pass = cold_pass;
    replay = (fun ctx -> cold_pass ctx ~jobs:1 ~tracer:None ~meter:None);
    minor_words = W.Registry.all;
    notes = [];
  }

let dse_warm seed =
  let points = draw_points seed in
  let warm_files = Hashtbl.create 256 in
  {
    name = "dse-warm";
    warm =
      (fun ctx ->
        rm_rf ctx.root;
        ignore
          (Ex.sweep
             ~spec:(Spec.default |> Spec.with_jobs nproc |> Spec.with_store_dir ctx.root)
             ctx.db);
        Hashtbl.reset warm_files;
        List.iter (fun f -> Hashtbl.replace warm_files f ()) (list_files ctx.root));
    run_pass =
      (fun ctx ~jobs ~tracer ~meter ->
        dse_pass ctx ~warm:warm_files ~points ~jobs ~tracer ~meter);
    replay =
      (fun ctx ->
        (* The first five points again, at jobs 1. *)
        let head = List.filteri (fun i _ -> i < 5) points in
        dse_pass ctx ~warm:warm_files ~points:head ~jobs:1 ~tracer:None
          ~meter:None);
    minor_words = [];
    notes = List.map (fun p -> "point " ^ point_name p) points;
  }

(* Online passes run nproc clients with jobs 1 each: the loop is a
   sequential simulated-time computation, and one domain per client
   keeps the monitored VM's self time exact.  The replay runs one
   client at jobs nproc. *)
let online_phased =
  {
    name = "online-phased";
    warm = (fun _ -> ());
    run_pass =
      (fun ctx ~jobs ~tracer ~meter:_ -> online_pass ctx ~clients:jobs ~jobs:1 ~tracer);
    replay = (fun ctx -> online_pass ctx ~clients:1 ~jobs:nproc ~tracer:None);
    minor_words = W.Registry.phased;
    notes = [];
  }

type metric = { m_name : string; m_value : float; m_unit : string }

let emit_result metrics =
  let fields =
    List.map
      (fun m ->
        (* A metric over no successful operation (nan) prints as 0; the
           run is incorrect then anyway. *)
        let v = if Float.is_finite m.m_value then m.m_value else 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name v m.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    !attempted !failed (String.concat ", " fields)

let run_workload wl ~seed ~seconds ~trace ~oracle_path ~work_dir =
  let root = Filename.concat work_dir "store" in
  (* Set-up: the PivPav database and the oracle, made afresh three times
     before every pass so that the samples spread over the run like the
     pass times do (the last one serves the pass), plus the workload's
     one-time warm-up. *)
  let setup_times = ref [] in
  let fresh () =
    let made () =
      let t0 = now () in
      let c = { db = Pp.Database.create (); oracle = load_oracle oracle_path; root } in
      setup_times := (now () -. t0) :: !setup_times;
      c
    in
    ignore (made ());
    ignore (made ());
    made ()
  in
  let ctx = ref (fresh ()) in
  let t0 = now () in
  wl.warm !ctx;
  let warm_s = now () -. t0 in
  let untraced = ref [] and traced = ref [] in
  let acc : acc = Hashtbl.create 64 in
  let first = ref None and peak_mb = ref 0.0 in
  let t_start = now () in
  let k = ref 0 in
  while
    !k < 2 || now () -. t_start < seconds || (trace && !traced = [])
  do
    let tracing = trace && !k mod 2 = 1 in
    let tracer = if tracing then Some (U.Trace.create ()) else None in
    let meter = meter () in
    if !k > 0 then ctx := fresh ();
    let p =
      wl.run_pass !ctx ~jobs:nproc ~tracer ~meter:(if tracing then Some meter else None)
    in
    (match tracer with
    | Some t -> attribute acc ~events:(U.Trace.events t) ~meter p
    | None -> ());
    (match !first with
    | None ->
        first := Some p;
        (* Later passes in the same process only add heap that the
           runtime keeps after repeated domain spawns (the major heap
           grows ~34 MB per dse-warm pass while live data stays under
           10 MB); one invocation would not see it. *)
        peak_mb := peak_rss_mb ();
        tally "first pass" p
    | Some f -> tally ~against:(List.rev f.ops) "report differs from the first pass" p);
    if tracing then traced := p :: !traced else untraced := p :: !untraced;
    incr k
  done;
  let first = Option.get !first in
  tally ~against:(List.rev first.ops) "report differs between jobs 1 and jobs nproc"
    (wl.replay !ctx);
  let walls ps = List.map (fun p -> p.wall) ps in
  let wall_s = median (walls !untraced) in
  Printf.printf "workload %s  seed %d  jobs %d  passes %d untraced + %d traced\n" wl.name seed
    nproc (List.length !untraced) (List.length !traced);
  List.iter (Printf.printf "  %s\n") wl.notes;
  let samples what xs =
    Printf.printf "  %s samples [s]: %s\n" what
      (String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev xs)))
  in
  samples "setup" !setup_times;
  samples "wall" (walls !untraced);
  samples "cpu" (List.map (fun p -> p.cpu) !untraced);
  (* The tail of single calls (one sweep, design point or online loop):
     the highest percentile with at least ten samples beyond it. *)
  let calls = Array.of_list (List.concat_map (fun p -> p.calls) !untraced) in
  Array.sort compare calls;
  let n = Array.length calls in
  if n > 10 then
    Printf.printf "  call time [s]: n %d  median %.3f  p%.0f %.3f\n" n
      (median (Array.to_list calls))
      (100.0 *. float_of_int (n - 10) /. float_of_int n)
      calls.(n - 11)
  else Printf.printf "  call time: %d samples, too few for a tail percentile\n" n;
  Printf.printf "  operations: %d attempted, %d failed, fail_ratio %g\n" !attempted !failed
    (if !attempted = 0 then 0.0 else float_of_int !failed /. float_of_int !attempted);
  let s name value m_unit = { m_name = name; m_value = value; m_unit } in
  let metrics =
    if not trace then begin
      (* Sorted sums: the simulated metrics must not depend on the order
         the seed gives the operations. *)
      let sum xs = List.fold_left ( +. ) 0.0 (List.sort compare xs) in
      let geomean xs = exp (sum (List.map log xs) /. float_of_int (List.length xs)) in
      [
        s "wall_s" wall_s "s";
        s "setup_s" (median !setup_times +. warm_s) "s";
        s "peak_rss_mb" !peak_mb "MB";
        s "sim_speedup_geomean" (geomean first.speedups) "x";
        s "sim_overhead_s" (sum first.overheads) "sim_s";
        s "sim_cycles" (sum first.cycles) "cycles";
      ]
    end
    else begin
      (* Per client: the layer metrics must not scale with nproc. *)
      let units = float_of_int (List.fold_left (fun a p -> a + p.clients) 0 !traced) in
      let per_pass k = get acc k /. units in
      let lanes = float_of_int (nproc * List.length !traced) /. units in
      let ratio a b = if b > 0.0 then a /. b else 0.0 in
      let traced_wall = median (walls !traced) in
      let layers =
        [
          "frontend.compile_s"; "vm.profile_s"; "vm.monitored_s"; "analysis.s";
          "ise.search_s"; "ise.select_s"; "hwgen.vhdl_s"; "cad.implement_s";
          "core.finish_s";
        ]
      in
      let store_s = per_pass "store.read_s" +. per_pass "store.write_s" +. per_pass "store.decode_s" in
      let accounted = List.fold_left (fun a k -> a +. per_pass k) store_s layers in
      let cpu = List.fold_left (fun a p -> a +. p.cpu) 0.0 !untraced in
      let busy = List.fold_left (fun a p -> a +. p.wall) 0.0 !untraced *. float_of_int nproc in
      let mwpi = minor_words_per_instr wl.minor_words in
      let per name m_unit = s name (per_pass name) m_unit in
      [
        per "frontend.compile_s" "s";
        per "frontend.ir_instrs" "instrs";
        per "vm.profile_s" "s";
        per "vm.dyn_instrs" "instrs";
        s "vm.minstr_per_s"
          (ratio (per_pass "vm.dyn_instrs") (per_pass "vm.profile_s") /. 1e6)
          "Minstr/s";
        s "vm.minor_words_per_instr" mwpi "words/instr";
        per "vm.monitored_s" "s";
        s "vm.share"
          (ratio (per_pass "vm.profile_s" +. per_pass "vm.monitored_s") accounted)
          "ratio";
        per "ise.search_s" "s";
        per "ise.select_s" "s";
        per "ise.candidates" "count";
        per "hwgen.vhdl_s" "s";
        per "hwgen.projects" "count";
        per "cad.implement_s" "s";
        s "cad.cache_hit_ratio" (ratio (get acc "cad.hits") (get acc "cad.implemented")) "ratio";
        per "cad.sim_s" "sim_s";
        per "analysis.s" "s";
        per "store.read_s" "s";
        per "store.decode_s" "s";
        per "store.write_s" "s";
        s "store.hit_ratio" (ratio (get acc "store.hits") (get acc "store.executions")) "ratio";
        per "store.bytes_written" "bytes";
        per "sweep.critical_path_s" "s";
        s "sweep.parallel_eff"
          (ratio (get acc "sweep.prepare_busy")
             (float_of_int nproc *. get acc "sweep.prepare_wall"))
          "ratio";
        per "core.finish_s" "s";
        s "host.cpu_util" (ratio cpu busy) "ratio";
        per "online.windows" "count";
        per "online.reconfigurations" "count";
        per "online.cad_launched" "count";
        per "online.stall_cycles" "cycles";
        s "trace.overhead_s" (traced_wall -. wall_s) "s";
        s "trace.accounted_share" (ratio accounted (lanes *. wall_s)) "ratio";
      ]
    end
  in
  List.iter (fun m -> Printf.printf "  %-26s %16.6f %s\n" m.m_name m.m_value m.m_unit) metrics;
  emit_result metrics

let () =
  let args = Array.to_list Sys.argv in
  let rec value key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> value key rest
    | [] -> None
  in
  let req key =
    match value key args with
    | Some v -> v
    | None ->
        Printf.eprintf "e2e: missing %s\n" key;
        exit 2
  in
  match (value "--write-oracle" args, value "--check-oracle" args) with
  | Some path, _ ->
      Out_channel.with_open_text path (fun oc -> output_string oc (oracle_text ()))
  | None, Some path ->
      let want = In_channel.with_open_text path In_channel.input_all in
      if oracle_text () <> want then begin
        Printf.eprintf
          "e2e: %s has drifted from the Reference engine; regenerate it with \
           --write-oracle\n"
          path;
        exit 1
      end
      else print_endline "e2e: oracle matches the Reference engine"
  | None, None ->
      let seed = int_of_string (req "--seed") in
      let seconds = float_of_string (req "--seconds") in
      let trace = req "--trace" = "1" in
      let wl =
        match req "--workload" with
        | "registry-cold" -> registry_cold
        | "dse-warm" -> dse_warm seed
        | "online-phased" -> online_phased
        | other ->
            Printf.eprintf "e2e: unknown workload %s\n" other;
            exit 2
      in
      run_workload wl ~seed ~seconds ~trace ~oracle_path:(req "--oracle")
        ~work_dir:(req "--work-dir")
