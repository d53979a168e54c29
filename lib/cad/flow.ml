(** Simulator of the Xilinx ISE 12.2 EAPR CAD tool flow.

    The physical tool chain is the one component of the paper's system
    that cannot run here, so its *runtime behaviour* is modelled
    instead: per-stage durations are drawn from distributions calibrated
    to the paper's measurements (Table III for the constant stages,
    Section V-C for map and place-and-route), deterministically seeded
    by the candidate's structural signature.  Everything downstream —
    overhead aggregation, break-even analysis, caching — consumes only
    these durations, which is exactly what the paper measures.

    Calibration targets (seconds):
    - Check Syntax 4.22 (sd 0.10), XST synthesis 10.60 (sd 0.23),
      Translate 8.99 (sd 1.22), Bitgen 151.00 (sd 2.43) — constants;
    - Map 40-456 and PAR 56-728, growing with data-path size, with
      PAR/Map between ~1.4 (small) and ~2.5 (large);
    - project creation (C2V) 3.22 (sd 0.10), dominated by the 2.5 s
      TCL project setup plus 0.2 s VHDL generation;
    - a full (non-EAPR) bitgen takes only ~41 s — the 151 s figure is
      an EAPR overhead the paper calls out explicitly.

    Failure model: commodity CAD tools fail routinely, so
    {!implement_result} can inject per-stage failures from a
    {!Faults.config} and returns [(run, failure) result]; a failure
    reports the stage it hit and the simulated seconds wasted up to it.
    {!implement} is the never-failing entry point (faults disabled). *)

module Ir = Jitise_ir
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen

type stage = Check_syntax | Synthesis | Translate | Map | Place_and_route | Bitgen

let stage_name = function
  | Check_syntax -> "syn"
  | Synthesis -> "xst"
  | Translate -> "tra"
  | Map -> "map"
  | Place_and_route -> "par"
  | Bitgen -> "bitgen"

type config = {
  speedup_factor : float;
      (** fraction of CAD time removed by a faster tool flow, 0.0-0.99
          (Section VI-B); 0.30 models the paper's "30 % faster" column *)
  eapr : bool;
      (** early-access partial reconfiguration tools; [false] models the
          regular flow whose bitgen is ~41 s but which cannot produce
          partial bitstreams *)
  device_scale : float;
      (** relative capacity of the target device, 0 < scale <= 1.  The
          paper observes that the constant stages "depend strongly on
          the capacity of the FPGA device" and proposes switching from
          the large FX100 to a smaller part (Section VI-B); the
          constant stages (and the bitstream size) shrink roughly with
          device capacity, while map/PAR depend on the design, not the
          device. *)
}

let default_config = { speedup_factor = 0.0; eapr = true; device_scale = 1.0 }

(** Section VI-B's "use a smaller FPGA device": a Virtex-4 FX60-sized
    target with roughly 60 % of the FX100's frames. *)
let small_device_config = { default_config with device_scale = 0.6 }

(** Reject an out-of-range configuration.  Run before any simulated
    work (including the VHDL syntax check), so a bad config is reported
    identically whether or not the project is well-formed. *)
let validate_config config =
  if config.speedup_factor < 0.0 || config.speedup_factor > 0.99 then
    invalid_arg "Flow.implement: speedup_factor must be in [0, 0.99]";
  if config.device_scale <= 0.0 || config.device_scale > 1.0 then
    invalid_arg "Flow.implement: device_scale must be in (0, 1]"

type stage_report = { stage : stage; seconds : float }

type run = {
  project : Hw.Project.t;
  stages : stage_report list;
  total_seconds : float;
      (** what the flow {e would} cost; on a cache hit the caller
          decides whether the cost is actually paid *)
  bitstream : Bitstream.t;
  cache_hit : Cache.hit option;
      (** [Some _] when a [?cache] passed to {!implement} already held
          this data path — [Local] from the same application, [Shared]
          from another one *)
  syntax_problems : string list;  (** non-empty = flow aborted *)
  relaxed : bool;
      (** the run was resynthesized with relaxed timing constraints
          (the recovery move after a {!Faults.Timing_failure}); costs
          ~15 % extra map/PAR time *)
}

(** One failed CAD attempt: the stage that failed, why, and the
    simulated seconds burnt getting there (every stage up to and
    including the failing one ran to completion or abort). *)
type failure = {
  failed_stage : stage;
  fault : Faults.kind;
  wasted_seconds : float;
  failed_attempt : int;  (** 1-based attempt number of this failure *)
}

let pp_failure ppf f =
  Format.fprintf ppf "%s at %s (attempt %d, %.0f s wasted)"
    (Faults.kind_name f.fault) (stage_name f.failed_stage) f.failed_attempt
    f.wasted_seconds

exception Syntax_error of string list
exception Internal_error of string

(* Deterministic per-candidate jitter source. *)
let prng_for (p : Hw.Project.t) stage =
  Jitise_util.Prng.create
    ~seed:(Jitise_util.Prng.hash_string (p.Hw.Project.name ^ stage_name stage))

let gauss p stage ~mu ~sigma =
  let g = Jitise_util.Prng.gaussian (prng_for p stage) ~mu ~sigma in
  Float.max (mu /. 2.0) g

(* Complexity drivers of map/PAR: the LUT area and the share of
   hard-to-place operators (dividers, floating point). *)
let complexity db (p : Hw.Project.t) =
  let luts, _, dsp = Hw.Project.area db p in
  let hard_ops =
    List.length
      (List.filter
         (fun (c : Pp.Component.t) ->
           match c.Pp.Component.opcode with
           | "sdiv" | "udiv" | "srem" | "urem" | "fdiv" | "fadd" | "fsub"
           | "fmul" | "fptosi" | "sitofp" ->
               true
           | _ -> false)
         p.Hw.Project.vhdl.Hw.Vhdl.components)
  in
  (luts + (120 * dsp), hard_ops)

let map_seconds db p =
  let luts, hard = complexity db p in
  let base = 38.0 +. (0.038 *. float_of_int luts) +. (4.0 *. float_of_int hard) in
  Float.min 456.0 (gauss p Map ~mu:base ~sigma:(0.04 *. base))

let par_seconds db p ~map_time =
  let luts, hard = complexity db p in
  let ratio =
    1.4
    +. (0.9 *. Float.min 1.0 (float_of_int luts /. 9_000.0))
    +. (0.02 *. float_of_int hard)
  in
  Float.min 728.0
    (gauss p Place_and_route ~mu:(map_time *. ratio) ~sigma:(0.05 *. map_time))

let bitgen_seconds cfg p =
  if cfg.eapr then gauss p Bitgen ~mu:151.0 ~sigma:2.43
  else gauss p Bitgen ~mu:41.0 ~sigma:1.2

(* Extra map/PAR cost of a relaxed (reduced-effort, relaxed-constraint)
   resynthesis: the tools close timing easily but place less tightly. *)
let relaxed_map_par_penalty = 1.15

(** Simulated seconds of the Netlist Generation phase for one candidate
    (Generate VHDL + Extract Netlists + Create Project — the paper's
    C2V column: 3.22 s, sd 0.10). *)
let c2v_seconds (p : Hw.Project.t) =
  let generate_vhdl = 0.2 in
  let create_project = 2.5 in
  let extract =
    0.05 *. float_of_int (List.length p.Hw.Project.netlists)
  in
  let jitter =
    Jitise_util.Prng.gaussian (prng_for p Check_syntax) ~mu:0.0 ~sigma:0.08
  in
  Float.max 2.8 (generate_vhdl +. create_project +. extract +. jitter)

let emit_spans tracer (p : Hw.Project.t) stages ~failed =
  match tracer with
  | None -> ()
  | Some t ->
      (* One synthetic span per CAD stage, laid out back to back on the
         simulated timeline starting "now".  The durations are the
         modelled seconds, not wall-clock time. *)
      let t0 = Jitise_util.Trace.now () in
      ignore
        (List.fold_left
           (fun offset s ->
             let is_failed =
               match failed with
               | Some f -> f.failed_stage = s.stage
               | None -> false
             in
             Jitise_util.Trace.add t ~simulated:true
               ~cat:(if is_failed then "cad-fault" else "cad-sim")
               ~args:
                 [
                   ("project", p.Hw.Project.name);
                   ("simulated_seconds", Printf.sprintf "%.2f" s.seconds);
                 ]
               ~name:
                 ("cad:" ^ stage_name s.stage
                 ^ if is_failed then ":failed" else "")
               ~ts:(t0 +. offset) ~dur:s.seconds ();
             offset +. s.seconds)
           0.0 stages)

(** Run the implementation flow on a prepared project, with optional
    fault injection.

    The six stages run in order; before each stage completes, the
    {!Faults} model is rolled for this [(signature, stage, attempt)]
    tuple.  On a failure the attempt aborts: the result is [Error f]
    where [f.wasted_seconds] covers every stage up to and including the
    failing one, and nothing is recorded in [?cache] — failed runs must
    never be served to other applications.  With [faults] disabled
    (default) the result is always [Ok].

    @param attempt 1-based CAD attempt number; seeds the fault rolls so
    a retry of the same data path fails (or succeeds) differently
    @param relaxed resynthesize with relaxed timing constraints: timing
    failures cannot occur, map/PAR cost ~15 % extra (the recovery move
    for {!Faults.Timing_failure})
    @param cache a shared bitstream cache (Section VI-A); the produced
    bitstream is recorded in it under the project's structural
    signature, and [run.cache_hit] reports whether it was already there
    @param app the application the data path belongs to, for the
    cache's local/shared hit attribution
    @param tracer records one synthetic span per CAD stage (the
    durations are simulated, so the spans carry the modelled seconds,
    not wall-clock time)
    @raise Syntax_error when the generated VHDL fails the syntax
    check (indicates a data-path generator bug — tests assert this
    never fires on MAXMISO output). *)
let implement_result ?cache ?(app = "") ?tracer ?(config = default_config)
    ?(faults = Faults.none) ?(attempt = 1) ?(relaxed = false)
    (db : Pp.Database.t) (p : Hw.Project.t) : (run, failure) result =
  (* Validate the whole configuration up front — before the syntax
     check and before any simulated work. *)
  validate_config config;
  Faults.validate faults;
  if attempt < 1 then invalid_arg "Flow.implement: attempt must be >= 1";
  let syntax_problems = Hw.Vhdl.check_syntax p.Hw.Project.vhdl in
  if syntax_problems <> [] then raise (Syntax_error syntax_problems);
  let scale = 1.0 -. config.speedup_factor in
  (* Constant stages scale with device capacity; map/PAR do not. *)
  let const_scale = scale *. config.device_scale in
  let syn = gauss p Check_syntax ~mu:4.22 ~sigma:0.10 in
  let xst = gauss p Synthesis ~mu:10.60 ~sigma:0.23 in
  let tra = gauss p Translate ~mu:8.99 ~sigma:1.22 in
  let map = map_seconds db p in
  let par = par_seconds db p ~map_time:map in
  let bitgen = bitgen_seconds config p in
  let stages =
    List.map
      (fun (stage, seconds) ->
        let s =
          match stage with
          | Map | Place_and_route ->
              seconds *. scale
              *. (if relaxed then relaxed_map_par_penalty else 1.0)
          | _ -> seconds *. const_scale
        in
        { stage; seconds = s })
      [
        (Check_syntax, syn);
        (Synthesis, xst);
        (Translate, tra);
        (Map, map);
        (Place_and_route, par);
        (Bitgen, bitgen);
      ]
  in
  let luts, _, _ = Hw.Project.area db p in
  (* Fault rolls, in stage order; the first hit aborts the attempt with
     every stage up to and including the failing one billed. *)
  let fault =
    if not faults.Faults.enabled then None
    else begin
      let area_fraction = float_of_int luts /. 9_000.0 in
      let rec scan elapsed = function
        | [] -> None
        | s :: rest -> (
            let elapsed = elapsed +. s.seconds in
            match
              Faults.roll faults ~signature:p.Hw.Project.name
                ~stage:(stage_name s.stage) ~attempt ~relaxed
                ~complexity:area_fraction
            with
            | Some kind ->
                Some
                  {
                    failed_stage = s.stage;
                    fault = kind;
                    wasted_seconds = elapsed;
                    failed_attempt = attempt;
                  }
            | None -> scan elapsed rest)
      in
      scan 0.0 stages
    end
  in
  match fault with
  | Some f ->
      (* Bill only the stages that ran; never touch the cache. *)
      let ran =
        let rec take = function
          | [] -> []
          | s :: rest ->
              if s.stage = f.failed_stage then [ s ] else s :: take rest
        in
        take stages
      in
      emit_spans tracer p ran ~failed:(Some f);
      Error f
  | None ->
      let total_seconds =
        List.fold_left (fun acc s -> acc +. s.seconds) 0.0 stages
      in
      let frames = 4 + (luts / 128) in
      let bitstream =
        Bitstream.make ~signature:p.Hw.Project.name
          ~size_bytes:
            (frames * p.Hw.Project.device.Hw.Project.reconfig_frame_bytes)
          ~frames ~luts ~generation_seconds:total_seconds
      in
      emit_spans tracer p stages ~failed:None;
      let cache_hit =
        match cache with
        | None -> None
        | Some c ->
            Cache.note c ~app ~signature:p.Hw.Project.name ~bitstream
      in
      Ok
        {
          project = p;
          stages;
          total_seconds;
          bitstream;
          cache_hit;
          syntax_problems = [];
          relaxed;
        }

(** Extract the run from a flow result that must not have failed.
    @raise Internal_error on [Error], naming the stage — a faultless
    flow reporting a failure is a simulator bug, not a modelled CAD
    failure. *)
let run_of_result = function
  | Ok run -> run
  | Error f ->
      raise
        (Internal_error
           (Printf.sprintf
              "Flow.implement: faultless flow reported a %s failure in \
               stage %s"
              (Faults.kind_name f.fault)
              (stage_name f.failed_stage)))

(** {!implement_result} with fault injection disabled: always succeeds
    (or raises {!Syntax_error} / [Invalid_argument], as documented
    there). *)
let implement ?cache ?app ?tracer ?config (db : Pp.Database.t)
    (p : Hw.Project.t) : run =
  run_of_result
    (implement_result ?cache ?app ?tracer ?config ~faults:Faults.none db p)

(** Seconds spent in a given stage of a run. *)
let stage_seconds run stage =
  List.fold_left
    (fun acc s -> if s.stage = stage then acc +. s.seconds else acc)
    0.0 run.stages

(** The constant-time portion of a run (everything but map and PAR),
    as aggregated in the paper's "const" column of Table II.  The C2V
    project-creation time must be added by the caller (it happens
    before [implement]). *)
let constant_seconds run =
  List.fold_left
    (fun acc s ->
      match s.stage with
      | Map | Place_and_route -> acc
      | _ -> acc +. s.seconds)
    0.0 run.stages
