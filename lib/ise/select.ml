(** Candidate selection: estimate every identified candidate with the
    PivPav database and keep the profitable ones.

    A candidate is worth implementing when its hardware form is faster
    than its software form and the enclosing block actually executes.
    Selected candidates are ranked by total saved cycles (per-invocation
    saving x block frequency), the metric the break-even analysis
    consumes. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module Pp = Jitise_pivpav

type scored = {
  candidate : Candidate.t;
  estimate : Pp.Estimator.estimate;
  frequency : int64;      (** profiled executions of the home block *)
  saved_cycles : float;   (** frequency x (sw - hw) *)
}

type config = {
  max_inputs : int;
      (** register inputs a CI can take.  Woolcano moves operands over
          the APU two words per cycle, so the effective limit is high
          (16); port-constrained targets should lower it, ideally
          together with [split_wide] *)
  split_wide : bool;
      (** decompose over-wide candidates with {!Split.constrain}
          instead of dropping them (off by default: Woolcano encodes
          wide candidates directly) *)
  max_candidates : int option;  (** optional cap, best first *)
  lut_budget : int option;      (** optional total area budget *)
}

let default_config =
  { max_inputs = 16; split_wide = false; max_candidates = None; lut_budget = None }

(** DFG of a candidate's home block (the candidate stores node indices
    into exactly this graph). *)
let dfg_of (m : Ir.Irmod.t) (c : Candidate.t) =
  match Ir.Irmod.find_func m c.Candidate.func with
  | None ->
      invalid_arg
        (Printf.sprintf "Select.dfg_of: unknown function %S (candidate %s)"
           c.Candidate.func c.Candidate.signature)
  | Some f -> Ir.Dfg.of_block f (Ir.Func.block f c.Candidate.block)

(** Score and filter candidates. *)
let select ?(config = default_config) (db : Pp.Database.t) (m : Ir.Irmod.t)
    (profile : Vm.Profile.t) (candidates : Candidate.t list) : scored list =
  (* Candidates share home blocks, and building a DFG scans the whole
     function: build each one once per call. *)
  let dfgs = Hashtbl.create 64 in
  let dfg_of c =
    let k = (c.Candidate.func, c.Candidate.block) in
    match Hashtbl.find_opt dfgs k with
    | Some d -> d
    | None ->
        let d = dfg_of m c in
        Hashtbl.add dfgs k d;
        d
  in
  let candidates =
    if config.split_wide then
      Split.constrain dfg_of ~max_inputs:config.max_inputs candidates
    else candidates
  in
  let scored =
    List.filter_map
      (fun c ->
        if c.Candidate.num_inputs > config.max_inputs then None
        else
          let dfg = dfg_of c in
          match Pp.Estimator.estimate db dfg c.Candidate.nodes with
          | None -> None
          | Some est ->
              let frequency =
                Vm.Profile.count profile ~func:c.Candidate.func
                  ~label:c.Candidate.block
              in
              let per_exec =
                est.Pp.Estimator.sw_cycles - est.Pp.Estimator.hw_cycles
              in
              (* Candidates whose hardware form is estimated no slower
                 are kept even at zero gain — the paper implements them
                 too (its scientific rows pay hours of CAD time for
                 ~1.0x ratios), and the break-even analysis depends on
                 that behaviour. *)
              if per_exec < 0 || frequency = 0L then None
              else
                Some
                  {
                    candidate = c;
                    estimate = est;
                    frequency;
                    saved_cycles =
                      Int64.to_float frequency *. float_of_int per_exec;
                  })
      candidates
  in
  let ranked =
    List.sort (fun a b -> compare b.saved_cycles a.saved_cycles) scored
  in
  let capped =
    match config.max_candidates with
    | None -> ranked
    | Some n ->
        let rec firstn n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: r -> x :: firstn (n - 1) r
        in
        firstn n ranked
  in
  match config.lut_budget with
  | None -> capped
  | Some budget ->
      let used = ref 0 in
      List.filter
        (fun s ->
          let luts = s.estimate.Pp.Estimator.luts in
          if !used + luts <= budget then begin
            used := !used + luts;
            true
          end
          else false)
        capped

(** Total instructions covered by the selected candidates. *)
let covered_instrs scored =
  List.fold_left (fun acc s -> acc + s.candidate.Candidate.size) 0 scored
