(** The bitcode virtual machine.

    An SSA interpreter with cycle accounting.  One run simultaneously
    accumulates two clocks:

    - [native_cycles]: the cost of the program under static compilation
      (the paper's "Native" column), from {!Jitise_ir.Cost};
    - [vm_cycles]: the cost under the VM's JIT execution model
      ({!Jit_model}), the paper's "VM" column.

    The machine also records the block-frequency {!Profile} and executes
    custom-instruction calls ([Ci_call]) through a registry that charges
    the hardware latency of the reconfigurable functional unit instead
    of the software cycles — which is how adapted binaries are timed on
    the Woolcano model.

    Two execution engines produce byte-identical outcomes:

    - {!Reference} walks the instruction AST, re-matching every
      [Ir.Instr.kind] and re-resolving every operand on each dynamic
      instruction — the semantics baseline;
    - {!Threaded} (the default) compiles each basic block once, at
      prepare time, into an array of pre-decoded operation closures:
      operands are resolved to register slots or immediate values,
      operators to specialized {!Jitise_ir.Eval} closures, callees /
      custom instructions / intrinsics are bound ahead of time, and
      terminators (including [Switch] case tables) are pre-resolved to
      block indices.  The hot loop is then an array walk of closure
      calls with no AST dispatch.

    Cycle accounting, fuel, profiles and fault messages are identical
    across engines (pinned by the differential suite in test_vm). *)

module Ir = Jitise_ir

exception Fault of string

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

(* ------------------------------------------------------------------ *)
(* Custom instruction registry                                         *)
(* ------------------------------------------------------------------ *)

type ci_impl = {
  ci_eval : Ir.Eval.value array -> Ir.Eval.value;
      (** functional semantics of the custom instruction *)
  ci_cycles : int;
      (** CPU cycles one invocation takes on the custom functional
          unit, including the instruction-interface overhead *)
  ci_native : (Ir.Eval.value array -> Ir.Eval.value) option;
      (** fused closure compiled ahead of time from the CI's MISO
          subgraph: one dispatch, no per-node interpretation.  Must be
          functionally identical to [ci_eval] — the threaded engine
          dispatches it when the [ci_native] tuning knob is on, the
          reference engine never does, and the differential suite pins
          the two paths to identical outcomes. *)
}

type ci_registry = (int, ci_impl) Hashtbl.t

let empty_cis () : ci_registry = Hashtbl.create 8

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                          *)
(* ------------------------------------------------------------------ *)

(* One table holds every intrinsic: the name list and the dispatcher
   cannot drift apart (they used to be separate [intrinsic] /
   [is_intrinsic] matches), and the threaded engine binds the
   implementation closure directly at block-compile time. *)
let intrinsic_table : (string, Ir.Eval.value array -> Ir.Eval.value) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let f1 name op =
    Hashtbl.replace tbl name (fun args ->
        if Array.length args <> 1 then fault "intrinsic %s: arity" name
        else Ir.Eval.VFloat (op (Ir.Eval.as_float args.(0))))
  in
  let i1 name op =
    Hashtbl.replace tbl name (fun args ->
        if Array.length args <> 1 then fault "intrinsic %s: arity" name
        else Ir.Eval.VInt (op (Ir.Eval.as_int args.(0))))
  in
  let i2 name op =
    Hashtbl.replace tbl name (fun args ->
        if Array.length args <> 2 then fault "intrinsic %s: arity" name
        else
          Ir.Eval.VInt
            (op (Ir.Eval.as_int args.(0)) (Ir.Eval.as_int args.(1))))
  in
  f1 "sqrt" sqrt;
  f1 "sin" sin;
  f1 "cos" cos;
  f1 "atan" atan;
  f1 "exp" exp;
  f1 "log" log;
  f1 "fabs" abs_float;
  f1 "floor" floor;
  Hashtbl.replace tbl "pow" (fun args ->
      if Array.length args <> 2 then fault "intrinsic pow: arity"
      else
        Ir.Eval.VFloat
          (Float.pow (Ir.Eval.as_float args.(0)) (Ir.Eval.as_float args.(1))));
  i1 "abs" Int64.abs;
  i2 "min" min;
  i2 "max" max;
  tbl

let find_intrinsic name = Hashtbl.find_opt intrinsic_table name
let is_intrinsic name = Hashtbl.mem intrinsic_table name

let intrinsic name (args : Ir.Eval.value array) : Ir.Eval.value =
  match find_intrinsic name with
  | Some impl -> impl args
  | None -> fault "unknown function @%s" name

(* ------------------------------------------------------------------ *)
(* Execution engines                                                   *)
(* ------------------------------------------------------------------ *)

type engine =
  | Reference  (** AST-walking interpreter (the semantics baseline) *)
  | Threaded  (** per-block closure compilation with pre-decoded operands *)

let default_engine = Threaded
let engines = [ Reference; Threaded ]

let engine_name = function Reference -> "reference" | Threaded -> "threaded"

let engine_of_string = function
  | "reference" -> Some Reference
  | "threaded" -> Some Threaded
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Engine tuning                                                       *)
(* ------------------------------------------------------------------ *)

(** Optimization knobs of the {!Threaded} engine.  Every knob is
    semantics-preserving by construction — outcomes (including clocks,
    fuel, profiles and fault messages) are byte-identical across all
    combinations, pinned by the differential suite — so the knobs exist
    for isolation benchmarking and differential testing, not for
    trading accuracy against speed. *)
type tuning = {
  link : bool;
      (** block linking: terminators transfer to the successor's
          compiled block directly instead of returning to the indexed
          dispatch loop *)
  fuse : bool;
      (** superinstructions: peephole-fuse hot multi-op sequences into
          single non-allocating closures *)
  ci_native : bool;
      (** dispatch a loaded CI's pre-compiled fused closure
          ({!ci_impl.ci_native}) instead of interpreting its MISO
          subgraph op by op *)
  regalloc : bool;
      (** typed register files: partition each function's virtual
          registers by their declared types into unboxed slot lanes
          ([int64]/[float]/[int] address slots), so hot int/float
          arithmetic, compares, casts, address computation,
          load/store addressing and calls between typed functions read
          and write machine scalars instead of boxed
          {!Jitise_ir.Eval.value}s.  Boxing happens only at the seams:
          intrinsics, custom instructions, memory cells (which stay
          untyped) and the run's entry arguments and result.  Off =
          the boxed compiled blocks, exactly (DESIGN.md §14). *)
  max_linked_blocks : int;
      (** linked-transfer budget: after this many consecutive direct
          block-to-block transfers the engine takes one trip through
          the indexed dispatch path (the escape hatch), so linking
          cannot starve it.  Fuel, clocks and the monitor hook run at
          every block boundary regardless. *)
}

let default_tuning =
  {
    link = true;
    fuse = true;
    ci_native = true;
    regalloc = true;
    max_linked_blocks = 64;
  }

(** The PR 4 threaded engine: every optimization layer off. *)
let untuned =
  {
    link = false;
    fuse = false;
    ci_native = false;
    regalloc = false;
    max_linked_blocks = 64;
  }

(* Per-pattern superinstruction hit counters (compile-time events, one
   bump per fused window per block compilation).  Guarded by a mutex:
   parallel sweeps compile modules from several domains. *)
let fusion_mu = Mutex.create ()
let fusion_counters : (string, int) Hashtbl.t = Hashtbl.create 32

let bump_fusion name =
  Mutex.lock fusion_mu;
  Hashtbl.replace fusion_counters name
    (1 + Option.value ~default:0 (Hashtbl.find_opt fusion_counters name));
  Mutex.unlock fusion_mu

(** Per-pattern fusion counts since start (or the last
    {!reset_fusion_stats}), sorted by pattern name. *)
let fusion_stats () =
  Mutex.lock fusion_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fusion_counters [] in
  Mutex.unlock fusion_mu;
  List.sort compare l

let reset_fusion_stats () =
  Mutex.lock fusion_mu;
  Hashtbl.reset fusion_counters;
  Mutex.unlock fusion_mu

(* ------------------------------------------------------------------ *)
(* Prepared module                                                     *)
(* ------------------------------------------------------------------ *)

(* A pre-decoded operand: either an immediate already converted to an
   {!Ir.Eval.value} or a register slot index.  The threaded engine's
   closures fetch through this, never through [Ir.Instr.operand]. *)
type src = Imm of Ir.Eval.value | Slot of int

let fetch regs = function Imm v -> v | Slot r -> regs.(r)

(* A pre-decoded phi source: like [src option] but flat, so the phi
   prologue — which runs for every phi on every dynamic iteration of a
   loop header — does a single match instead of an [Option] match
   followed by a [src] match. *)
type psrc = P_slot of int | P_imm of Ir.Eval.value | P_missing

(* Per-block static data, computed once per run.  [exec_count] is the
   run-local profile counter (folded into a Profile at the end — much
   cheaper than a hashtable update per block execution).  The phi
   prologue is pre-resolved: [phi_incoming.(k).(pred)] is the operand
   phi [k] takes when entered from block [pred], so the hot loop does
   two array reads per phi instead of scanning an association list on
   every block execution.  [switch_cases] pre-resolves a [Switch]
   terminator's case list into a hashtable (first entry wins for
   duplicate case values, like [List.assoc_opt] did), shared by both
   engines. *)
type block_info = {
  instrs : Ir.Instr.t array;
  term : Ir.Instr.terminator;
  ninstrs : int;
  static_cycles : int;  (* excludes user-call callees and CI latencies *)
  phi_count : int;  (* leading phis; a phi past them still faults *)
  phi_dests : int array;  (* destination register of each leading phi *)
  phi_incoming : Ir.Instr.operand option array array;
      (* per leading phi, indexed by predecessor block label *)
  switch_cases : (int64, Ir.Instr.label) Hashtbl.t option;
      (* case value -> target, when [term] is a [Switch] *)
  mutable exec_count : int;
      (* an immediate int, not an int64: incrementing it must not
         allocate (it happens once per dynamic block).  Fuel bounds the
         total far below [max_int]. *)
}

(* A pre-decoded terminator: targets are block indices, scrutinees and
   return operands are [src]s, switch tables are shared with
   [block_info.switch_cases]. *)
type tterm =
  | T_halt  (** [ret] of void *)
  | T_ret of src
  | T_br of int
  | T_cond of src * int * int
  | T_cond_s of int * int * int
      (** the common slot-scrutinee conditional, pre-split so the hot
          loop skips the [src] match *)
  | T_cmp_br of (Ir.Eval.value array -> bool) * int * int
      (** a compare-and-branch superinstruction: the block's trailing
          compare (whose result fed only this terminator) fused into
          the branch decision, skipping the boolean's materialization *)
  | T_switch of src * int * (int64, Ir.Instr.label) Hashtbl.t

(* Register class under the typed-register-file knob ([tuning.regalloc]),
   from the declared register type.  Every register of a function lives
   in exactly one unboxed slot array of its {!frame}; [C_boxed] covers
   registers with no declared type ([Void]), which keep the boxed
   representation. *)
type rclass = C_int | C_float | C_ptr | C_boxed

(* A typed register file: one invocation's registers, partitioned by
   {!rclass} into parallel unboxed slot lanes.  Registers are renumbered
   per class at compile time ({!func_info.rslots}).  The int lane is a
   [Bytes] buffer of 8-byte cells ({!iget}/{!iset}), the float lane a
   flat float array, the address lane an int array, so int, float and
   address traffic reads and writes machine scalars without boxing.
   Frames are pooled per function and recursion depth
   ({!func_info.rframes}) and re-zeroed on reuse, so a guest call
   allocates no frame once its depth has been reached before.  Measured
   minor-heap words per dynamic instruction are in DESIGN.md §14. *)
type frame = {
  fr_i : Bytes.t;
  fr_f : float array;
  fr_p : int array;
  fr_v : Ir.Eval.value array;
}

type func_info = {
  func : Ir.Func.t;
  blocks : block_info array;
  reg_tys : Ir.Ty.t array;  (* type of each register, Void if undefined *)
  use_counts : int array;
      (* static use count of each register over the whole function
         (operands and terminators, phis included).  The fusion pass
         may skip writing an intermediate register only when its count
         is exactly 1: the register file is not part of the outcome,
         and nothing else reads the slot. *)
  mutable tblocks : tblock array;
      (* threaded code, [||] until {!compile_func} runs for this
         function (the reference engine never compiles) *)
  mutable rclasses : rclass array;
      (* per-register class, [||] until {!compile_rfunc} runs (only
         under the [regalloc] knob) *)
  mutable rslots : int array;
      (* per-register index inside its class's frame array — the
         per-class renumbering; [||] until {!compile_rfunc} runs *)
  mutable rcounts : int array;
      (* frame-array lengths, indexed [C_int; C_float; C_ptr; C_boxed];
         [||] until {!compile_rfunc} runs *)
  mutable rtblocks : rtblock array;
      (* typed-register-file threaded code, [||] until
         {!compile_rfunc} runs (only under the [regalloc] knob) *)
  mutable rframes : frame array;
      (* typed frame pool: [rframes.(k)] is the frame of this
         function's activation at recursion depth [k] (grown on demand,
         re-zeroed on reuse) *)
  mutable rdepth : int;  (* live activations of this function *)
}

(* One compiled block of the threaded engine.  Blocks are compiled per
   run, after the run's [state] exists, so op closures capture the
   state (and the memory, the CI registry, callee [func_info]s, ...)
   directly instead of receiving them as arguments.  The cycle charges
   of {!Jit_model.block_execution_cycles} only depend on whether the
   block is past warm-up, so both branches are precomputed here — the
   identical float operations, performed once. *)
and tblock = {
  t_info : block_info;  (* shared counters and static cycle data *)
  t_label : int;  (* this block's label, for linked re-dispatch *)
  t_ops : (Ir.Eval.value array -> unit) array;
      (* non-phi body, one pre-decoded closure per fused window (one
         per instruction when fusion is off) *)
  t_phi_dests : int array;
  t_phi_srcs : psrc array array;
  t_phi_scratch : Ir.Eval.value array;
      (* staging buffer for the parallel phi assignment; safe to reuse
         because the phi prologue cannot re-enter this function *)
  t_term : tterm;
  mutable t_link : linkterm;
      (* the linked form of [t_term]: successor labels resolved to the
         successor [tblock]s themselves.  [L_none] until {!link_func}
         patches the function (and permanently for terminators whose
         labels fall outside the function — those keep faulting through
         the indexed path, like the unlinked engine). *)
  t_sync : bool;
      (* block contains a resolved user call or custom instruction, so
         the interpreter's local fuel / clock accumulators must be
         written back to the shared [state] before the body runs and
         re-read after *)
  t_fuel : int;  (* ninstrs + 1 *)
  t_native : float;  (* float_of_int static_cycles *)
  t_hot : float;  (* post-warm-up VM charge per execution *)
  t_cold : float;  (* interpreted VM charge per execution *)
}

(* A linked terminator: control transfers to the successor's compiled
   block directly, without going back through the indexed dispatch of
   the interpreter loop. *)
and linkterm =
  | L_none
  | L_halt
  | L_ret of src
  | L_br of tblock
  | L_cond of src * tblock * tblock
  | L_cond_s of int * tblock * tblock
  | L_cmp_br of (Ir.Eval.value array -> bool) * tblock * tblock
  | L_switch of src * tblock * (int64, tblock) Hashtbl.t

(* One compiled block of the typed-register-file engine
   ([tuning.regalloc]).  Same shape as {!tblock}, but every op closure
   works over a {!frame} — int/float/address traffic reads and writes
   the unboxed slot arrays directly, and boxed [Ir.Eval.value]s appear
   only at the seams (call/return, CI dispatch, intrinsics, memory
   cells, [C_boxed] registers). *)
and rtblock = {
  r_info : block_info;  (* shared counters and static cycle data *)
  r_label : int;
  r_ops : (frame -> unit) array;
  r_phi_rows : (frame -> unit) array;
      (* the whole phi prologue, pre-compiled per predecessor label:
         [r_phi_rows.(pred)] stages every phi's incoming value into
         per-class scratch and then commits — [||] when the block has
         no phis.  Staging buffers are safe to reuse because the phi
         prologue cannot re-enter this function. *)
  r_term : rterm;
  mutable r_link : rlinkterm;
  r_sync : bool;
      (* block contains a resolved user call or custom instruction: the
         executor's local fuel counter is written back to the shared
         [state] around the body *)
  r_fuel : int;
  r_native : float;
  r_hot : float;
  r_cold : float;
}

(* A pre-decoded terminator over typed register files.  Scrutinees and
   return operands are compiled accessors rather than [src]s: the class
   dispatch happens at compile time, not per execution.  [R_ret] writes
   the returned operand into the state's typed return lanes
   ({!state.ret}), so a typed result crosses the call seam unboxed. *)
and rterm =
  | R_halt
  | R_ret of (frame -> unit)
  | R_br of int
  | R_cond of (frame -> bool) * int * int
  | R_cmp_br of (frame -> bool) * int * int
      (** fused compare-and-branch, like {!T_cmp_br}: faults inside the
          condition are re-wrapped by the executor *)
  | R_switch of (frame -> int64) * int * (int64, Ir.Instr.label) Hashtbl.t

and rlinkterm =
  | RL_none
  | RL_halt
  | RL_ret of (frame -> unit)
  | RL_br of rtblock
  | RL_cond of (frame -> bool) * rtblock * rtblock
  | RL_cmp_br of (frame -> bool) * rtblock * rtblock
  | RL_switch of (frame -> int64) * rtblock * (int64, rtblock) Hashtbl.t

and state = {
  funcs : (string, func_info) Hashtbl.t;
  memory : Memory.t;
  jit : Jit_model.t;
  cis : ci_registry;
  swap : (int, float ref) Hashtbl.t option;
      (* online hot-swap: per-CI cycle-charge cells read at dispatch
         instead of the statically bound charge; [None] (no monitor)
         keeps the compiled fast path untouched *)
  tuning : tuning;
      (* threaded-engine optimization knobs; ignored by the reference
         engine *)
  max_depth : int;  (* limit on live guest activations *)
  mutable depth : int;  (* live guest activations, all functions *)
  mutable mon : (func:string -> label:int -> ninstrs:int -> unit) option;
  clk : float array;
      (* [| native; vm |] clocks, in cycles.  A flat float array, so a
         clock charge is an unboxed store (a mutable float field of a
         mixed record would box on every write). *)
  mutable fuel : int64;  (* remaining dynamic instructions; negative = out *)
  mutable spent : int;
      (* typed engine: dynamic instructions charged so far, against
         [limit] (immediate ints, so the bookkeeping never allocates;
         the boxed engines count down [fuel] instead) *)
  limit : int;  (* [fuel] at run start, clamped to the native int range *)
  mutable hops : int;
      (* typed engine: direct linked transfers left before the next
         trip through the indexed dispatch path *)
  ret : frame;
      (* typed return lanes: a returning typed function writes its
         result into slot 0 of the lane of the returned operand's class
         and names that lane in [ret_lane]; the caller reads it straight
         into its destination slot *)
  mutable ret_lane : rclass option;  (* [None]: the callee returned void *)
}

let prepare_func (m : Ir.Irmod.t) (f : Ir.Func.t) : func_info =
  let is_user_func name = Ir.Irmod.find_func m name <> None in
  let reg_tys = Array.make (max 1 f.Ir.Func.next_reg) Ir.Ty.Void in
  List.iter (fun (r, ty) -> reg_tys.(r) <- ty) f.Ir.Func.params;
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      if i.Ir.Instr.id < Array.length reg_tys then
        reg_tys.(i.Ir.Instr.id) <- i.Ir.Instr.ty)
    f;
  let nblocks = Array.length f.Ir.Func.blocks in
  let blocks =
    Array.map
      (fun (b : Ir.Block.t) ->
        let instrs = Array.of_list b.Ir.Block.instrs in
        let static_cycles =
          Array.fold_left
            (fun acc (i : Ir.Instr.t) ->
              acc
              +
              match i.Ir.Instr.kind with
              | Ir.Instr.Call (name, _) when is_user_func name ->
                  Ir.Cost.call_linkage_cycles
              | kind -> Ir.Cost.cycles kind)
            0 instrs
          + Ir.Cost.terminator_cycles b.Ir.Block.term
        in
        let n = Array.length instrs in
        let phi_count =
          let rec go k =
            if
              k < n
              &&
              match instrs.(k).Ir.Instr.kind with
              | Ir.Instr.Phi _ -> true
              | _ -> false
            then go (k + 1)
            else k
          in
          go 0
        in
        let phi_dests =
          Array.init phi_count (fun k -> instrs.(k).Ir.Instr.id)
        in
        let phi_incoming =
          Array.init phi_count (fun k ->
              match instrs.(k).Ir.Instr.kind with
              | Ir.Instr.Phi incoming ->
                  let row = Array.make nblocks None in
                  (* first match wins, like List.assoc_opt did; labels
                     outside the function are unreachable dead entries *)
                  List.iter
                    (fun (pred, op) ->
                      if pred >= 0 && pred < nblocks then
                        match row.(pred) with
                        | None -> row.(pred) <- Some op
                        | Some _ -> ())
                    incoming;
                  row
              | _ -> assert false)
        in
        let switch_cases =
          match b.Ir.Block.term with
          | Ir.Instr.Switch (_, _, cases) ->
              let tbl = Hashtbl.create (max 4 (List.length cases)) in
              (* first match wins, like List.assoc_opt did *)
              List.iter
                (fun (v, l) -> if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v l)
                cases;
              Some tbl
          | _ -> None
        in
        {
          instrs;
          term = b.Ir.Block.term;
          ninstrs = n;
          static_cycles;
          phi_count;
          phi_dests;
          phi_incoming;
          switch_cases;
          exec_count = 0;
        })
      f.Ir.Func.blocks
  in
  let use_counts = Array.make (max 1 f.Ir.Func.next_reg) 0 in
  let count_op = function
    | Ir.Instr.Reg r when r >= 0 && r < Array.length use_counts ->
        use_counts.(r) <- use_counts.(r) + 1
    | _ -> ()
  in
  Ir.Func.iter_instrs
    (fun _ (i : Ir.Instr.t) ->
      List.iter count_op (Ir.Instr.operands i.Ir.Instr.kind))
    f;
  Array.iter
    (fun (b : Ir.Block.t) ->
      List.iter count_op (Ir.Instr.terminator_operands b.Ir.Block.term))
    f.Ir.Func.blocks;
  {
    func = f;
    blocks;
    reg_tys;
    use_counts;
    tblocks = [||];
    rclasses = [||];
    rslots = [||];
    rcounts = [||];
    rtblocks = [||];
    rframes = [||];
    rdepth = 0;
  }

(* ------------------------------------------------------------------ *)
(* Reference engine                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ret : Ir.Eval.value option;
  native_cycles : float;
  vm_cycles : float;
  profile : Profile.t;
  memory : Memory.t;
}

(** Simulated seconds for a cycle count, at the PowerPC 405 clock. *)
let seconds_of_cycles c = c *. Ir.Cost.cycle_time

(** Handle an online controller uses to observe and steer a run from
    inside the monitor callback.  Only valid during the callback: the
    threaded engine flushes its local accumulators to the shared state
    before invoking the monitor and reloads them after, so the clocks
    read consistently and stalls/rebinds land between blocks without
    disturbing the fused closures. *)
type control = {
  ctl_native : unit -> float;  (** native clock, cycles *)
  ctl_vm : unit -> float;  (** VM clock, cycles *)
  ctl_stall : float -> unit;
      (** charge a stall (e.g. a reconfiguration wait) to both clocks *)
  ctl_bind : int -> float -> unit;
      (** set the per-dispatch cycle charge of a CI — the hot-swap
          point: software-mode and hardware-mode cost per call *)
  ctl_charge : int -> float option;  (** current per-dispatch charge *)
}

(** A monitor receives the {!control} handle at run start (before any
    block executes) and returns a callback invoked once per dynamic
    basic block, after that block's clock charge.  When absent, the run
    takes exactly the unmonitored code path — byte-identical clocks. *)
type monitor = control -> func:string -> label:int -> ninstrs:int -> unit

(* The call-depth limit ([Machine.run ?max_depth]).  Every engine checks
   it when a call is about to open a new activation — before the
   callee's arity check and before any of its work — so the same
   dynamic call faults with the same message everywhere, and deep guest
   recursion never reaches the host stack limit. *)
let depth_exceeded (st : state) name =
  fault "@%s: call depth exceeds the limit of %d" name st.max_depth

let value_of_operand regs = function
  | Ir.Instr.Const c -> Ir.Eval.of_const c
  | Ir.Instr.Reg r -> regs.(r)

let rec exec_func (st : state) (fi : func_info) (args : Ir.Eval.value array) :
    Ir.Eval.value option =
  let f = fi.func in
  if st.depth >= st.max_depth then depth_exceeded st f.Ir.Func.name;
  st.depth <- st.depth + 1;
  if Array.length args <> List.length f.Ir.Func.params then
    fault "@%s: expected %d arguments, got %d" f.Ir.Func.name
      (List.length f.Ir.Func.params)
      (Array.length args);
  let regs = Array.make (max 1 f.Ir.Func.next_reg) (Ir.Eval.VInt 0L) in
  Array.iteri (fun i v -> regs.(i) <- v) args;
  let frame_mark = Memory.mark st.memory in
  let finish v =
    Memory.release st.memory frame_mark;
    st.depth <- st.depth - 1;
    v
  in
  let cur = ref Ir.Func.entry_label in
  let prev = ref (-1) in
  let result = ref None in
  let running = ref true in
  while !running do
    let bi = fi.blocks.(!cur) in
    (* Fuel. *)
    st.fuel <- Int64.sub st.fuel (Int64.of_int (bi.ninstrs + 1));
    if st.fuel < 0L then fault "execution budget exhausted in @%s" f.Ir.Func.name;
    (* Profile and clocks.  [prior] is the pre-increment count used by
       the JIT warm-up model. *)
    let prior = bi.exec_count in
    bi.exec_count <- prior + 1;
    st.clk.(0) <- st.clk.(0) +. float_of_int bi.static_cycles;
    st.clk.(1) <-
      st.clk.(1)
      +. Jit_model.block_execution_cycles st.jit ~prior:(Int64.of_int prior)
           ~ninstrs:bi.ninstrs ~native_cycles:bi.static_cycles;
    (match st.mon with
    | None -> ()
    | Some mon -> mon ~func:f.Ir.Func.name ~label:!cur ~ninstrs:bi.ninstrs);
    (* Phis first, read atomically: the incoming operand per
       predecessor was pre-resolved into an array in [prepare_func]. *)
    let n = bi.ninstrs in
    let nphi = bi.phi_count in
    if nphi > 0 then begin
      let staged = Array.make nphi (Ir.Eval.VInt 0L) in
      for k = 0 to nphi - 1 do
        let row = bi.phi_incoming.(k) in
        match
          if !prev >= 0 && !prev < Array.length row then row.(!prev) else None
        with
        | Some op -> staged.(k) <- value_of_operand regs op
        | None ->
            fault "@%s/bb%d: phi has no entry for predecessor bb%d"
              f.Ir.Func.name !cur !prev
      done;
      for k = 0 to nphi - 1 do
        regs.(bi.phi_dests.(k)) <- staged.(k)
      done
    end;
    (* Straight-line body. *)
    for k = nphi to n - 1 do
      let i = bi.instrs.(k) in
      let v op = value_of_operand regs op in
      let set x = regs.(i.Ir.Instr.id) <- x in
      try
        match i.Ir.Instr.kind with
        | Ir.Instr.Phi _ ->
            fault "@%s/bb%d: phi after non-phi" f.Ir.Func.name !cur
        | Ir.Instr.Binop (op, a, b) ->
            set (Ir.Eval.eval_binop i.Ir.Instr.ty op (v a) (v b))
        | Ir.Instr.Icmp (p, a, b) -> set (Ir.Eval.eval_icmp p (v a) (v b))
        | Ir.Instr.Fcmp (p, a, b) -> set (Ir.Eval.eval_fcmp p (v a) (v b))
        | Ir.Instr.Cast (c, a) ->
            let from_ =
              match a with
              | Ir.Instr.Const cst -> Ir.Instr.const_ty cst
              | Ir.Instr.Reg r -> fi.reg_tys.(r)
            in
            set (Ir.Eval.eval_cast c ~from_ ~to_:i.Ir.Instr.ty (v a))
        | Ir.Instr.Select (c, a, b) ->
            set (Ir.Eval.eval_select (v c) (v a) (v b))
        | Ir.Instr.Alloca (_, count) ->
            set (Ir.Eval.VPtr (Memory.alloc st.memory count))
        | Ir.Instr.Load a -> set (Memory.load st.memory (Ir.Eval.as_ptr (v a)))
        | Ir.Instr.Store (x, a) ->
            Memory.store st.memory (Ir.Eval.as_ptr (v a)) (v x)
        | Ir.Instr.Gep (base, idx) ->
            set
              (Ir.Eval.VPtr
                 (Ir.Eval.as_ptr (v base) + Int64.to_int (Ir.Eval.as_int (v idx))))
        | Ir.Instr.Gaddr g -> set (Ir.Eval.VPtr (Memory.global_base st.memory g))
        | Ir.Instr.Call (name, argops) -> (
            let argv = Array.of_list (List.map v argops) in
            match Hashtbl.find_opt st.funcs name with
            | Some callee -> (
                match exec_func st callee argv with
                | Some r -> set r
                | None -> ())
            | None ->
                if is_intrinsic name then set (intrinsic name argv)
                else fault "call to unknown function @%s" name)
        | Ir.Instr.Ci_call (ci, argops) -> (
            match Hashtbl.find_opt st.cis ci with
            | Some impl ->
                let argv = Array.of_list (List.map v argops) in
                set (impl.ci_eval argv);
                let cyc =
                  match st.swap with
                  | None -> float_of_int impl.ci_cycles
                  | Some cells -> (
                      match Hashtbl.find_opt cells ci with
                      | Some c -> !c
                      | None -> float_of_int impl.ci_cycles)
                in
                st.clk.(0) <- st.clk.(0) +. cyc;
                st.clk.(1) <- st.clk.(1) +. cyc
            | None -> fault "custom instruction #%d is not configured" ci)
      with
      | Ir.Eval.Division_by_zero ->
          fault "@%s/bb%d: division by zero" f.Ir.Func.name !cur
      | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" f.Ir.Func.name !cur m
      | Memory.Bad_address a ->
          fault "@%s/bb%d: bad address %d" f.Ir.Func.name !cur a
      | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name
    done;
    (* Terminator. *)
    (match bi.term with
    | Ir.Instr.Ret op ->
        result := Option.map (value_of_operand regs) op;
        running := false
    | Ir.Instr.Br l ->
        prev := !cur;
        cur := l
    | Ir.Instr.Cond_br (c, a, b) ->
        prev := !cur;
        cur := (if Ir.Eval.is_true (value_of_operand regs c) then a else b)
    | Ir.Instr.Switch (s, default, _) ->
        let sv = Ir.Eval.as_int (value_of_operand regs s) in
        let tbl =
          match bi.switch_cases with Some tbl -> tbl | None -> assert false
        in
        prev := !cur;
        cur := (match Hashtbl.find_opt tbl sv with Some l -> l | None -> default))
  done;
  finish !result

(* ------------------------------------------------------------------ *)
(* Threaded engine                                                     *)
(* ------------------------------------------------------------------ *)

(* Closure-shape helpers: specialize the four slot/immediate operand
   combinations so the hot path never matches a [src] constructor.
   Every function call executes on a fresh register file of [nregs]
   slots, so slot indices can be bounds-checked once at compile time
   and the hot path can use unchecked accesses.  A block that somehow
   references an out-of-range slot (the builder and verifier exclude
   this) falls back to checked accesses, which raise the same
   [Invalid_argument] the reference engine's [regs.(r)] would. *)
let slot_ok nregs = function
  | Slot r -> r >= 0 && r < nregs
  | Imm _ -> true

let bin_closure ~nregs (f : Ir.Eval.value -> Ir.Eval.value -> Ir.Eval.value) d
    sa sb : Ir.Eval.value array -> unit =
  if d >= 0 && d < nregs && slot_ok nregs sa && slot_ok nregs sb then
    match (sa, sb) with
    | Slot ra, Slot rb ->
        fun regs ->
          Array.unsafe_set regs d
            (f (Array.unsafe_get regs ra) (Array.unsafe_get regs rb))
    | Slot ra, Imm vb ->
        fun regs -> Array.unsafe_set regs d (f (Array.unsafe_get regs ra) vb)
    | Imm va, Slot rb ->
        fun regs -> Array.unsafe_set regs d (f va (Array.unsafe_get regs rb))
    | Imm va, Imm vb -> fun regs -> Array.unsafe_set regs d (f va vb)
  else
    match (sa, sb) with
    | Slot ra, Slot rb -> fun regs -> regs.(d) <- f regs.(ra) regs.(rb)
    | Slot ra, Imm vb -> fun regs -> regs.(d) <- f regs.(ra) vb
    | Imm va, Slot rb -> fun regs -> regs.(d) <- f va regs.(rb)
    | Imm va, Imm vb -> fun regs -> regs.(d) <- f va vb

(* [f] is applied per execution even for immediates: evaluating it at
   compile time would move a fault (a [Type_error] on a malformed
   constant, say) from execution to compilation — and compilation also
   covers blocks that never execute. *)
let un_closure ~nregs (f : Ir.Eval.value -> Ir.Eval.value) d sa :
    Ir.Eval.value array -> unit =
  if d >= 0 && d < nregs && slot_ok nregs sa then
    match sa with
    | Slot ra ->
        fun regs -> Array.unsafe_set regs d (f (Array.unsafe_get regs ra))
    | Imm va -> fun regs -> Array.unsafe_set regs d (f va)
  else
    match sa with
    | Slot ra -> fun regs -> regs.(d) <- f regs.(ra)
    | Imm va -> fun regs -> regs.(d) <- f va

let decode_operand : Ir.Instr.operand -> src = function
  | Ir.Instr.Const c -> Imm (Ir.Eval.of_const c)
  | Ir.Instr.Reg r -> Slot r

(* ------------------------------------------------------------------ *)
(* Fused fast paths                                                    *)
(* ------------------------------------------------------------------ *)

(* For the hottest operator x operand-shape combinations the op closure
   embeds the scalar semantics directly instead of calling the closure
   {!Ir.Eval.binop_fn} & co. would build, so the hot path makes one
   closure call instead of two.  The bodies are the same expressions
   the [Ir.Eval.*_fn] arms evaluate, composed from the same inlined
   Eval primitives ([as_int], [renorm], [umask], ...), with per-type
   constants ([norm_shift], shift and width masks) resolved at compile
   time.  Each fast path is gated on compile-time-validated slots and
   immediates whose conversion cannot fault; every other combination
   falls back to the generic closures, which keep the exact
   per-execution fault behavior.  The differential suite pins both
   engines to identical outcomes, so a semantic drift here cannot land
   silently. *)

module E = Ir.Eval

(* Module-local scalar kernels.  Dune's default (dev) profile compiles
   every module with [-opaque], so a call into {!Ir.Eval} never
   inlines, whatever its [[@inline]] attribute says: [E.renorm] or
   [E.round_f32] on an unboxed operand becomes an out-of-line call that
   boxes its int64/float argument and result on every typed operation.
   These copies are the same expressions, defined in this module so the
   non-flambda inliner can see them; {!Ir.Eval} stays the one reference
   semantics and the differential suite pins the two to identical
   outcomes.  The conversions raise the same constant-message
   [E.Type_error]s as their {!Ir.Eval} originals. *)
let[@inline] renorm sh v =
  if sh >= 0 then Int64.shift_right (Int64.shift_left v sh) sh
  else Int64.logand v 1L

let[@inline] round_f32 v = Int32.float_of_bits (Int32.bits_of_float v)

let[@inline] as_int : E.value -> int64 = function
  | E.VInt v -> v
  | E.VPtr p -> Int64.of_int p
  | E.VFloat _ -> raise (E.Type_error "expected an integer value")

let[@inline] as_float : E.value -> float = function
  | E.VFloat v -> v
  | E.VInt _ | E.VPtr _ -> raise (E.Type_error "expected a float value")

let[@inline] as_ptr : E.value -> int = function
  | E.VPtr p -> p
  | E.VInt v -> Int64.to_int v
  | E.VFloat _ -> raise (E.Type_error "expected an address")

let[@inline] is_true : E.value -> bool = function
  | E.VInt v -> v <> 0L
  | E.VFloat v -> v <> 0.0
  | E.VPtr p -> p <> 0

(* Unboxed int64 slots: the typed register file's int lane is a [Bytes]
   buffer of 8-byte cells, read and written with the unchecked 64-bit
   primitives, which ocamlopt compiles to plain loads and stores of an
   unboxed int64 (an [int64 array] boxes on every store).  The slot
   argument is a byte offset, resolved at compile time. *)
external iget : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external iset : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] geti regs r = as_int (Array.unsafe_get regs r)
let[@inline] getf regs r = as_float (Array.unsafe_get regs r)
let[@inline] seti regs d (v : int64) = Array.unsafe_set regs d (E.VInt v)
let[@inline] setf regs d (v : float) = Array.unsafe_set regs d (E.VFloat v)

(* Comparison results are shared preallocated values (they are
   immutable and compared structurally everywhere), so a fused compare
   does not allocate at all. *)
let vtrue = E.VInt 1L
let vfalse = E.VInt 0L
let[@inline] setb regs d b = Array.unsafe_set regs d (if b then vtrue else vfalse)

let compile_binop ~nregs (ty : Ir.Ty.t) (op : Ir.Instr.binop) d sa sb :
    E.value array -> unit =
  let generic () = bin_closure ~nregs (E.binop_fn ty op) d sa sb in
  let ok r = r >= 0 && r < nregs in
  if not (ok d) then generic ()
  else
    let sh = E.norm_shift ty in
    (* [shift_amount]'s and [umask]'s masks, recovered by feeding them
       all-ones — keeps Eval the single source of the bit arithmetic. *)
    let sm = E.shift_amount ty (-1L) in
    let um = E.umask ty (-1L) in
    match (op, sa, sb) with
    | Ir.Instr.Add, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d (renorm sh (Int64.add (geti regs a) (geti regs b)))
    | Ir.Instr.Add, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> seti regs d (renorm sh (Int64.add (geti regs a) ib))
    | Ir.Instr.Sub, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d (renorm sh (Int64.sub (geti regs a) (geti regs b)))
    | Ir.Instr.Sub, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> seti regs d (renorm sh (Int64.sub (geti regs a) ib))
    | Ir.Instr.Mul, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d (renorm sh (Int64.mul (geti regs a) (geti regs b)))
    | Ir.Instr.Mul, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> seti regs d (renorm sh (Int64.mul (geti regs a) ib))
    | Ir.Instr.And, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d (renorm sh (Int64.logand (geti regs a) (geti regs b)))
    | Ir.Instr.And, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> seti regs d (renorm sh (Int64.logand (geti regs a) ib))
    | Ir.Instr.Or, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d (renorm sh (Int64.logor (geti regs a) (geti regs b)))
    | Ir.Instr.Or, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> seti regs d (renorm sh (Int64.logor (geti regs a) ib))
    | Ir.Instr.Xor, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d (renorm sh (Int64.logxor (geti regs a) (geti regs b)))
    | Ir.Instr.Xor, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> seti regs d (renorm sh (Int64.logxor (geti regs a) ib))
    | Ir.Instr.Shl, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d
            (renorm sh
               (Int64.shift_left (geti regs a)
                  (Int64.to_int (geti regs b) land sm)))
    | Ir.Instr.Shl, Slot a, Imm (E.VInt ib) when ok a ->
        let n = E.shift_amount ty ib in
        fun regs -> seti regs d (renorm sh (Int64.shift_left (geti regs a) n))
    | Ir.Instr.Lshr, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d
            (renorm sh
               (Int64.shift_right_logical
                  (Int64.logand (geti regs a) um)
                  (Int64.to_int (geti regs b) land sm)))
    | Ir.Instr.Lshr, Slot a, Imm (E.VInt ib) when ok a ->
        let n = E.shift_amount ty ib in
        fun regs ->
          seti regs d
            (renorm sh
               (Int64.shift_right_logical (Int64.logand (geti regs a) um) n))
    | Ir.Instr.Ashr, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          seti regs d
            (renorm sh
               (Int64.shift_right (geti regs a)
                  (Int64.to_int (geti regs b) land sm)))
    | Ir.Instr.Ashr, Slot a, Imm (E.VInt ib) when ok a ->
        let n = E.shift_amount ty ib in
        fun regs ->
          seti regs d (renorm sh (Int64.shift_right (geti regs a) n))
    | Ir.Instr.Fadd, Slot a, Slot b when ty <> Ir.Ty.F32 && ok a && ok b ->
        fun regs -> setf regs d (getf regs a +. getf regs b)
    | Ir.Instr.Fadd, Slot a, Imm (E.VFloat fb) when ty <> Ir.Ty.F32 && ok a ->
        fun regs -> setf regs d (getf regs a +. fb)
    | Ir.Instr.Fsub, Slot a, Slot b when ty <> Ir.Ty.F32 && ok a && ok b ->
        fun regs -> setf regs d (getf regs a -. getf regs b)
    | Ir.Instr.Fsub, Slot a, Imm (E.VFloat fb) when ty <> Ir.Ty.F32 && ok a ->
        fun regs -> setf regs d (getf regs a -. fb)
    | Ir.Instr.Fmul, Slot a, Slot b when ty <> Ir.Ty.F32 && ok a && ok b ->
        fun regs -> setf regs d (getf regs a *. getf regs b)
    | Ir.Instr.Fmul, Slot a, Imm (E.VFloat fb) when ty <> Ir.Ty.F32 && ok a ->
        fun regs -> setf regs d (getf regs a *. fb)
    | Ir.Instr.Fdiv, Slot a, Slot b when ty <> Ir.Ty.F32 && ok a && ok b ->
        fun regs -> setf regs d (getf regs a /. getf regs b)
    | Ir.Instr.Fdiv, Slot a, Imm (E.VFloat fb) when ty <> Ir.Ty.F32 && ok a ->
        fun regs -> setf regs d (getf regs a /. fb)
    | _ -> generic ()

let compile_icmp ~nregs (p : Ir.Instr.icmp_pred) d sa sb :
    E.value array -> unit =
  let generic () = bin_closure ~nregs (E.icmp_fn p) d sa sb in
  let ok r = r >= 0 && r < nregs in
  if not (ok d) then generic ()
  else
    match (p, sa, sb) with
    | Ir.Instr.Ieq, Slot a, Slot b when ok a && ok b ->
        fun regs -> setb regs d (Int64.equal (geti regs a) (geti regs b))
    | Ir.Instr.Ieq, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.equal (geti regs a) ib)
    | Ir.Instr.Ine, Slot a, Slot b when ok a && ok b ->
        fun regs -> setb regs d (not (Int64.equal (geti regs a) (geti regs b)))
    | Ir.Instr.Ine, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (not (Int64.equal (geti regs a) ib))
    | Ir.Instr.Islt, Slot a, Slot b when ok a && ok b ->
        fun regs -> setb regs d (Int64.compare (geti regs a) (geti regs b) < 0)
    | Ir.Instr.Islt, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.compare (geti regs a) ib < 0)
    | Ir.Instr.Isle, Slot a, Slot b when ok a && ok b ->
        fun regs -> setb regs d (Int64.compare (geti regs a) (geti regs b) <= 0)
    | Ir.Instr.Isle, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.compare (geti regs a) ib <= 0)
    | Ir.Instr.Isgt, Slot a, Slot b when ok a && ok b ->
        fun regs -> setb regs d (Int64.compare (geti regs a) (geti regs b) > 0)
    | Ir.Instr.Isgt, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.compare (geti regs a) ib > 0)
    | Ir.Instr.Isge, Slot a, Slot b when ok a && ok b ->
        fun regs -> setb regs d (Int64.compare (geti regs a) (geti regs b) >= 0)
    | Ir.Instr.Isge, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.compare (geti regs a) ib >= 0)
    | Ir.Instr.Iult, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          setb regs d (Int64.unsigned_compare (geti regs a) (geti regs b) < 0)
    | Ir.Instr.Iult, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.unsigned_compare (geti regs a) ib < 0)
    | Ir.Instr.Iule, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          setb regs d (Int64.unsigned_compare (geti regs a) (geti regs b) <= 0)
    | Ir.Instr.Iule, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.unsigned_compare (geti regs a) ib <= 0)
    | Ir.Instr.Iugt, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          setb regs d (Int64.unsigned_compare (geti regs a) (geti regs b) > 0)
    | Ir.Instr.Iugt, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.unsigned_compare (geti regs a) ib > 0)
    | Ir.Instr.Iuge, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          setb regs d (Int64.unsigned_compare (geti regs a) (geti regs b) >= 0)
    | Ir.Instr.Iuge, Slot a, Imm (E.VInt ib) when ok a ->
        fun regs -> setb regs d (Int64.unsigned_compare (geti regs a) ib >= 0)
    | _ -> generic ()

let compile_fcmp ~nregs (p : Ir.Instr.fcmp_pred) d sa sb :
    E.value array -> unit =
  let generic () = bin_closure ~nregs (E.fcmp_fn p) d sa sb in
  let ok r = r >= 0 && r < nregs in
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  if not (ok d) then generic ()
  else
    match (p, sa, sb) with
    | Ir.Instr.Foeq, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          let x = getf regs a and y = getf regs b in
          setb regs d (ord x y && x = y)
    | Ir.Instr.Foeq, Slot a, Imm (E.VFloat fb) when ok a ->
        fun regs ->
          let x = getf regs a in
          setb regs d (ord x fb && x = fb)
    | Ir.Instr.Fone, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          let x = getf regs a and y = getf regs b in
          setb regs d (ord x y && x <> y)
    | Ir.Instr.Fone, Slot a, Imm (E.VFloat fb) when ok a ->
        fun regs ->
          let x = getf regs a in
          setb regs d (ord x fb && x <> fb)
    | Ir.Instr.Folt, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          let x = getf regs a and y = getf regs b in
          setb regs d (ord x y && x < y)
    | Ir.Instr.Folt, Slot a, Imm (E.VFloat fb) when ok a ->
        fun regs ->
          let x = getf regs a in
          setb regs d (ord x fb && x < fb)
    | Ir.Instr.Fole, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          let x = getf regs a and y = getf regs b in
          setb regs d (ord x y && x <= y)
    | Ir.Instr.Fole, Slot a, Imm (E.VFloat fb) when ok a ->
        fun regs ->
          let x = getf regs a in
          setb regs d (ord x fb && x <= fb)
    | Ir.Instr.Fogt, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          let x = getf regs a and y = getf regs b in
          setb regs d (ord x y && x > y)
    | Ir.Instr.Fogt, Slot a, Imm (E.VFloat fb) when ok a ->
        fun regs ->
          let x = getf regs a in
          setb regs d (ord x fb && x > fb)
    | Ir.Instr.Foge, Slot a, Slot b when ok a && ok b ->
        fun regs ->
          let x = getf regs a and y = getf regs b in
          setb regs d (ord x y && x >= y)
    | Ir.Instr.Foge, Slot a, Imm (E.VFloat fb) when ok a ->
        fun regs ->
          let x = getf regs a in
          setb regs d (ord x fb && x >= fb)
    | _ -> generic ()

(* Argument evaluation for calls and custom instructions, specialized
   by arity: the generic [Array.map] version allocates a fresh
   intermediate closure on every dynamic call. *)
let args_fn (srcs : src array) : E.value array -> E.value array =
  match srcs with
  | [||] -> fun _ -> [||]
  | [| s0 |] -> fun regs -> [| fetch regs s0 |]
  | [| s0; s1 |] -> fun regs -> [| fetch regs s0; fetch regs s1 |]
  | [| s0; s1; s2 |] ->
      fun regs -> [| fetch regs s0; fetch regs s1; fetch regs s2 |]
  | [| s0; s1; s2; s3 |] ->
      fun regs ->
        [| fetch regs s0; fetch regs s1; fetch regs s2; fetch regs s3 |]
  | srcs -> fun regs -> Array.map (fun s -> fetch regs s) srcs

let compile_cast ~nregs (c : Ir.Instr.cast) ~from_ ~to_ d sa :
    E.value array -> unit =
  let generic () = un_closure ~nregs (E.cast_fn c ~from_ ~to_) d sa in
  let ok r = r >= 0 && r < nregs in
  if not (ok d) then generic ()
  else
    match (c, sa) with
    | (Ir.Instr.Trunc | Ir.Instr.Sext), Slot a when ok a ->
        let sh = E.norm_shift to_ in
        fun regs -> seti regs d (renorm sh (geti regs a))
    | Ir.Instr.Zext, Slot a when ok a ->
        let sh = E.norm_shift to_ in
        let um = E.umask from_ (-1L) in
        fun regs -> seti regs d (renorm sh (Int64.logand (geti regs a) um))
    | Ir.Instr.Fptosi, Slot a when ok a ->
        let sh = E.norm_shift to_ in
        fun regs ->
          let f = getf regs a in
          Array.unsafe_set regs d
            (if Float.is_nan f then E.VInt 0L
             else E.VInt (renorm sh (Int64.of_float f)))
    | Ir.Instr.Sitofp, Slot a when ok a && to_ <> Ir.Ty.F32 ->
        fun regs -> setf regs d (Int64.to_float (geti regs a))
    | Ir.Instr.Fpext, Slot a when ok a ->
        fun regs -> setf regs d (getf regs a)
    | _ -> generic ()

(* ------------------------------------------------------------------ *)
(* Superinstruction fusion                                             *)
(* ------------------------------------------------------------------ *)

(* Sink-tree fusion over a block's body.  A {e pure} producer whose
   destination register has a static use count of exactly 1
   ({!func_info.use_counts}) and whose single use is a later
   instruction of the same block is compiled {e into} its consumer's
   closure; its standalone dispatch and its boxed register write (a
   [caml_modify] barrier) disappear.  Absorption is recursive, so whole
   address-computation and arithmetic chains collapse into the
   instructions that anchor them — loads, stores, divisions, multi-use
   definitions and the block terminator — even when an optimizing
   frontend interleaved the chains in the schedule (adjacency is not
   required, unlike a peephole window).

   Sinkable producer kinds: non-dividing [Binop], [Icmp], [Fcmp],
   [Cast], [Select], [Gep] and [Gaddr].  Everything else is an anchor
   and keeps its body position: loads read memory (deferring one past
   a store would change the value), divisions and allocations fault,
   calls and CI calls touch the shared machine state, and a multi-use
   definition must still materialize its register.

   Why this is byte-identical to the unfused engines:

   - register files are per-invocation and SSA-shaped: within one
     execution of the block each register is written at most once, and
     a producer's operands are defined before it, so the slots a sunk
     producer reads hold the same values at the consumer's position as
     they did at its own;
   - no sinkable kind reads memory, so stores between the producer's
     and the consumer's positions are unobservable to the moved code;
   - sinkable kinds cannot fault on executions where the operand's
     runtime type matches its declared register type — the only
     programs that could observe a fault {e reordering} are
     runtime-type-confused ones (memory cells are untyped), and the
     determinism contract (DESIGN.md §13–§14) pins outcomes for type-sound
     executions; the fault {e set} and messages are unchanged either
     way;
   - modeled cycles, fuel and profiles are computed from the original
     instruction counts, never from the closure count — fusion changes
     how many host closures run, not the simulated machine;
   - skipping the absorbed producer's register write is unobservable:
     the register file is not part of the VM outcome and no other
     instruction reads the slot (static use count 1).

   Within a fused closure, operands are evaluated left-to-right in
   operand order (explicit [let]s), each subtree fully before the
   consumer's own conversions.  Per-anchor hit counters
   ({!fusion_stats}, surfaced by [--stage-stats]) make the pass
   auditable. *)

let binop_name : Ir.Instr.binop -> string = function
  | Ir.Instr.Add -> "add"
  | Ir.Instr.Sub -> "sub"
  | Ir.Instr.Mul -> "mul"
  | Ir.Instr.Sdiv -> "sdiv"
  | Ir.Instr.Udiv -> "udiv"
  | Ir.Instr.Srem -> "srem"
  | Ir.Instr.Urem -> "urem"
  | Ir.Instr.And -> "and"
  | Ir.Instr.Or -> "or"
  | Ir.Instr.Xor -> "xor"
  | Ir.Instr.Shl -> "shl"
  | Ir.Instr.Lshr -> "lshr"
  | Ir.Instr.Ashr -> "ashr"
  | Ir.Instr.Fadd -> "fadd"
  | Ir.Instr.Fsub -> "fsub"
  | Ir.Instr.Fmul -> "fmul"
  | Ir.Instr.Fdiv -> "fdiv"

(* Unboxed comparison predicates for the tree compiler — one arm per
   predicate like {!Ir.Eval.icmp_fn}/{!Ir.Eval.fcmp_fn}, over already
   converted scalars. *)
let icmp_bool : Ir.Instr.icmp_pred -> int64 -> int64 -> bool = function
  | Ir.Instr.Ieq -> Int64.equal
  | Ir.Instr.Ine -> fun x y -> not (Int64.equal x y)
  | Ir.Instr.Islt -> fun x y -> Int64.compare x y < 0
  | Ir.Instr.Isle -> fun x y -> Int64.compare x y <= 0
  | Ir.Instr.Isgt -> fun x y -> Int64.compare x y > 0
  | Ir.Instr.Isge -> fun x y -> Int64.compare x y >= 0
  | Ir.Instr.Iult -> fun x y -> Int64.unsigned_compare x y < 0
  | Ir.Instr.Iule -> fun x y -> Int64.unsigned_compare x y <= 0
  | Ir.Instr.Iugt -> fun x y -> Int64.unsigned_compare x y > 0
  | Ir.Instr.Iuge -> fun x y -> Int64.unsigned_compare x y >= 0

let fcmp_bool : Ir.Instr.fcmp_pred -> float -> float -> bool =
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  function
  | Ir.Instr.Foeq -> fun x y -> ord x y && x = y
  | Ir.Instr.Fone -> fun x y -> ord x y && x <> y
  | Ir.Instr.Folt -> fun x y -> ord x y && x < y
  | Ir.Instr.Fole -> fun x y -> ord x y && x <= y
  | Ir.Instr.Fogt -> fun x y -> ord x y && x > y
  | Ir.Instr.Foge -> fun x y -> ord x y && x >= y

(* Leaf-resolved typed operands for the tree compiler.  A slot or
   constant leaf is inlined into the consuming node's closure body by
   the per-operator combination arms; only a nested tree ([IFun] & co.)
   costs a closure call.  The [int] of [parg] and the [bool] of a
   compare tree are immediates, so address and test chains return
   unboxed; the [int64]/[float] results of a nested [IFun]/[FFun] still
   box on return (the generic calling convention has no unboxed
   returns). *)
type iarg = ISlot of int | IConst of int64 | IFun of (E.value array -> int64)
type farg = FSlot of int | FConst of float | FFun of (E.value array -> float)
type parg = PSlot of int | PConst of int | PFun of (E.value array -> int)

let ifn : iarg -> E.value array -> int64 = function
  | ISlot r -> fun regs -> geti regs r
  | IConst k -> fun _ -> k
  | IFun f -> f

let ffn : farg -> E.value array -> float = function
  | FSlot r -> fun regs -> getf regs r
  | FConst k -> fun _ -> k
  | FFun f -> f

let pfn : parg -> E.value array -> int = function
  | PSlot r -> fun regs -> as_ptr (Array.unsafe_get regs r)
  | PConst p -> fun _ -> p
  | PFun f -> f

(* Boolean form of a compile-time-safe compare — the flat fast path of
   the compare-and-branch terminator fusion (no intermediate [value]
   is materialized at all).  Same shapes and conversion order as
   [compile_icmp]/[compile_fcmp]. *)
let bool_cmp ~nregs (i : Ir.Instr.t) : (E.value array -> bool) option =
  let ok r = r >= 0 && r < nregs in
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  match i.Ir.Instr.kind with
  | Ir.Instr.Icmp (p, a, b) -> (
      match (p, decode_operand a, decode_operand b) with
      | Ir.Instr.Ieq, Slot a, Slot b when ok a && ok b ->
          Some (fun regs -> Int64.equal (geti regs a) (geti regs b))
      | Ir.Instr.Ieq, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.equal (geti regs a) ib)
      | Ir.Instr.Ine, Slot a, Slot b when ok a && ok b ->
          Some (fun regs -> not (Int64.equal (geti regs a) (geti regs b)))
      | Ir.Instr.Ine, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> not (Int64.equal (geti regs a) ib))
      | Ir.Instr.Islt, Slot a, Slot b when ok a && ok b ->
          Some (fun regs -> Int64.compare (geti regs a) (geti regs b) < 0)
      | Ir.Instr.Islt, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.compare (geti regs a) ib < 0)
      | Ir.Instr.Isle, Slot a, Slot b when ok a && ok b ->
          Some (fun regs -> Int64.compare (geti regs a) (geti regs b) <= 0)
      | Ir.Instr.Isle, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.compare (geti regs a) ib <= 0)
      | Ir.Instr.Isgt, Slot a, Slot b when ok a && ok b ->
          Some (fun regs -> Int64.compare (geti regs a) (geti regs b) > 0)
      | Ir.Instr.Isgt, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.compare (geti regs a) ib > 0)
      | Ir.Instr.Isge, Slot a, Slot b when ok a && ok b ->
          Some (fun regs -> Int64.compare (geti regs a) (geti regs b) >= 0)
      | Ir.Instr.Isge, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.compare (geti regs a) ib >= 0)
      | Ir.Instr.Iult, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs -> Int64.unsigned_compare (geti regs a) (geti regs b) < 0)
      | Ir.Instr.Iult, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.unsigned_compare (geti regs a) ib < 0)
      | Ir.Instr.Iule, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              Int64.unsigned_compare (geti regs a) (geti regs b) <= 0)
      | Ir.Instr.Iule, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.unsigned_compare (geti regs a) ib <= 0)
      | Ir.Instr.Iugt, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs -> Int64.unsigned_compare (geti regs a) (geti regs b) > 0)
      | Ir.Instr.Iugt, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.unsigned_compare (geti regs a) ib > 0)
      | Ir.Instr.Iuge, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              Int64.unsigned_compare (geti regs a) (geti regs b) >= 0)
      | Ir.Instr.Iuge, Slot a, Imm (E.VInt ib) when ok a ->
          Some (fun regs -> Int64.unsigned_compare (geti regs a) ib >= 0)
      | _ -> None)
  | Ir.Instr.Fcmp (p, a, b) -> (
      match (p, decode_operand a, decode_operand b) with
      | Ir.Instr.Foeq, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              let x = getf regs a and y = getf regs b in
              ord x y && x = y)
      | Ir.Instr.Foeq, Slot a, Imm (E.VFloat fb) when ok a ->
          Some
            (fun regs ->
              let x = getf regs a in
              ord x fb && x = fb)
      | Ir.Instr.Fone, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              let x = getf regs a and y = getf regs b in
              ord x y && x <> y)
      | Ir.Instr.Fone, Slot a, Imm (E.VFloat fb) when ok a ->
          Some
            (fun regs ->
              let x = getf regs a in
              ord x fb && x <> fb)
      | Ir.Instr.Folt, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              let x = getf regs a and y = getf regs b in
              ord x y && x < y)
      | Ir.Instr.Folt, Slot a, Imm (E.VFloat fb) when ok a ->
          Some
            (fun regs ->
              let x = getf regs a in
              ord x fb && x < fb)
      | Ir.Instr.Fole, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              let x = getf regs a and y = getf regs b in
              ord x y && x <= y)
      | Ir.Instr.Fole, Slot a, Imm (E.VFloat fb) when ok a ->
          Some
            (fun regs ->
              let x = getf regs a in
              ord x fb && x <= fb)
      | Ir.Instr.Fogt, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              let x = getf regs a and y = getf regs b in
              ord x y && x > y)
      | Ir.Instr.Fogt, Slot a, Imm (E.VFloat fb) when ok a ->
          Some
            (fun regs ->
              let x = getf regs a in
              ord x fb && x > fb)
      | Ir.Instr.Foge, Slot a, Slot b when ok a && ok b ->
          Some
            (fun regs ->
              let x = getf regs a and y = getf regs b in
              ord x y && x >= y)
      | Ir.Instr.Foge, Slot a, Imm (E.VFloat fb) when ok a ->
          Some
            (fun regs ->
              let x = getf regs a in
              ord x fb && x >= fb)
      | _ -> None)
  | _ -> None

(* Clamp an int64 to the native int range.  Fuel budgets and the
   warm-up threshold are kept as immediate ints inside the threaded
   interpreter so the per-block bookkeeping never allocates; a budget
   beyond [max_int] (4.6e18 dynamic instructions — centuries of
   simulated execution) is indistinguishable from unlimited. *)
let int_of_int64_clamped v =
  if Int64.compare v (Int64.of_int max_int) > 0 then max_int
  else if Int64.compare v (Int64.of_int min_int) < 0 then min_int
  else Int64.to_int v

(* ------------------------------------------------------------------ *)
(* Typed register files ([tuning.regalloc])                            *)
(* ------------------------------------------------------------------ *)

(* The typed-register-file compiler partitions a function's registers
   by declared type ({!rclass}) and compiles every operation into a
   closure over the {!frame}'s unboxed slot arrays.  The box/unbox
   seams are exactly: call arguments and returns, intrinsics, CI
   dispatch, [Memory] cells (which stay untyped boxed values) and
   [C_boxed] registers; calls between typed functions copy arguments
   slot to slot and return through typed lanes (the typed call seam,
   below).  Everything else — int/float binops, compares, casts, geps,
   load/store address arithmetic, phi staging, branch tests — moves
   machine scalars between unboxed lanes.  What still allocates is
   measured per workload in DESIGN.md §14 (0.01–0.44 minor words per
   dynamic instruction on the registry's first datasets, nearly all of
   it stores boxing values into memory cells).

   Conversion discipline: reading a slot in a class other than its own
   goes through the same conversions {!as_int} & co. perform on
   the boxed representation ([C_ptr] read as int is [Int64.of_int],
   [C_int] read as address is [Int64.to_int], float/integer crossings
   raise the same constant-message [Type_error]s), so type-sound
   executions are byte-identical to the boxed engines.  The one
   documented divergence (DESIGN.md §14): a type-{e confused} execution
   — a declared register type contradicting the runtime value, only
   reachable through untyped memory cells or call seams — may observe a
   conversion fault at the defining seam instead of at a later use, and
   pointer/integer values are canonicalized by the destination's class.
   The differential and tuning suites only assert type-sound
   programs. *)

let rclass_of_ty : Ir.Ty.t -> rclass = function
  | Ir.Ty.I1 | Ir.Ty.I8 | Ir.Ty.I16 | Ir.Ty.I32 | Ir.Ty.I64 -> C_int
  | Ir.Ty.F32 | Ir.Ty.F64 -> C_float
  | Ir.Ty.Ptr -> C_ptr
  | Ir.Ty.Void -> C_boxed

(* Slot readers, one per consuming class.  [slots.(r)] is register
   [r]'s index inside its class's frame array (the per-class
   renumbering).  An out-of-range register falls back to a checked
   read of the boxed lane, so malformed IR raises the same
   [Invalid_argument] the boxed engines' [regs.(r)] would. *)

let rrd_box (classes : rclass array) (slots : int array) (r : int) :
    frame -> E.value =
  if r >= 0 && r < Array.length classes then
    let s = slots.(r) in
    match classes.(r) with
    | C_int -> fun fr -> E.VInt (iget fr.fr_i s)
    | C_float -> fun fr -> E.VFloat (Array.unsafe_get fr.fr_f s)
    | C_ptr -> fun fr -> E.VPtr (Array.unsafe_get fr.fr_p s)
    | C_boxed -> fun fr -> Array.unsafe_get fr.fr_v s
  else fun fr -> fr.fr_v.(r)

let rrd_i (classes : rclass array) (slots : int array) (r : int) :
    frame -> int64 =
  if r >= 0 && r < Array.length classes then
    let s = slots.(r) in
    match classes.(r) with
    | C_int -> fun fr -> iget fr.fr_i s
    | C_ptr -> fun fr -> Int64.of_int (Array.unsafe_get fr.fr_p s)
    | C_float -> fun _ -> raise (E.Type_error "expected an integer value")
    | C_boxed -> fun fr -> as_int (Array.unsafe_get fr.fr_v s)
  else fun fr -> as_int fr.fr_v.(r)

let rrd_f (classes : rclass array) (slots : int array) (r : int) :
    frame -> float =
  if r >= 0 && r < Array.length classes then
    let s = slots.(r) in
    match classes.(r) with
    | C_float -> fun fr -> Array.unsafe_get fr.fr_f s
    | C_int | C_ptr -> fun _ -> raise (E.Type_error "expected a float value")
    | C_boxed -> fun fr -> as_float (Array.unsafe_get fr.fr_v s)
  else fun fr -> as_float fr.fr_v.(r)

let rrd_p (classes : rclass array) (slots : int array) (r : int) :
    frame -> int =
  if r >= 0 && r < Array.length classes then
    let s = slots.(r) in
    match classes.(r) with
    | C_ptr -> fun fr -> Array.unsafe_get fr.fr_p s
    | C_int -> fun fr -> Int64.to_int (iget fr.fr_i s)
    | C_float -> fun _ -> raise (E.Type_error "expected an address")
    | C_boxed -> fun fr -> as_ptr (Array.unsafe_get fr.fr_v s)
  else fun fr -> as_ptr fr.fr_v.(r)

(* Compile-time operand shapes.  A same-class register collapses to
   its frame-slot index ([RiS] & co.) so the consuming closure's body
   reads the unboxed array directly: a nested closure call would box
   its int64/float result on return (the generic calling convention
   has no unboxed returns), which is exactly the allocation the typed
   register file exists to remove.  Immediates whose conversion cannot
   fault are pre-resolved to scalar constants; everything else —
   cross-class and boxed registers, mismatched immediates — resolves
   to a residual closure with the standard conversions, faulting per
   execution like the boxed generic closures. *)
type ri = RiS of int | RiK of int64 | RiG of (frame -> int64)
type rf = RfS of int | RfK of float | RfG of (frame -> float)
type rp = RpS of int | RpK of int | RpG of (frame -> int)

let rarg_i (classes : rclass array) (slots : int array) : src -> ri = function
  | Slot r when r >= 0 && r < Array.length classes && classes.(r) = C_int ->
      RiS slots.(r)
  | Slot r -> RiG (rrd_i classes slots r)
  | Imm (E.VInt k) -> RiK k
  | Imm (E.VPtr p) -> RiK (Int64.of_int p)
  | Imm (E.VFloat _ as v) -> RiG (fun _ -> as_int v)

let rarg_f (classes : rclass array) (slots : int array) : src -> rf = function
  | Slot r when r >= 0 && r < Array.length classes && classes.(r) = C_float ->
      RfS slots.(r)
  | Slot r -> RfG (rrd_f classes slots r)
  | Imm (E.VFloat k) -> RfK k
  | Imm ((E.VInt _ | E.VPtr _) as v) -> RfG (fun _ -> as_float v)

let rarg_p (classes : rclass array) (slots : int array) : src -> rp = function
  | Slot r when r >= 0 && r < Array.length classes && classes.(r) = C_ptr ->
      RpS slots.(r)
  | Slot r -> RpG (rrd_p classes slots r)
  | Imm (E.VPtr p) -> RpK p
  | Imm (E.VInt k) -> RpK (Int64.to_int k)
  | Imm (E.VFloat _ as v) -> RpG (fun _ -> as_ptr v)

(* Closure form of a shape, for residual arms and class-generic
   consumers (phi staging of rare shapes, switch scrutinees, seams). *)
let ri_fn : ri -> frame -> int64 = function
  | RiS s -> fun fr -> iget fr.fr_i s
  | RiK k -> fun _ -> k
  | RiG g -> g

let rf_fn : rf -> frame -> float = function
  | RfS s -> fun fr -> Array.unsafe_get fr.fr_f s
  | RfK k -> fun _ -> k
  | RfG g -> g

let rp_fn : rp -> frame -> int = function
  | RpS s -> fun fr -> Array.unsafe_get fr.fr_p s
  | RpK p -> fun _ -> p
  | RpG g -> g

let rget_i classes slots (s : src) : frame -> int64 =
  ri_fn (rarg_i classes slots s)

let rget_p classes slots (s : src) : frame -> int =
  rp_fn (rarg_p classes slots s)

let rget_box (classes : rclass array) (slots : int array) :
    src -> frame -> E.value = function
  | Slot r -> rrd_box classes slots r
  | Imm v -> fun _ -> v

(* Boxed write to a typed destination: the value is converted into the
   destination's class with the standard conversions.  This is the
   seam where call/intrinsic/CI results and loaded cells enter the
   typed register file. *)
let rwr_box (classes : rclass array) (slots : int array) (d : int) :
    frame -> E.value -> unit =
  if d >= 0 && d < Array.length classes then
    let s = slots.(d) in
    match classes.(d) with
    | C_int -> fun fr v -> iset fr.fr_i s (as_int v)
    | C_float -> fun fr v -> Array.unsafe_set fr.fr_f s (as_float v)
    | C_ptr -> fun fr v -> Array.unsafe_set fr.fr_p s (as_ptr v)
    | C_boxed -> fun fr v -> Array.unsafe_set fr.fr_v s v
  else fun fr v -> fr.fr_v.(d) <- v

(* Truth test of an operand, per class — the same zero tests
   {!is_true} performs on the boxed representation ([is_true]
   never faults, so immediates are pre-evaluated). *)
let rtest (classes : rclass array) (slots : int array) :
    src -> frame -> bool = function
  | Slot r ->
      if r >= 0 && r < Array.length classes then (
        let s = slots.(r) in
        match classes.(r) with
        | C_int -> fun fr -> iget fr.fr_i s <> 0L
        | C_float -> fun fr -> Array.unsafe_get fr.fr_f s <> 0.0
        | C_ptr -> fun fr -> Array.unsafe_get fr.fr_p s <> 0
        | C_boxed -> fun fr -> is_true (Array.unsafe_get fr.fr_v s))
      else fun fr -> is_true fr.fr_v.(r)
  | Imm v ->
      let b = is_true v in
      fun _ -> b

(* Boxed argument vectors for calls/CIs, arity-specialized like
   {!args_fn} — the boxing here IS the call seam. *)
let rargs_fn (classes : rclass array) (slots : int array) (srcs : src array) :
    frame -> E.value array =
  let g = rget_box classes slots in
  match srcs with
  | [||] -> fun _ -> [||]
  | [| s0 |] ->
      let g0 = g s0 in
      fun fr -> [| g0 fr |]
  | [| s0; s1 |] ->
      let g0 = g s0 and g1 = g s1 in
      fun fr -> [| g0 fr; g1 fr |]
  | [| s0; s1; s2 |] ->
      let g0 = g s0 and g1 = g s1 and g2 = g s2 in
      fun fr -> [| g0 fr; g1 fr; g2 fr |]
  | [| s0; s1; s2; s3 |] ->
      let g0 = g s0 and g1 = g s1 and g2 = g s2 and g3 = g s3 in
      fun fr -> [| g0 fr; g1 fr; g2 fr; g3 fr |]
  | srcs ->
      let gs = Array.map g srcs in
      fun fr -> Array.map (fun gk -> gk fr) gs

(* Typed binop compiler.  The scalar expressions are the
   [Ir.Eval.binop_fn] arm bodies over unboxed operands (same
   renormalization, shift masking and F32 rounding), with the hottest
   operator x shape combinations reading their slots directly inside
   the closure body — no allocation, no nested call.  Shapes with a
   residual operand keep the closure form; divisions and non-scalar
   destinations fall back to the boxed closure, which keeps
   [Division_by_zero] and its operand-conversion order exactly. *)
let compile_rbinop (classes : rclass array) (slots : int array)
    (ty : Ir.Ty.t) (op : Ir.Instr.binop) (d : int) (sa : src) (sb : src) :
    frame -> unit =
  let generic () =
    let f = E.binop_fn ty op in
    let ga = rget_box classes slots sa and gb = rget_box classes slots sb in
    let w = rwr_box classes slots d in
    fun fr -> w fr (f (ga fr) (gb fr))
  in
  let ok r = r >= 0 && r < Array.length classes in
  if not (ok d) then generic ()
  else
    match (op, classes.(d)) with
    | ( ( Ir.Instr.Add | Ir.Instr.Sub | Ir.Instr.Mul | Ir.Instr.And
        | Ir.Instr.Or | Ir.Instr.Xor | Ir.Instr.Shl | Ir.Instr.Lshr
        | Ir.Instr.Ashr ),
        C_int ) -> (
        let sh = E.norm_shift ty in
        let sm = E.shift_amount ty (-1L) in
        let um = E.umask ty (-1L) in
        let sd = slots.(d) in
        let aa = rarg_i classes slots sa and bb = rarg_i classes slots sb in
        match (op, aa, bb) with
        | Ir.Instr.Add, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.add
                      (iget fr.fr_i a)
                      (iget fr.fr_i b)))
        | Ir.Instr.Add, RiS a, RiK kb ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.add (iget fr.fr_i a) kb))
        | Ir.Instr.Add, RiK ka, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.add ka (iget fr.fr_i b)))
        | Ir.Instr.Sub, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.sub
                      (iget fr.fr_i a)
                      (iget fr.fr_i b)))
        | Ir.Instr.Sub, RiS a, RiK kb ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.sub (iget fr.fr_i a) kb))
        | Ir.Instr.Sub, RiK ka, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.sub ka (iget fr.fr_i b)))
        | Ir.Instr.Mul, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.mul
                      (iget fr.fr_i a)
                      (iget fr.fr_i b)))
        | Ir.Instr.Mul, RiS a, RiK kb ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.mul (iget fr.fr_i a) kb))
        | Ir.Instr.Mul, RiK ka, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.mul ka (iget fr.fr_i b)))
        | Ir.Instr.And, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.logand
                      (iget fr.fr_i a)
                      (iget fr.fr_i b)))
        | Ir.Instr.And, RiS a, RiK kb ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logand (iget fr.fr_i a) kb))
        | Ir.Instr.And, RiK ka, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logand ka (iget fr.fr_i b)))
        | Ir.Instr.Or, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.logor
                      (iget fr.fr_i a)
                      (iget fr.fr_i b)))
        | Ir.Instr.Or, RiS a, RiK kb ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logor (iget fr.fr_i a) kb))
        | Ir.Instr.Or, RiK ka, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logor ka (iget fr.fr_i b)))
        | Ir.Instr.Xor, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.logxor
                      (iget fr.fr_i a)
                      (iget fr.fr_i b)))
        | Ir.Instr.Xor, RiS a, RiK kb ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logxor (iget fr.fr_i a) kb))
        | Ir.Instr.Xor, RiK ka, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logxor ka (iget fr.fr_i b)))
        | Ir.Instr.Shl, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.shift_left
                      (iget fr.fr_i a)
                      (Int64.to_int (iget fr.fr_i b) land sm)))
        | Ir.Instr.Shl, RiS a, RiK kb ->
            let n = E.shift_amount ty kb in
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.shift_left (iget fr.fr_i a) n))
        | Ir.Instr.Lshr, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.shift_right_logical
                      (Int64.logand (iget fr.fr_i a) um)
                      (Int64.to_int (iget fr.fr_i b) land sm)))
        | Ir.Instr.Lshr, RiS a, RiK kb ->
            let n = E.shift_amount ty kb in
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.shift_right_logical
                      (Int64.logand (iget fr.fr_i a) um)
                      n))
        | Ir.Instr.Ashr, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.shift_right
                      (iget fr.fr_i a)
                      (Int64.to_int (iget fr.fr_i b) land sm)))
        | Ir.Instr.Ashr, RiS a, RiK kb ->
            let n = E.shift_amount ty kb in
            fun fr ->
              iset fr.fr_i sd
                (renorm sh
                   (Int64.shift_right (iget fr.fr_i a) n))
        | _ -> (
            let ga = ri_fn aa and gb = ri_fn bb in
            match op with
            | Ir.Instr.Add ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh (Int64.add (ga fr) (gb fr)))
            | Ir.Instr.Sub ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh (Int64.sub (ga fr) (gb fr)))
            | Ir.Instr.Mul ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh (Int64.mul (ga fr) (gb fr)))
            | Ir.Instr.And ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh (Int64.logand (ga fr) (gb fr)))
            | Ir.Instr.Or ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh (Int64.logor (ga fr) (gb fr)))
            | Ir.Instr.Xor ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh (Int64.logxor (ga fr) (gb fr)))
            | Ir.Instr.Shl ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh
                       (Int64.shift_left (ga fr)
                          (Int64.to_int (gb fr) land sm)))
            | Ir.Instr.Lshr ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh
                       (Int64.shift_right_logical
                          (Int64.logand (ga fr) um)
                          (Int64.to_int (gb fr) land sm)))
            | Ir.Instr.Ashr ->
                fun fr ->
                  iset fr.fr_i sd
                    (renorm sh
                       (Int64.shift_right (ga fr)
                          (Int64.to_int (gb fr) land sm)))
            | _ -> generic ()))
    | ( (Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv),
        C_float ) -> (
        let sd = slots.(d) in
        let aa = rarg_f classes slots sa and bb = rarg_f classes slots sb in
        if ty = Ir.Ty.F32 then
          match (op, aa, bb) with
          | Ir.Instr.Fadd, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (round_f32
                     (Array.unsafe_get fr.fr_f a +. Array.unsafe_get fr.fr_f b))
          | Ir.Instr.Fsub, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (round_f32
                     (Array.unsafe_get fr.fr_f a -. Array.unsafe_get fr.fr_f b))
          | Ir.Instr.Fmul, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (round_f32
                     (Array.unsafe_get fr.fr_f a *. Array.unsafe_get fr.fr_f b))
          | Ir.Instr.Fdiv, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (round_f32
                     (Array.unsafe_get fr.fr_f a /. Array.unsafe_get fr.fr_f b))
          | _ -> (
              let ga = rf_fn aa and gb = rf_fn bb in
              match op with
              | Ir.Instr.Fadd ->
                  fun fr ->
                    Array.unsafe_set fr.fr_f sd (round_f32 (ga fr +. gb fr))
              | Ir.Instr.Fsub ->
                  fun fr ->
                    Array.unsafe_set fr.fr_f sd (round_f32 (ga fr -. gb fr))
              | Ir.Instr.Fmul ->
                  fun fr ->
                    Array.unsafe_set fr.fr_f sd (round_f32 (ga fr *. gb fr))
              | Ir.Instr.Fdiv ->
                  fun fr ->
                    Array.unsafe_set fr.fr_f sd (round_f32 (ga fr /. gb fr))
              | _ -> generic ())
        else
          match (op, aa, bb) with
          | Ir.Instr.Fadd, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (Array.unsafe_get fr.fr_f a +. Array.unsafe_get fr.fr_f b)
          | Ir.Instr.Fadd, RfS a, RfK kb ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a +. kb)
          | Ir.Instr.Fadd, RfK ka, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (ka +. Array.unsafe_get fr.fr_f b)
          | Ir.Instr.Fsub, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (Array.unsafe_get fr.fr_f a -. Array.unsafe_get fr.fr_f b)
          | Ir.Instr.Fsub, RfS a, RfK kb ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a -. kb)
          | Ir.Instr.Fsub, RfK ka, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (ka -. Array.unsafe_get fr.fr_f b)
          | Ir.Instr.Fmul, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (Array.unsafe_get fr.fr_f a *. Array.unsafe_get fr.fr_f b)
          | Ir.Instr.Fmul, RfS a, RfK kb ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a *. kb)
          | Ir.Instr.Fmul, RfK ka, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (ka *. Array.unsafe_get fr.fr_f b)
          | Ir.Instr.Fdiv, RfS a, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd
                  (Array.unsafe_get fr.fr_f a /. Array.unsafe_get fr.fr_f b)
          | Ir.Instr.Fdiv, RfS a, RfK kb ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a /. kb)
          | Ir.Instr.Fdiv, RfK ka, RfS b ->
              fun fr ->
                Array.unsafe_set fr.fr_f sd (ka /. Array.unsafe_get fr.fr_f b)
          | _ -> (
              let ga = rf_fn aa and gb = rf_fn bb in
              match op with
              | Ir.Instr.Fadd ->
                  fun fr -> Array.unsafe_set fr.fr_f sd (ga fr +. gb fr)
              | Ir.Instr.Fsub ->
                  fun fr -> Array.unsafe_set fr.fr_f sd (ga fr -. gb fr)
              | Ir.Instr.Fmul ->
                  fun fr -> Array.unsafe_set fr.fr_f sd (ga fr *. gb fr)
              | Ir.Instr.Fdiv ->
                  fun fr -> Array.unsafe_set fr.fr_f sd (ga fr /. gb fr)
              | _ -> generic ()))
    | _ -> generic ()

(* Typed compare compilers.  The boolean is materialized as 1L/0L in
   the destination's int slot; an odd destination class falls back to
   the boxed closure.  The direct arms inline both slot reads — the
   shared [icmp_bool]/[fcmp_bool] predicates stay the residual path
   (an indirect predicate call would box both scalars). *)
let compile_ricmp (classes : rclass array) (slots : int array)
    (p : Ir.Instr.icmp_pred) (d : int) (sa : src) (sb : src) : frame -> unit =
  let ok r = r >= 0 && r < Array.length classes in
  if ok d && classes.(d) = C_int then (
    let sd = slots.(d) in
    let aa = rarg_i classes slots sa and bb = rarg_i classes slots sb in
    match (p, aa, bb) with
    | Ir.Instr.Ieq, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.equal
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
             then 1L
             else 0L)
    | Ir.Instr.Ieq, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.equal (iget fr.fr_i a) kb then 1L else 0L)
    | Ir.Instr.Ine, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.equal
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
             then 0L
             else 1L)
    | Ir.Instr.Ine, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.equal (iget fr.fr_i a) kb then 0L else 1L)
    | Ir.Instr.Islt, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               < 0
             then 1L
             else 0L)
    | Ir.Instr.Islt, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.compare (iget fr.fr_i a) kb < 0 then 1L
             else 0L)
    | Ir.Instr.Isle, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               <= 0
             then 1L
             else 0L)
    | Ir.Instr.Isle, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.compare (iget fr.fr_i a) kb <= 0 then 1L
             else 0L)
    | Ir.Instr.Isgt, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               > 0
             then 1L
             else 0L)
    | Ir.Instr.Isgt, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.compare (iget fr.fr_i a) kb > 0 then 1L
             else 0L)
    | Ir.Instr.Isge, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               >= 0
             then 1L
             else 0L)
    | Ir.Instr.Isge, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.compare (iget fr.fr_i a) kb >= 0 then 1L
             else 0L)
    | Ir.Instr.Iult, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.unsigned_compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               < 0
             then 1L
             else 0L)
    | Ir.Instr.Iult, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.unsigned_compare (iget fr.fr_i a) kb < 0
             then 1L
             else 0L)
    | Ir.Instr.Iule, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.unsigned_compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               <= 0
             then 1L
             else 0L)
    | Ir.Instr.Iule, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.unsigned_compare (iget fr.fr_i a) kb <= 0
             then 1L
             else 0L)
    | Ir.Instr.Iugt, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.unsigned_compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               > 0
             then 1L
             else 0L)
    | Ir.Instr.Iugt, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.unsigned_compare (iget fr.fr_i a) kb > 0
             then 1L
             else 0L)
    | Ir.Instr.Iuge, RiS a, RiS b ->
        fun fr ->
          iset fr.fr_i sd
            (if
               Int64.unsigned_compare
                 (iget fr.fr_i a)
                 (iget fr.fr_i b)
               >= 0
             then 1L
             else 0L)
    | Ir.Instr.Iuge, RiS a, RiK kb ->
        fun fr ->
          iset fr.fr_i sd
            (if Int64.unsigned_compare (iget fr.fr_i a) kb >= 0
             then 1L
             else 0L)
    | _ ->
        let t = icmp_bool p in
        let ga = ri_fn aa and gb = ri_fn bb in
        fun fr ->
          iset fr.fr_i sd (if t (ga fr) (gb fr) then 1L else 0L))
  else
    let f = E.icmp_fn p in
    let ga = rget_box classes slots sa and gb = rget_box classes slots sb in
    let w = rwr_box classes slots d in
    fun fr -> w fr (f (ga fr) (gb fr))

let compile_rfcmp (classes : rclass array) (slots : int array)
    (p : Ir.Instr.fcmp_pred) (d : int) (sa : src) (sb : src) : frame -> unit =
  let ok r = r >= 0 && r < Array.length classes in
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  if ok d && classes.(d) = C_int then (
    let sd = slots.(d) in
    let aa = rarg_f classes slots sa and bb = rarg_f classes slots sb in
    match (p, aa, bb) with
    | Ir.Instr.Foeq, RfS a, RfS b ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a
          and y = Array.unsafe_get fr.fr_f b in
          iset fr.fr_i sd (if ord x y && x = y then 1L else 0L)
    | Ir.Instr.Foeq, RfS a, RfK kb ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a in
          iset fr.fr_i sd (if ord x kb && x = kb then 1L else 0L)
    | Ir.Instr.Fone, RfS a, RfS b ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a
          and y = Array.unsafe_get fr.fr_f b in
          iset fr.fr_i sd (if ord x y && x <> y then 1L else 0L)
    | Ir.Instr.Fone, RfS a, RfK kb ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a in
          iset fr.fr_i sd (if ord x kb && x <> kb then 1L else 0L)
    | Ir.Instr.Folt, RfS a, RfS b ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a
          and y = Array.unsafe_get fr.fr_f b in
          iset fr.fr_i sd (if ord x y && x < y then 1L else 0L)
    | Ir.Instr.Folt, RfS a, RfK kb ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a in
          iset fr.fr_i sd (if ord x kb && x < kb then 1L else 0L)
    | Ir.Instr.Fole, RfS a, RfS b ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a
          and y = Array.unsafe_get fr.fr_f b in
          iset fr.fr_i sd (if ord x y && x <= y then 1L else 0L)
    | Ir.Instr.Fole, RfS a, RfK kb ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a in
          iset fr.fr_i sd (if ord x kb && x <= kb then 1L else 0L)
    | Ir.Instr.Fogt, RfS a, RfS b ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a
          and y = Array.unsafe_get fr.fr_f b in
          iset fr.fr_i sd (if ord x y && x > y then 1L else 0L)
    | Ir.Instr.Fogt, RfS a, RfK kb ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a in
          iset fr.fr_i sd (if ord x kb && x > kb then 1L else 0L)
    | Ir.Instr.Foge, RfS a, RfS b ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a
          and y = Array.unsafe_get fr.fr_f b in
          iset fr.fr_i sd (if ord x y && x >= y then 1L else 0L)
    | Ir.Instr.Foge, RfS a, RfK kb ->
        fun fr ->
          let x = Array.unsafe_get fr.fr_f a in
          iset fr.fr_i sd (if ord x kb && x >= kb then 1L else 0L)
    | _ ->
        let t = fcmp_bool p in
        let ga = rf_fn aa and gb = rf_fn bb in
        fun fr ->
          iset fr.fr_i sd (if t (ga fr) (gb fr) then 1L else 0L))
  else
    let f = E.fcmp_fn p in
    let ga = rget_box classes slots sa and gb = rget_box classes slots sb in
    let w = rwr_box classes slots d in
    fun fr -> w fr (f (ga fr) (gb fr))

(* Boolean compile of a trailing single-use compare, for the typed
   compare-and-branch terminator fusion — no flag is materialized at
   all on the direct shapes. *)
let rbool_icmp (classes : rclass array) (slots : int array)
    (p : Ir.Instr.icmp_pred) (sa : src) (sb : src) : frame -> bool =
  let aa = rarg_i classes slots sa and bb = rarg_i classes slots sb in
  match (p, aa, bb) with
  | Ir.Instr.Ieq, RiS a, RiS b ->
      fun fr ->
        Int64.equal (iget fr.fr_i a) (iget fr.fr_i b)
  | Ir.Instr.Ieq, RiS a, RiK kb ->
      fun fr -> Int64.equal (iget fr.fr_i a) kb
  | Ir.Instr.Ine, RiS a, RiS b ->
      fun fr ->
        not
          (Int64.equal
             (iget fr.fr_i a)
             (iget fr.fr_i b))
  | Ir.Instr.Ine, RiS a, RiK kb ->
      fun fr -> not (Int64.equal (iget fr.fr_i a) kb)
  | Ir.Instr.Islt, RiS a, RiS b ->
      fun fr ->
        Int64.compare (iget fr.fr_i a) (iget fr.fr_i b)
        < 0
  | Ir.Instr.Islt, RiS a, RiK kb ->
      fun fr -> Int64.compare (iget fr.fr_i a) kb < 0
  | Ir.Instr.Isle, RiS a, RiS b ->
      fun fr ->
        Int64.compare (iget fr.fr_i a) (iget fr.fr_i b)
        <= 0
  | Ir.Instr.Isle, RiS a, RiK kb ->
      fun fr -> Int64.compare (iget fr.fr_i a) kb <= 0
  | Ir.Instr.Isgt, RiS a, RiS b ->
      fun fr ->
        Int64.compare (iget fr.fr_i a) (iget fr.fr_i b)
        > 0
  | Ir.Instr.Isgt, RiS a, RiK kb ->
      fun fr -> Int64.compare (iget fr.fr_i a) kb > 0
  | Ir.Instr.Isge, RiS a, RiS b ->
      fun fr ->
        Int64.compare (iget fr.fr_i a) (iget fr.fr_i b)
        >= 0
  | Ir.Instr.Isge, RiS a, RiK kb ->
      fun fr -> Int64.compare (iget fr.fr_i a) kb >= 0
  | Ir.Instr.Iult, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (iget fr.fr_i a)
          (iget fr.fr_i b)
        < 0
  | Ir.Instr.Iult, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (iget fr.fr_i a) kb < 0
  | Ir.Instr.Iule, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (iget fr.fr_i a)
          (iget fr.fr_i b)
        <= 0
  | Ir.Instr.Iule, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (iget fr.fr_i a) kb <= 0
  | Ir.Instr.Iugt, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (iget fr.fr_i a)
          (iget fr.fr_i b)
        > 0
  | Ir.Instr.Iugt, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (iget fr.fr_i a) kb > 0
  | Ir.Instr.Iuge, RiS a, RiS b ->
      fun fr ->
        Int64.unsigned_compare
          (iget fr.fr_i a)
          (iget fr.fr_i b)
        >= 0
  | Ir.Instr.Iuge, RiS a, RiK kb ->
      fun fr -> Int64.unsigned_compare (iget fr.fr_i a) kb >= 0
  | _ ->
      let t = icmp_bool p in
      let ga = ri_fn aa and gb = ri_fn bb in
      fun fr -> t (ga fr) (gb fr)

let rbool_fcmp (classes : rclass array) (slots : int array)
    (p : Ir.Instr.fcmp_pred) (sa : src) (sb : src) : frame -> bool =
  let[@inline] ord x y = not (Float.is_nan x || Float.is_nan y) in
  let aa = rarg_f classes slots sa and bb = rarg_f classes slots sb in
  match (p, aa, bb) with
  | Ir.Instr.Foeq, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x = y
  | Ir.Instr.Foeq, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x = kb
  | Ir.Instr.Fone, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x <> y
  | Ir.Instr.Fone, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x <> kb
  | Ir.Instr.Folt, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x < y
  | Ir.Instr.Folt, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x < kb
  | Ir.Instr.Fole, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x <= y
  | Ir.Instr.Fole, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x <= kb
  | Ir.Instr.Fogt, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x > y
  | Ir.Instr.Fogt, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x > kb
  | Ir.Instr.Foge, RfS a, RfS b ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a
        and y = Array.unsafe_get fr.fr_f b in
        ord x y && x >= y
  | Ir.Instr.Foge, RfS a, RfK kb ->
      fun fr ->
        let x = Array.unsafe_get fr.fr_f a in
        ord x kb && x >= kb
  | _ ->
      let t = fcmp_bool p in
      let ga = rf_fn aa and gb = rf_fn bb in
      fun fr -> t (ga fr) (gb fr)

let compile_rcast (classes : rclass array) (slots : int array)
    (c : Ir.Instr.cast) ~from_ ~to_ (d : int) (sa : src) : frame -> unit =
  let generic () =
    let f = E.cast_fn c ~from_ ~to_ in
    let ga = rget_box classes slots sa in
    let w = rwr_box classes slots d in
    fun fr -> w fr (f (ga fr))
  in
  let ok r = r >= 0 && r < Array.length classes in
  if not (ok d) then generic ()
  else
    match (c, classes.(d)) with
    | (Ir.Instr.Trunc | Ir.Instr.Sext), C_int -> (
        let sh = E.norm_shift to_ in
        match rarg_i classes slots sa with
        | RiS a ->
            fun fr ->
              iset fr.fr_i slots.(d)
                (renorm sh (iget fr.fr_i a))
        | aa ->
            let ga = ri_fn aa in
            let sd = slots.(d) in
            fun fr -> iset fr.fr_i sd (renorm sh (ga fr)))
    | Ir.Instr.Zext, C_int -> (
        let sh = E.norm_shift to_ in
        let um = E.umask from_ (-1L) in
        match rarg_i classes slots sa with
        | RiS a ->
            let sd = slots.(d) in
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logand (iget fr.fr_i a) um))
        | aa ->
            let ga = ri_fn aa in
            let sd = slots.(d) in
            fun fr ->
              iset fr.fr_i sd
                (renorm sh (Int64.logand (ga fr) um)))
    | Ir.Instr.Fptosi, C_int -> (
        let sh = E.norm_shift to_ in
        match rarg_f classes slots sa with
        | RfS a ->
            let sd = slots.(d) in
            fun fr ->
              let f = Array.unsafe_get fr.fr_f a in
              iset fr.fr_i sd
                (if Float.is_nan f then 0L else renorm sh (Int64.of_float f))
        | aa ->
            let ga = rf_fn aa in
            let sd = slots.(d) in
            fun fr ->
              let f = ga fr in
              iset fr.fr_i sd
                (if Float.is_nan f then 0L else renorm sh (Int64.of_float f))
        )
    | Ir.Instr.Sitofp, C_float -> (
        let sd = slots.(d) in
        match rarg_i classes slots sa with
        | RiS a ->
            if to_ = Ir.Ty.F32 then fun fr ->
              Array.unsafe_set fr.fr_f sd
                (round_f32 (Int64.to_float (iget fr.fr_i a)))
            else fun fr ->
              Array.unsafe_set fr.fr_f sd
                (Int64.to_float (iget fr.fr_i a))
        | aa ->
            let ga = ri_fn aa in
            if to_ = Ir.Ty.F32 then fun fr ->
              Array.unsafe_set fr.fr_f sd
                (round_f32 (Int64.to_float (ga fr)))
            else fun fr ->
              Array.unsafe_set fr.fr_f sd (Int64.to_float (ga fr)))
    | Ir.Instr.Fpext, C_float -> (
        let sd = slots.(d) in
        match rarg_f classes slots sa with
        | RfS a ->
            fun fr -> Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a)
        | aa ->
            let ga = rf_fn aa in
            fun fr -> Array.unsafe_set fr.fr_f sd (ga fr))
    | Ir.Instr.Fptrunc, C_float -> (
        let sd = slots.(d) in
        match rarg_f classes slots sa with
        | RfS a ->
            if to_ = Ir.Ty.F32 then fun fr ->
              Array.unsafe_set fr.fr_f sd
                (round_f32 (Array.unsafe_get fr.fr_f a))
            else fun fr ->
              Array.unsafe_set fr.fr_f sd (Array.unsafe_get fr.fr_f a)
        | aa ->
            let ga = rf_fn aa in
            if to_ = Ir.Ty.F32 then fun fr ->
              Array.unsafe_set fr.fr_f sd (round_f32 (ga fr))
            else fun fr -> Array.unsafe_set fr.fr_f sd (ga fr))
    | _ -> generic ()

(* ------------------------------------------------------------------ *)
(* The typed call seam                                                 *)
(* ------------------------------------------------------------------ *)

(* Typed compilation runs in two passes over the module:
   [assign_rslots] partitions every function's registers first, so a
   call site can compile its slot-to-slot argument copy against the
   callee's parameter slots; {!compile_rfunc} then compiles the blocks.
   An int-class slot is the register's byte offset in the [fr_i] lane
   ({!iget}/{!iset}); the other classes use plain array indices. *)
let assign_rslots (fi : func_info) : unit =
  let classes = Array.map rclass_of_ty fi.reg_tys in
  let n = Array.length classes in
  let slots = Array.make n 0 in
  let counts = Array.make 4 0 in
  let idx = function C_int -> 0 | C_float -> 1 | C_ptr -> 2 | C_boxed -> 3 in
  for r = 0 to n - 1 do
    let k = idx classes.(r) in
    slots.(r) <- (if k = 0 then 8 * counts.(k) else counts.(k));
    counts.(k) <- counts.(k) + 1
  done;
  fi.rclasses <- classes;
  fi.rslots <- slots;
  fi.rcounts <- counts

(* Frame pool.  A function's activation at recursion depth [k] always
   runs on [rframes.(k)]: a fresh frame is all zeros, and a reused one
   is re-zeroed here, so a register read before any write sees 0 exactly
   as on a fresh boxed register file — stale values of an earlier
   activation never show. *)
let new_frame (counts : int array) : frame =
  {
    fr_i = Bytes.make (8 * counts.(0)) '\000';
    fr_f = Array.make counts.(1) 0.0;
    fr_p = Array.make counts.(2) 0;
    fr_v = Array.make (max 1 counts.(3)) vfalse;
  }

(* Placeholder for pool slots whose depth has not been reached yet
   (never run on), so the pool holds exactly one frame per depth seen. *)
let no_frame = new_frame [| 0; 0; 0; 0 |]

let acquire_frame (fi : func_info) : frame =
  let d = fi.rdepth in
  let pool = fi.rframes in
  if d < Array.length pool && Array.unsafe_get pool d != no_frame then begin
    let fr = Array.unsafe_get pool d in
    Bytes.unsafe_fill fr.fr_i 0 (Bytes.length fr.fr_i) '\000';
    let ff = fr.fr_f in
    for k = 0 to Array.length ff - 1 do
      Array.unsafe_set ff k 0.0
    done;
    let fp = fr.fr_p in
    for k = 0 to Array.length fp - 1 do
      Array.unsafe_set fp k 0
    done;
    if fi.rcounts.(3) > 0 then Array.fill fr.fr_v 0 (Array.length fr.fr_v) vfalse;
    fr
  end
  else begin
    let pool =
      if d < Array.length pool then pool
      else begin
        let grown = Array.make (2 * d + 1) no_frame in
        Array.blit pool 0 grown 0 (Array.length pool);
        fi.rframes <- grown;
        grown
      end
    in
    let fr = new_frame fi.rcounts in
    pool.(d) <- fr;
    fr
  end

(* One linked transfer: direct, unless the linking budget is spent, in
   which case the indexed path (the escape hatch) lands on the same
   block and refills the budget. *)
let[@inline] hop (st : state) (rtblocks : rtblock array) (nb : rtblock) :
    rtblock =
  let h = st.hops in
  if h > 0 then begin
    st.hops <- h - 1;
    nb
  end
  else begin
    st.hops <- st.tuning.max_linked_blocks;
    rtblocks.(nb.r_label)
  end

let lane_int = Some C_int
let lane_float = Some C_float
let lane_ptr = Some C_ptr
let lane_boxed = Some C_boxed

(* The callee half of a typed return: write the returned operand into
   slot 0 of its class's return lane.  The caller converts it into its
   destination's class ({!rret_read}) with the conversions {!rwr_box}
   applies to the boxed value, so outcomes match the boxed seam. *)
let rret_write (st : state) (classes : rclass array) (slots : int array) :
    src -> frame -> unit =
  let rv = st.ret in
  function
  | Slot r when r >= 0 && r < Array.length classes -> (
      let s = slots.(r) in
      match classes.(r) with
      | C_int ->
          fun fr ->
            iset rv.fr_i 0 (iget fr.fr_i s);
            st.ret_lane <- lane_int
      | C_float ->
          fun fr ->
            Array.unsafe_set rv.fr_f 0 (Array.unsafe_get fr.fr_f s);
            st.ret_lane <- lane_float
      | C_ptr ->
          fun fr ->
            Array.unsafe_set rv.fr_p 0 (Array.unsafe_get fr.fr_p s);
            st.ret_lane <- lane_ptr
      | C_boxed ->
          fun fr ->
            rv.fr_v.(0) <- Array.unsafe_get fr.fr_v s;
            st.ret_lane <- lane_boxed)
  | Slot r ->
      fun fr ->
        rv.fr_v.(0) <- fr.fr_v.(r);
        st.ret_lane <- lane_boxed
  | Imm (E.VInt k) ->
      fun _ ->
        iset rv.fr_i 0 k;
        st.ret_lane <- lane_int
  | Imm (E.VFloat k) ->
      fun _ ->
        Array.unsafe_set rv.fr_f 0 k;
        st.ret_lane <- lane_float
  | Imm (E.VPtr k) ->
      fun _ ->
        Array.unsafe_set rv.fr_p 0 k;
        st.ret_lane <- lane_ptr

(* The return value as a boxed value, for the run's outcome and for
   destinations outside the typed lanes. *)
let ret_value (st : state) : E.value option =
  let rv = st.ret in
  match st.ret_lane with
  | None -> None
  | Some C_int -> Some (E.VInt (iget rv.fr_i 0))
  | Some C_float -> Some (E.VFloat rv.fr_f.(0))
  | Some C_ptr -> Some (E.VPtr rv.fr_p.(0))
  | Some C_boxed -> Some rv.fr_v.(0)

(* The caller half: move the callee's result into destination register
   [d] (nothing when the callee returned void). *)
let rret_read (st : state) (classes : rclass array) (slots : int array)
    (d : int) : frame -> unit =
  let rv = st.ret in
  if d >= 0 && d < Array.length classes then
    let s = slots.(d) in
    match classes.(d) with
    | C_int -> (
        fun fr ->
          match st.ret_lane with
          | None -> ()
          | Some C_int -> iset fr.fr_i s (iget rv.fr_i 0)
          | Some C_ptr -> iset fr.fr_i s (Int64.of_int (Array.unsafe_get rv.fr_p 0))
          | Some C_float -> raise (E.Type_error "expected an integer value")
          | Some C_boxed -> iset fr.fr_i s (as_int rv.fr_v.(0)))
    | C_float -> (
        fun fr ->
          match st.ret_lane with
          | None -> ()
          | Some C_float -> Array.unsafe_set fr.fr_f s (Array.unsafe_get rv.fr_f 0)
          | Some (C_int | C_ptr) -> raise (E.Type_error "expected a float value")
          | Some C_boxed -> Array.unsafe_set fr.fr_f s (as_float rv.fr_v.(0)))
    | C_ptr -> (
        fun fr ->
          match st.ret_lane with
          | None -> ()
          | Some C_ptr -> Array.unsafe_set fr.fr_p s (Array.unsafe_get rv.fr_p 0)
          | Some C_int -> Array.unsafe_set fr.fr_p s (Int64.to_int (iget rv.fr_i 0))
          | Some C_float -> raise (E.Type_error "expected an address")
          | Some C_boxed -> Array.unsafe_set fr.fr_p s (as_ptr rv.fr_v.(0)))
    | C_boxed -> (
        fun fr ->
          match ret_value st with
          | None -> ()
          | Some v -> Array.unsafe_set fr.fr_v s v)
  else fun fr ->
    match ret_value st with None -> () | Some v -> fr.fr_v.(d) <- v

(* Slot-to-slot argument copy for a call to [callee]: argument [i]
   lands in parameter register [i] in the parameter's class, through
   the same conversions the callee-side unboxing of a boxed argument
   performs ([rarg_*] on the caller's operand).  [None] when the arity
   or a parameter register does not fit; the call then takes the boxed
   seam ({!renter}), which faults like the other engines. *)
let rarg_movers (classes : rclass array) (slots : int array)
    (callee : func_info) (srcs : src array) :
    (frame -> frame -> unit) array option =
  let cc = callee.rclasses and cs = callee.rslots in
  let n = Array.length srcs in
  if n <> List.length callee.func.Ir.Func.params || n > Array.length cc then
    None
  else
    Some
      (Array.mapi
         (fun i src ->
           let s = cs.(i) in
           match cc.(i) with
           | C_int -> (
               match rarg_i classes slots src with
               | RiS a -> fun fr cfr -> iset cfr.fr_i s (iget fr.fr_i a)
               | RiK k -> fun _ cfr -> iset cfr.fr_i s k
               | RiG g -> fun fr cfr -> iset cfr.fr_i s (g fr))
           | C_float -> (
               match rarg_f classes slots src with
               | RfS a ->
                   fun fr cfr ->
                     Array.unsafe_set cfr.fr_f s (Array.unsafe_get fr.fr_f a)
               | RfK k -> fun _ cfr -> Array.unsafe_set cfr.fr_f s k
               | RfG g -> fun fr cfr -> Array.unsafe_set cfr.fr_f s (g fr))
           | C_ptr -> (
               match rarg_p classes slots src with
               | RpS a ->
                   fun fr cfr ->
                     Array.unsafe_set cfr.fr_p s (Array.unsafe_get fr.fr_p a)
               | RpK k -> fun _ cfr -> Array.unsafe_set cfr.fr_p s k
               | RpG g -> fun fr cfr -> Array.unsafe_set cfr.fr_p s (g fr))
           | C_boxed ->
               let g = rget_box classes slots src in
               fun fr cfr -> cfr.fr_v.(s) <- g fr)
         srcs)

(* [exec_threaded] runs a function's compiled blocks; [compile_func] /
   [compile_block] build them.  They are mutually recursive because a
   pre-bound [Call] closure invokes [exec_threaded] on the captured
   callee's [func_info]. *)
let rec exec_threaded (st : state) (fi : func_info) (args : Ir.Eval.value array)
    :
    Ir.Eval.value option =
  let f = fi.func in
  if st.depth >= st.max_depth then depth_exceeded st f.Ir.Func.name;
  st.depth <- st.depth + 1;
  if Array.length args <> List.length f.Ir.Func.params then
    fault "@%s: expected %d arguments, got %d" f.Ir.Func.name
      (List.length f.Ir.Func.params)
      (Array.length args);
  let regs = Array.make (max 1 f.Ir.Func.next_reg) (Ir.Eval.VInt 0L) in
  Array.iteri (fun i v -> regs.(i) <- v) args;
  let frame_mark = Memory.mark st.memory in
  let tblocks = fi.tblocks in
  let warmup = int_of_int64_clamped st.jit.Jit_model.warmup_threshold in
  (* Per-block bookkeeping lives in non-allocating locals: an immediate
     int counts fuel spent by this invocation against an immediate-int
     limit, and a flat float array holds the two clocks (a float-array
     store is an unboxed write; a mutable record field store boxes).
     They are synced with the shared [state] only around blocks that
     contain resolved calls ([t_sync]) and at function exit.  The
     arithmetic and its order are unchanged from the reference engine,
     so results stay byte-identical — only the boxed per-block stores
     into [st] are gone. *)
  let spent = ref 0 in
  let limit = ref (int_of_int64_clamped st.fuel) in
  let clocks = st.clk in
  let cur = ref Ir.Func.entry_label in
  let prev = ref (-1) in
  let result = ref None in
  let running = ref true in
  while !running do
    let tb = tblocks.(!cur) in
    let bi = tb.t_info in
    (* Fuel, profile and clocks: same arithmetic, in the same order, as
       the reference engine — the clocks are float sums, so the order
       of additions must match for byte-identical outcomes.  The two
       possible {!Jit_model.block_execution_cycles} charges were
       precomputed at compile time. *)
    spent := !spent + tb.t_fuel;
    if !spent > !limit then
      fault "execution budget exhausted in @%s" f.Ir.Func.name;
    let prior = bi.exec_count in
    bi.exec_count <- prior + 1;
    Array.unsafe_set clocks 0 (Array.unsafe_get clocks 0 +. tb.t_native);
    Array.unsafe_set clocks 1
      (Array.unsafe_get clocks 1
      +. (if prior >= warmup then tb.t_hot else tb.t_cold));
    (* Monitor hook: flush the local accumulators so the callback sees
       consistent clocks/fuel, then reload — the same flush/reload
       protocol as [t_sync] blocks, so clock additions keep their order
       and loop-off runs stay byte-identical (the branch is never taken
       without a monitor). *)
    (match st.mon with
    | None -> ()
    | Some mon ->
        st.fuel <- Int64.sub st.fuel (Int64.of_int !spent);
        spent := 0;
        mon ~func:f.Ir.Func.name ~label:!cur ~ninstrs:bi.ninstrs;
        limit := int_of_int64_clamped st.fuel);
    (* Phi prologue over pre-decoded sources.  A single phi needs no
       staging (parallel-assignment semantics are trivial); multiple
       phis stage into the scratch buffer first. *)
    let nphi = Array.length tb.t_phi_dests in
    if nphi > 0 then begin
      let srcs = tb.t_phi_srcs and p = !prev in
      if nphi = 1 then (
        let row = srcs.(0) in
        match if p >= 0 && p < Array.length row then row.(p) else P_missing with
        | P_slot r -> regs.(tb.t_phi_dests.(0)) <- regs.(r)
        | P_imm v -> regs.(tb.t_phi_dests.(0)) <- v
        | P_missing ->
            fault "@%s/bb%d: phi has no entry for predecessor bb%d"
              f.Ir.Func.name !cur p)
      else begin
        let staged = tb.t_phi_scratch in
        for k = 0 to nphi - 1 do
          let row = srcs.(k) in
          match
            if p >= 0 && p < Array.length row then row.(p) else P_missing
          with
          | P_slot r -> staged.(k) <- regs.(r)
          | P_imm v -> staged.(k) <- v
          | P_missing ->
              fault "@%s/bb%d: phi has no entry for predecessor bb%d"
                f.Ir.Func.name !cur p
        done;
        for k = 0 to nphi - 1 do
          regs.(tb.t_phi_dests.(k)) <- staged.(k)
        done
      end
    end;
    (* Straight-line body: an array walk of pre-decoded closures.  The
       runtime faults an instruction can raise carry the same context
       the reference engine attaches per instruction.  Around a block
       with resolved calls, the local fuel/clock accumulators are
       flushed to [st] (the callee continues from them) and re-read
       after the body. *)
    (try
       let ops = tb.t_ops in
       if tb.t_sync then begin
         st.fuel <- Int64.sub st.fuel (Int64.of_int !spent);
         spent := 0;
         for k = 0 to Array.length ops - 1 do
           (Array.unsafe_get ops k) regs
         done;
         limit := int_of_int64_clamped st.fuel
       end
       else
         for k = 0 to Array.length ops - 1 do
           (Array.unsafe_get ops k) regs
         done
     with
    | Ir.Eval.Division_by_zero ->
        fault "@%s/bb%d: division by zero" f.Ir.Func.name !cur
    | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" f.Ir.Func.name !cur m
    | Memory.Bad_address a ->
        fault "@%s/bb%d: bad address %d" f.Ir.Func.name !cur a
    | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name);
    (* Terminator, pre-resolved. *)
    match tb.t_term with
    | T_halt -> running := false
    | T_ret s ->
        result := Some (fetch regs s);
        running := false
    | T_br l ->
        prev := !cur;
        cur := l
    | T_cond (c, a, b) ->
        prev := !cur;
        cur := (if is_true (fetch regs c) then a else b)
    | T_cond_s (r, a, b) ->
        prev := !cur;
        cur := (if is_true regs.(r) then a else b)
    | T_cmp_br (test, a, b) ->
        (* The fused test was body code before fusion, so its faults
           keep the body's block context: [Type_error] from the
           compare's conversions, [Bad_address]/[Out_of_memory] from a
           load sunk into the scrutinee tree. *)
        let c =
          try test regs with
          | Ir.Eval.Type_error m ->
              fault "@%s/bb%d: %s" f.Ir.Func.name !cur m
          | Memory.Bad_address a ->
              fault "@%s/bb%d: bad address %d" f.Ir.Func.name !cur a
          | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name
        in
        prev := !cur;
        cur := (if c then a else b)
    | T_switch (s, default, tbl) ->
        let sv = as_int (fetch regs s) in
        prev := !cur;
        cur := (match Hashtbl.find_opt tbl sv with Some l -> l | None -> default)
  done;
  st.fuel <- Int64.sub st.fuel (Int64.of_int !spent);
  Memory.release st.memory frame_mark;
  st.depth <- st.depth - 1;
  !result

(* The linked executor: the same per-block protocol as [exec_threaded]
   — fuel, profile, clocks, monitor, phis, body, in the same order with
   the same arithmetic — but control transfers follow the [t_link]
   references directly as mutually tail-recursive calls instead of
   re-indexing [tblocks] from a dispatch loop.  Every
   [max_linked_blocks] consecutive direct transfers the engine takes
   one trip through the indexed dispatch (the escape hatch) and resets
   the budget; both paths land on the same [tblock] record, and fuel,
   clocks and the monitor hook run at every block boundary on both, so
   the observable run is identical — the budget only bounds how long
   the engine may stay off the indexed path. *)
and exec_linked (st : state) (fi : func_info) (args : Ir.Eval.value array) :
    Ir.Eval.value option =
  let f = fi.func in
  if st.depth >= st.max_depth then depth_exceeded st f.Ir.Func.name;
  st.depth <- st.depth + 1;
  if Array.length args <> List.length f.Ir.Func.params then
    fault "@%s: expected %d arguments, got %d" f.Ir.Func.name
      (List.length f.Ir.Func.params)
      (Array.length args);
  let regs = Array.make (max 1 f.Ir.Func.next_reg) (Ir.Eval.VInt 0L) in
  Array.iteri (fun i v -> regs.(i) <- v) args;
  let frame_mark = Memory.mark st.memory in
  let tblocks = fi.tblocks in
  let warmup = int_of_int64_clamped st.jit.Jit_model.warmup_threshold in
  let spent = ref 0 in
  let limit = ref (int_of_int64_clamped st.fuel) in
  let clocks = st.clk in
  let budget0 = st.tuning.max_linked_blocks in
  let rec goto (next : tblock) (prevl : int) (budget : int) =
    if budget > 0 then go next prevl (budget - 1)
    else go tblocks.(next.t_label) prevl budget0
  and go (tb : tblock) (prevl : int) (budget : int) : Ir.Eval.value option =
    let bi = tb.t_info in
    let curl = tb.t_label in
    spent := !spent + tb.t_fuel;
    if !spent > !limit then
      fault "execution budget exhausted in @%s" f.Ir.Func.name;
    let prior = bi.exec_count in
    bi.exec_count <- prior + 1;
    Array.unsafe_set clocks 0 (Array.unsafe_get clocks 0 +. tb.t_native);
    Array.unsafe_set clocks 1
      (Array.unsafe_get clocks 1
      +. (if prior >= warmup then tb.t_hot else tb.t_cold));
    (match st.mon with
    | None -> ()
    | Some mon ->
        st.fuel <- Int64.sub st.fuel (Int64.of_int !spent);
        spent := 0;
        mon ~func:f.Ir.Func.name ~label:curl ~ninstrs:bi.ninstrs;
        limit := int_of_int64_clamped st.fuel);
    let nphi = Array.length tb.t_phi_dests in
    if nphi > 0 then begin
      let srcs = tb.t_phi_srcs in
      if nphi = 1 then (
        let row = srcs.(0) in
        match
          if prevl >= 0 && prevl < Array.length row then row.(prevl)
          else P_missing
        with
        | P_slot r -> regs.(tb.t_phi_dests.(0)) <- regs.(r)
        | P_imm v -> regs.(tb.t_phi_dests.(0)) <- v
        | P_missing ->
            fault "@%s/bb%d: phi has no entry for predecessor bb%d"
              f.Ir.Func.name curl prevl)
      else begin
        let staged = tb.t_phi_scratch in
        for k = 0 to nphi - 1 do
          let row = srcs.(k) in
          match
            if prevl >= 0 && prevl < Array.length row then row.(prevl)
            else P_missing
          with
          | P_slot r -> staged.(k) <- regs.(r)
          | P_imm v -> staged.(k) <- v
          | P_missing ->
              fault "@%s/bb%d: phi has no entry for predecessor bb%d"
                f.Ir.Func.name curl prevl
        done;
        for k = 0 to nphi - 1 do
          regs.(tb.t_phi_dests.(k)) <- staged.(k)
        done
      end
    end;
    (try
       let ops = tb.t_ops in
       if tb.t_sync then begin
         st.fuel <- Int64.sub st.fuel (Int64.of_int !spent);
         spent := 0;
         for k = 0 to Array.length ops - 1 do
           (Array.unsafe_get ops k) regs
         done;
         limit := int_of_int64_clamped st.fuel
       end
       else
         for k = 0 to Array.length ops - 1 do
           (Array.unsafe_get ops k) regs
         done
     with
    | Ir.Eval.Division_by_zero ->
        fault "@%s/bb%d: division by zero" f.Ir.Func.name curl
    | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" f.Ir.Func.name curl m
    | Memory.Bad_address a ->
        fault "@%s/bb%d: bad address %d" f.Ir.Func.name curl a
    | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name);
    match tb.t_link with
    | L_halt -> None
    | L_ret s -> Some (fetch regs s)
    | L_br nb -> goto nb curl budget
    | L_cond (c, x, y) ->
        goto (if is_true (fetch regs c) then x else y) curl budget
    | L_cond_s (r, x, y) ->
        goto (if is_true regs.(r) then x else y) curl budget
    | L_cmp_br (test, x, y) ->
        let c =
          try test regs with
          | Ir.Eval.Type_error m ->
              fault "@%s/bb%d: %s" f.Ir.Func.name curl m
          | Memory.Bad_address a ->
              fault "@%s/bb%d: bad address %d" f.Ir.Func.name curl a
          | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name
        in
        goto (if c then x else y) curl budget
    | L_switch (s, dflt, tbl) ->
        let sv = as_int (fetch regs s) in
        goto
          (match Hashtbl.find_opt tbl sv with Some t -> t | None -> dflt)
          curl budget
    | L_none -> (
        (* unlinked terminator (out-of-range target labels, or
           [link_func] never ran): transfer through the indexed path,
           faulting exactly where the unlinked engine's
           [tblocks.(!cur)] would *)
        match tb.t_term with
        | T_halt -> None
        | T_ret s -> Some (fetch regs s)
        | T_br l -> go tblocks.(l) curl budget0
        | T_cond (c, x, y) ->
            go
              tblocks.(if is_true (fetch regs c) then x else y)
              curl budget0
        | T_cond_s (r, x, y) ->
            go tblocks.(if is_true regs.(r) then x else y) curl budget0
        | T_cmp_br (test, x, y) ->
            let c =
              try test regs with
              | Ir.Eval.Type_error m ->
                  fault "@%s/bb%d: %s" f.Ir.Func.name curl m
              | Memory.Bad_address a ->
                  fault "@%s/bb%d: bad address %d" f.Ir.Func.name curl a
              | Memory.Out_of_memory ->
                  fault "@%s: out of memory" f.Ir.Func.name
            in
            go tblocks.(if c then x else y) curl budget0
        | T_switch (s, dflt, tbl) ->
            let sv = as_int (fetch regs s) in
            go
              tblocks.(match Hashtbl.find_opt tbl sv with
                       | Some l -> l
                       | None -> dflt)
              curl budget0)
  in
  let result = go tblocks.(Ir.Func.entry_label) (-1) budget0 in
  st.fuel <- Int64.sub st.fuel (Int64.of_int !spent);
  Memory.release st.memory frame_mark;
  st.depth <- st.depth - 1;
  result

(* The typed-register-file executor: the per-block protocol of
   [exec_threaded] / [exec_linked] — fuel, profile, clocks, monitor,
   phi prologue, body, terminator, in the same order with the same
   arithmetic — over a {!frame}, for both values of the [link] knob.
   It is one loop rather than a pair of executors: linked transfers
   follow [r_link] to the successor's compiled block, unlinked ones
   re-index [rtblocks], and every [max_linked_blocks] linked hops one
   transfer takes the indexed path ({!hop}).  Clocks, fuel and the
   linking budget live in the shared [state], the frame comes from the
   callee's pool and the result leaves through the typed return lanes,
   so neither a call nor a block allocates.  The caller has already
   checked the depth limit, filled [fr] with the arguments and counted
   the activation ({!rcall}, {!renter}). *)
and exec_r (st : state) (fi : func_info) (fr : frame) : unit =
  let f = fi.func in
  let frame_mark = Memory.mark st.memory in
  let rtblocks = fi.rtblocks in
  let warmup = int_of_int64_clamped st.jit.Jit_model.warmup_threshold in
  let clk = st.clk in
  let limit = st.limit in
  let linked = st.tuning.link in
  let spent = ref st.spent in
  let tb = ref rtblocks.(Ir.Func.entry_label) in
  let prev = ref (-1) in
  let running = ref true in
  while !running do
    let b = !tb in
    let bi = b.r_info in
    let curl = b.r_label in
    spent := !spent + b.r_fuel;
    if !spent > limit then
      fault "execution budget exhausted in @%s" f.Ir.Func.name;
    let prior = bi.exec_count in
    bi.exec_count <- prior + 1;
    Array.unsafe_set clk 0 (Array.unsafe_get clk 0 +. b.r_native);
    Array.unsafe_set clk 1
      (Array.unsafe_get clk 1
      +. (if prior >= warmup then b.r_hot else b.r_cold));
    (match st.mon with
    | None -> ()
    | Some mon -> mon ~func:f.Ir.Func.name ~label:curl ~ninstrs:bi.ninstrs);
    (* Phi prologue: the whole stage-then-commit pass was compiled per
       predecessor label. *)
    let rows = b.r_phi_rows in
    if Array.length rows > 0 then begin
      let p = !prev in
      if p >= 0 && p < Array.length rows then (Array.unsafe_get rows p) fr
      else
        fault "@%s/bb%d: phi has no entry for predecessor bb%d"
          f.Ir.Func.name curl p
    end;
    (* Body.  Around a block with resolved calls the local fuel count is
       written back to [st] (the callee continues from it) and re-read
       after. *)
    (try
       let ops = b.r_ops in
       if b.r_sync then begin
         st.spent <- !spent;
         for k = 0 to Array.length ops - 1 do
           (Array.unsafe_get ops k) fr
         done;
         spent := st.spent
       end
       else
         for k = 0 to Array.length ops - 1 do
           (Array.unsafe_get ops k) fr
         done
     with
    | Ir.Eval.Division_by_zero ->
        fault "@%s/bb%d: division by zero" f.Ir.Func.name curl
    | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" f.Ir.Func.name curl m
    | Memory.Bad_address a ->
        fault "@%s/bb%d: bad address %d" f.Ir.Func.name curl a
    | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name);
    (* Terminator.  The fused compare-and-branch test was body code
       before fusion, so its faults keep the body's block context. *)
    prev := curl;
    match if linked then b.r_link else RL_none with
    | RL_halt ->
        st.ret_lane <- None;
        running := false
    | RL_ret w ->
        w fr;
        running := false
    | RL_br nb -> tb := hop st rtblocks nb
    | RL_cond (t, x, y) -> tb := hop st rtblocks (if t fr then x else y)
    | RL_cmp_br (test, x, y) ->
        let c =
          try test fr with
          | Ir.Eval.Type_error m ->
              fault "@%s/bb%d: %s" f.Ir.Func.name curl m
          | Memory.Bad_address a ->
              fault "@%s/bb%d: bad address %d" f.Ir.Func.name curl a
          | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name
        in
        tb := hop st rtblocks (if c then x else y)
    | RL_switch (g, dflt, tbl) ->
        let sv = g fr in
        tb :=
          hop st rtblocks
            (match Hashtbl.find_opt tbl sv with Some t -> t | None -> dflt)
    | RL_none -> (
        (* unlinked: transfer through the indexed path — also the
           linked engine's route for terminators whose labels fall
           outside the function, faulting exactly like the unlinked
           engine *)
        st.hops <- st.tuning.max_linked_blocks;
        match b.r_term with
        | R_halt ->
            st.ret_lane <- None;
            running := false
        | R_ret w ->
            w fr;
            running := false
        | R_br l -> tb := rtblocks.(l)
        | R_cond (t, x, y) -> tb := rtblocks.(if t fr then x else y)
        | R_cmp_br (test, x, y) ->
            let c =
              try test fr with
              | Ir.Eval.Type_error m ->
                  fault "@%s/bb%d: %s" f.Ir.Func.name curl m
              | Memory.Bad_address a ->
                  fault "@%s/bb%d: bad address %d" f.Ir.Func.name curl a
              | Memory.Out_of_memory ->
                  fault "@%s: out of memory" f.Ir.Func.name
            in
            tb := rtblocks.(if c then x else y)
        | R_switch (g, dflt, tbl) ->
            let sv = g fr in
            tb :=
              rtblocks.(match Hashtbl.find_opt tbl sv with
                        | Some l -> l
                        | None -> dflt))
  done;
  st.spent <- !spent;
  Memory.release st.memory frame_mark

(* The boxed side of the typed call seam: the run's entry call, and
   calls whose arity or parameter registers do not fit the slot-to-slot
   copy of {!compile_rblock}.  Same order as the other engines: depth
   limit, arity check, then the arguments are unboxed into the
   parameter registers' classes (registers 0..n-1, like the boxed
   engines' install). *)
and renter (st : state) (fi : func_info) (args : Ir.Eval.value array) : unit =
  let f = fi.func in
  if st.depth >= st.max_depth then depth_exceeded st f.Ir.Func.name;
  if Array.length args <> List.length f.Ir.Func.params then
    fault "@%s: expected %d arguments, got %d" f.Ir.Func.name
      (List.length f.Ir.Func.params)
      (Array.length args);
  let classes = fi.rclasses and slots = fi.rslots in
  let fr = acquire_frame fi in
  Array.iteri
    (fun i v ->
      if i >= 0 && i < Array.length classes then (
        let s = slots.(i) in
        match classes.(i) with
        | C_int -> iset fr.fr_i s (as_int v)
        | C_float -> fr.fr_f.(s) <- as_float v
        | C_ptr -> fr.fr_p.(s) <- as_ptr v
        | C_boxed -> fr.fr_v.(s) <- v)
      else fr.fr_v.(i) <- v)
    args;
  rcall st fi fr

(* Run an activation on a filled frame, counting it against the depth
   limit and the function's frame pool. *)
and rcall (st : state) (fi : func_info) (fr : frame) : unit =
  st.depth <- st.depth + 1;
  fi.rdepth <- fi.rdepth + 1;
  exec_r st fi fr;
  fi.rdepth <- fi.rdepth - 1;
  st.depth <- st.depth - 1

(* Engine selection for the boxed compiled tier: its [Call] closures and
   the run entry point go through [enter], so the linking knob applies
   to callees too. *)
and enter (st : state) (fi : func_info) (args : Ir.Eval.value array) :
    Ir.Eval.value option =
  if st.tuning.link then exec_linked st fi args else exec_threaded st fi args

(** Compile one function's blocks to threaded code.  All of the
    module's functions must already be prepared in [st.funcs] so callee
    [func_info]s can be captured; their own [tblocks] may be compiled
    later (the closure reads them at call time). *)
and compile_func (st : state) (fi : func_info) : tblock array =
  Array.mapi (fun bnum bi -> compile_block st fi bnum bi) fi.blocks

and compile_block (st : state) (fi : func_info) (bnum : int) (bi : block_info) :
    tblock =
  let fname = fi.func.Ir.Func.name in
  let nphi = bi.phi_count in
  let t_phi_srcs =
    Array.init nphi (fun k ->
        Array.map
          (function
            | None -> P_missing
            | Some op -> (
                match decode_operand op with
                | Slot r -> P_slot r
                | Imm v -> P_imm v))
          bi.phi_incoming.(k))
  in
  let mem = st.memory in
  let nregs = max 1 fi.func.Ir.Func.next_reg in
  let compile_instr (i : Ir.Instr.t) : Ir.Eval.value array -> unit =
    let d = i.Ir.Instr.id in
    let ty = i.Ir.Instr.ty in
    match i.Ir.Instr.kind with
    | Ir.Instr.Phi _ ->
        (* Mirrors the reference engine: a phi after a non-phi is a
           runtime fault of the block, not a compile error. *)
        fun _ -> fault "@%s/bb%d: phi after non-phi" fname bnum
    | Ir.Instr.Binop (op, a, b) ->
        compile_binop ~nregs ty op d (decode_operand a) (decode_operand b)
    | Ir.Instr.Icmp (p, a, b) ->
        compile_icmp ~nregs p d (decode_operand a) (decode_operand b)
    | Ir.Instr.Fcmp (p, a, b) ->
        compile_fcmp ~nregs p d (decode_operand a) (decode_operand b)
    | Ir.Instr.Cast (c, a) ->
        let from_ =
          match a with
          | Ir.Instr.Const cst -> Ir.Instr.const_ty cst
          | Ir.Instr.Reg r -> fi.reg_tys.(r)
        in
        compile_cast ~nregs c ~from_ ~to_:ty d (decode_operand a)
    | Ir.Instr.Select (c, a, b) -> (
        let sc = decode_operand c
        and sa = decode_operand a
        and sb = decode_operand b in
        let ok r = r >= 0 && r < nregs in
        match (sc, sa, sb) with
        | Slot rc, Slot ra, Slot rb when ok d && ok rc && ok ra && ok rb ->
            fun regs ->
              Array.unsafe_set regs d
                (if is_true (Array.unsafe_get regs rc) then
                   Array.unsafe_get regs ra
                 else Array.unsafe_get regs rb)
        | _ ->
            (* all three operands are read strictly, like the reference
               engine's [eval_select] call *)
            fun regs ->
              let vc = fetch regs sc
              and va = fetch regs sa
              and vb = fetch regs sb in
              regs.(d) <- (if is_true vc then va else vb))
    | Ir.Instr.Alloca (_, count) ->
        fun regs -> regs.(d) <- Ir.Eval.VPtr (Memory.alloc mem count)
    | Ir.Instr.Load a -> (
        match decode_operand a with
        | Slot ra when d >= 0 && d < nregs && ra >= 0 && ra < nregs ->
            fun regs ->
              Array.unsafe_set regs d
                (Memory.load mem (as_ptr (Array.unsafe_get regs ra)))
        | Slot ra ->
            fun regs -> regs.(d) <- Memory.load mem (as_ptr regs.(ra))
        | Imm va -> fun regs -> regs.(d) <- Memory.load mem (as_ptr va)
        )
    | Ir.Instr.Store (x, a) -> (
        match (decode_operand x, decode_operand a) with
        | Slot rx, Slot ra when rx < nregs && ra < nregs && rx >= 0 && ra >= 0
          ->
            fun regs ->
              Memory.store mem
                (as_ptr (Array.unsafe_get regs ra))
                (Array.unsafe_get regs rx)
        | sx, sa ->
            fun regs ->
              Memory.store mem (as_ptr (fetch regs sa)) (fetch regs sx)
        )
    | Ir.Instr.Gep (base, idx) -> (
        let sb = decode_operand base and si = decode_operand idx in
        let ok r = r >= 0 && r < nregs in
        match (sb, si) with
        | Slot a, Slot b when ok d && ok a && ok b ->
            fun regs ->
              Array.unsafe_set regs d
                (Ir.Eval.VPtr
                   (as_ptr (Array.unsafe_get regs a)
                   + Int64.to_int (as_int (Array.unsafe_get regs b))))
        | Slot a, Imm (Ir.Eval.VInt ib) when ok d && ok a ->
            let n = Int64.to_int ib in
            fun regs ->
              Array.unsafe_set regs d
                (Ir.Eval.VPtr (as_ptr (Array.unsafe_get regs a) + n))
        | _ ->
            bin_closure ~nregs
              (fun vb vi ->
                Ir.Eval.VPtr
                  (as_ptr vb + Int64.to_int (as_int vi)))
              d sb si)
    | Ir.Instr.Gaddr g ->
        (* Resolved lazily on first execution: resolving at compile time
           would turn an unknown global in never-executed code into an
           eager error the reference engine doesn't raise.  Within one
           run the layout is fixed after [load_globals], so the base is
           memoized; an unknown global re-raises the same
           [Invalid_argument] on every execution, like the reference. *)
        let cell = ref (-1) in
        fun regs ->
          let b = !cell in
          let b =
            if b >= 0 then b
            else begin
              let b = Memory.global_base mem g in
              cell := b;
              b
            end
          in
          regs.(d) <- Ir.Eval.VPtr b
    | Ir.Instr.Call (name, argops) -> (
        let srcs = Array.of_list (List.map decode_operand argops) in
        let eval_args = args_fn srcs in
        match Hashtbl.find_opt st.funcs name with
        | Some callee -> (
            fun regs ->
              match enter st callee (eval_args regs) with
              | Some r -> regs.(d) <- r
              | None -> ())
        | None -> (
            match find_intrinsic name with
            | Some impl -> fun regs -> regs.(d) <- impl (eval_args regs)
            | None -> fun _ -> fault "call to unknown function @%s" name))
    | Ir.Instr.Ci_call (ci, argops) -> (
        let srcs = Array.of_list (List.map decode_operand argops) in
        let eval_args = args_fn srcs in
        match Hashtbl.find_opt st.cis ci with
        | Some impl -> (
            (* CI-native dispatch: when the knob is on and the CI ships
               a fused closure compiled from its MISO subgraph, one
               dispatch executes the whole subgraph — functionally
               identical to [ci_eval] by construction (pinned by the
               differential suite).  The cycle charge is untouched:
               with a monitor it is still read from the swap cell at
               dispatch, so the controller's software/hardware rebinds
               land identically whichever body runs. *)
            let eval =
              if st.tuning.ci_native then
                match impl.ci_native with Some f -> f | None -> impl.ci_eval
              else impl.ci_eval
            in
            match st.swap with
            | None ->
                let cyc = float_of_int impl.ci_cycles in
                fun regs ->
                  regs.(d) <- eval (eval_args regs);
                  st.clk.(0) <- st.clk.(0) +. cyc;
                  st.clk.(1) <- st.clk.(1) +. cyc
            | Some cells ->
                (* Hot-swappable binding: the charge is read from the
                   CI's swap cell at dispatch so the controller can
                   rebind software/hardware cost between blocks without
                   recompiling the fused closures. *)
                let cell =
                  match Hashtbl.find_opt cells ci with
                  | Some c -> c
                  | None ->
                      let c = ref (float_of_int impl.ci_cycles) in
                      Hashtbl.replace cells ci c;
                      c
                in
                fun regs ->
                  regs.(d) <- eval (eval_args regs);
                  let cyc = !cell in
                  st.clk.(0) <- st.clk.(0) +. cyc;
                  st.clk.(1) <- st.clk.(1) +. cyc)
        | None -> fun _ -> fault "custom instruction #%d is not configured" ci)
  in
  (* --- sink-tree fusion: planning ------------------------------- *)
  let n = bi.ninstrs in
  let ok r = r >= 0 && r < nregs in
  (* A producer is sinkable when deferring it from its own body
     position to its consumer's is unobservable on type-sound
     executions.  The pure kinds neither read memory nor fault.  A
     [Load] may fault ([Bad_address]) and reads memory, so it is only a
     candidate here; a veto pass below keeps it anchored unless nothing
     observable sits inside its sink window.  Divisions fault on
     type-sound programs and stay anchored. *)
  let sinkable (i : Ir.Instr.t) =
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop
        ((Ir.Instr.Sdiv | Ir.Instr.Udiv | Ir.Instr.Srem | Ir.Instr.Urem), _, _)
      ->
        false
    | Ir.Instr.Binop _ | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ | Ir.Instr.Cast _
    | Ir.Instr.Select _ | Ir.Instr.Gep _ | Ir.Instr.Gaddr _ | Ir.Instr.Load _
      ->
        true
    | _ -> false
  in
  (* [def_at.(r)] is the body index of the sinkable single-use
     definition of register [r] in this block, or -1.  Only in-range
     destinations qualify: an absorbed producer skips its register
     write, which must not swallow the [Invalid_argument] an
     out-of-range write would have raised. *)
  let def_at = Array.make nregs (-1) in
  let absorbed = Array.make (max 1 n) false in
  (* [consumer.(j)] is the body index of the instruction that absorbs
     producer [j] ([n] when it is the fused terminator scrutinee's
     tree); used to resolve the anchor position a sunk load would
     execute at. *)
  let consumer = Array.make (max 1 n) (-1) in
  if st.tuning.fuse then
    for j = nphi to n - 1 do
      let i = bi.instrs.(j) in
      let d = i.Ir.Instr.id in
      if
        sinkable i && ok d
        && d < Array.length fi.use_counts
        && fi.use_counts.(d) = 1
      then def_at.(d) <- j
    done;
  (* Mark the producers a tree-compiled instruction at body index [j]
     absorbs: every register operand whose sinkable single-use
     definition lies strictly earlier in this block's body.  The
     single static use is the operand being inspected, so no other
     reader can observe the skipped register write. *)
  let plan_operand j (op : Ir.Instr.operand) =
    match op with
    | Ir.Instr.Reg r when ok r && def_at.(r) >= 0 && def_at.(r) < j ->
        absorbed.(def_at.(r)) <- true;
        consumer.(def_at.(r)) <- j
    | _ -> ()
  in
  let plan_instr j (i : Ir.Instr.t) =
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop (_, a, b)
    | Ir.Instr.Icmp (_, a, b)
    | Ir.Instr.Fcmp (_, a, b)
    | Ir.Instr.Gep (a, b)
    | Ir.Instr.Store (a, b) ->
        plan_operand j a;
        plan_operand j b
    | Ir.Instr.Cast (_, a) | Ir.Instr.Load a -> plan_operand j a
    | Ir.Instr.Select (c, a, b) ->
        plan_operand j c;
        plan_operand j a;
        plan_operand j b
    | Ir.Instr.Phi _ | Ir.Instr.Alloca _ | Ir.Instr.Gaddr _ | Ir.Instr.Call _
    | Ir.Instr.Ci_call _ ->
        (* calls keep their argument evaluation exactly as compiled;
           the others have no register operands *)
        ()
  in
  let op_absorbed (op : Ir.Instr.operand) =
    match op with
    | Ir.Instr.Reg r -> ok r && def_at.(r) >= 0 && absorbed.(def_at.(r))
    | Ir.Instr.Const _ -> false
  in
  let has_absorbed (i : Ir.Instr.t) =
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop (_, a, b)
    | Ir.Instr.Icmp (_, a, b)
    | Ir.Instr.Fcmp (_, a, b)
    | Ir.Instr.Gep (a, b)
    | Ir.Instr.Store (a, b) ->
        op_absorbed a || op_absorbed b
    | Ir.Instr.Cast (_, a) | Ir.Instr.Load a -> op_absorbed a
    | Ir.Instr.Select (c, a, b) ->
        op_absorbed c || op_absorbed a || op_absorbed b
    | _ -> false
  in
  (* Compare-and-branch fusion: when the scrutinee of this block's
     conditional is the sinkable last body instruction and is used
     nowhere else, it folds into the terminator and its body position
     is skipped. *)
  let fused_scrutinee =
    if st.tuning.fuse && n > nphi then
      match bi.term with
      | Ir.Instr.Cond_br (Ir.Instr.Reg r, a, b)
        when bi.instrs.(n - 1).Ir.Instr.id = r
             && r >= 0
             && r < Array.length fi.use_counts
             && fi.use_counts.(r) = 1
             && sinkable bi.instrs.(n - 1) ->
          Some (bi.instrs.(n - 1), a, b)
      | _ -> None
    else None
  in
  let body_end = match fused_scrutinee with Some _ -> n - 1 | None -> n in
  if st.tuning.fuse then begin
    (match fused_scrutinee with
    | Some (ci, _, _) -> plan_instr n ci
    | None -> ());
    (* Anchors and absorbed producers alike absorb their own operands,
       so chains collapse transitively.  A single pass suffices: the
       marks depend only on [def_at] and static use counts. *)
    for j = nphi to body_end - 1 do
      let i = bi.instrs.(j) in
      match i.Ir.Instr.kind with
      | Ir.Instr.Phi _ | Ir.Instr.Alloca _ | Ir.Instr.Call _
      | Ir.Instr.Ci_call _ ->
          ()
      | _ -> plan_instr j i
    done;
    (* Load-sink veto.  A sunk load executes at its anchor's position,
       so its sink window — the body indices strictly between its own
       position and the anchor's — must contain nothing observable:
       no store, call, alloca, and no other load at its original
       position (two loads with bad addresses would otherwise swap
       which address the block's fault reports).  Pure sinkable
       producers in the window are fine: they cannot fault on
       type-sound executions.  This veto also caps each fused tree at
       one load, since a second absorbed load necessarily sits in the
       earlier one's window. *)
    let barrier (m : int) =
      match bi.instrs.(m).Ir.Instr.kind with
      | Ir.Instr.Load _ | Ir.Instr.Store _ | Ir.Instr.Alloca _
      | Ir.Instr.Call _ | Ir.Instr.Ci_call _ ->
          true
      | _ -> false
    in
    let rec anchor k =
      if k >= n then n else if absorbed.(k) then anchor consumer.(k) else k
    in
    for j = nphi to body_end - 1 do
      match bi.instrs.(j).Ir.Instr.kind with
      | Ir.Instr.Load _ when absorbed.(j) ->
          let k = anchor consumer.(j) in
          let m = ref (j + 1) in
          let blocked = ref false in
          while (not !blocked) && !m < k do
            if barrier !m then blocked := true;
            incr m
          done;
          if !blocked then absorbed.(j) <- false
      | _ -> ()
    done
  end;
  (* --- sink-tree fusion: emission ------------------------------- *)
  (* Typed tree compilers.  Each compiles the value of instruction [j]
     (or an operand) into an {e unboxed} closure for one of the scalar
     classes — the int64 an [as_int] of the boxed value would give
     ([iop]/[inode]), the float of [as_float] ([fop]/[fnode]), the
     address of [as_ptr] ([pop]/[pnode]), a comparison's boolean
     ([bnode]) — so a fused chain allocates no intermediate [value]s.
     [None] means the shape has no unboxed form in that class; the
     boxed compilers ([vop]/[vnode]/[gnode]) then take over, and any
     type conversion happens exactly where the unfused consumer's
     [Ir.Eval] closure would perform it.  The scalar expressions
     mirror the [Ir.Eval.*_fn] arms (same renormalization, shift
     masking, NaN and division-by-zero treatment); the differential
     suite pins both engines to identical outcomes.  Operands evaluate
     left-to-right in operand order, each subtree fully before the
     consumer's own conversions. *)
  let from_ty_of (a : Ir.Instr.operand) =
    match a with
    | Ir.Instr.Const cst -> Ir.Instr.const_ty cst
    | Ir.Instr.Reg r -> fi.reg_tys.(r)
  in
  let rec iop (op : Ir.Instr.operand) : iarg option =
    match op with
    | Ir.Instr.Const c -> (
        match E.of_const c with
        | E.VInt k -> Some (IConst k)
        | E.VPtr p -> Some (IConst (Int64.of_int p))
        | E.VFloat _ -> None)
    | Ir.Instr.Reg r ->
        if ok r then
          if def_at.(r) >= 0 && absorbed.(def_at.(r)) then
            match inode def_at.(r) with
            | Some f -> Some (IFun f)
            | None -> None
          else Some (ISlot r)
        else None
  and inode (j : int) : (Ir.Eval.value array -> int64) option =
    let i = bi.instrs.(j) in
    let ty = i.Ir.Instr.ty in
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop (op, a, b) -> (
        let sh = E.norm_shift ty in
        let sm = E.shift_amount ty (-1L) in
        let um = E.umask ty (-1L) in
        (* Per-shape arms: slot and constant leaves are inlined into the
           node closure's body; mixed shapes fall through to the
           materialized generic arm.  Same scalar expression in every
           arm of an operator. *)
        match (op, iop a, iop b) with
        | Ir.Instr.Add, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.add x y)
              | ISlot ra, IConst kb ->
                  fun regs -> renorm sh (Int64.add (geti regs ra) kb)
              | IConst ka, ISlot rb ->
                  fun regs -> renorm sh (Int64.add ka (geti regs rb))
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    renorm sh (Int64.add x y)
              | ISlot ra, IFun fb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = fb regs in
                    renorm sh (Int64.add x y)
              | IFun fa, IConst kb ->
                  fun regs -> renorm sh (Int64.add (fa regs) kb)
              | IFun fa, IFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.add x y)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.add x y))
        | Ir.Instr.Sub, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.sub x y)
              | ISlot ra, IConst kb ->
                  fun regs -> renorm sh (Int64.sub (geti regs ra) kb)
              | IConst ka, ISlot rb ->
                  fun regs -> renorm sh (Int64.sub ka (geti regs rb))
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    renorm sh (Int64.sub x y)
              | ISlot ra, IFun fb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = fb regs in
                    renorm sh (Int64.sub x y)
              | IFun fa, IConst kb ->
                  fun regs -> renorm sh (Int64.sub (fa regs) kb)
              | IFun fa, IFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.sub x y)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.sub x y))
        | Ir.Instr.Mul, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.mul x y)
              | ISlot ra, IConst kb ->
                  fun regs -> renorm sh (Int64.mul (geti regs ra) kb)
              | IConst ka, ISlot rb ->
                  fun regs -> renorm sh (Int64.mul ka (geti regs rb))
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    renorm sh (Int64.mul x y)
              | ISlot ra, IFun fb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = fb regs in
                    renorm sh (Int64.mul x y)
              | IFun fa, IConst kb ->
                  fun regs -> renorm sh (Int64.mul (fa regs) kb)
              | IFun fa, IFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.mul x y)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.mul x y))
        | Ir.Instr.And, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.logand x y)
              | ISlot ra, IConst kb ->
                  fun regs -> renorm sh (Int64.logand (geti regs ra) kb)
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    renorm sh (Int64.logand x y)
              | IFun fa, IConst kb ->
                  fun regs -> renorm sh (Int64.logand (fa regs) kb)
              | IFun fa, IFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.logand x y)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.logand x y))
        | Ir.Instr.Or, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.logor x y)
              | ISlot ra, IConst kb ->
                  fun regs -> renorm sh (Int64.logor (geti regs ra) kb)
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    renorm sh (Int64.logor x y)
              | IFun fa, IConst kb ->
                  fun regs -> renorm sh (Int64.logor (fa regs) kb)
              | IFun fa, IFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.logor x y)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.logor x y))
        | Ir.Instr.Xor, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.logxor x y)
              | ISlot ra, IConst kb ->
                  fun regs -> renorm sh (Int64.logxor (geti regs ra) kb)
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    renorm sh (Int64.logxor x y)
              | IFun fa, IConst kb ->
                  fun regs -> renorm sh (Int64.logxor (fa regs) kb)
              | IFun fa, IFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.logxor x y)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.logxor x y))
        | Ir.Instr.Shl, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.shift_left x (Int64.to_int y land sm))
              | ISlot ra, IConst kb ->
                  let n = Int64.to_int kb land sm in
                  fun regs -> renorm sh (Int64.shift_left (geti regs ra) n)
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    renorm sh (Int64.shift_left x (Int64.to_int y land sm))
              | IFun fa, IConst kb ->
                  let n = Int64.to_int kb land sm in
                  fun regs -> renorm sh (Int64.shift_left (fa regs) n)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.shift_left x (Int64.to_int y land sm)))
        | Ir.Instr.Lshr, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh
                      (Int64.shift_right_logical (Int64.logand x um)
                         (Int64.to_int y land sm))
              | ISlot ra, IConst kb ->
                  let n = Int64.to_int kb land sm in
                  fun regs ->
                    renorm sh
                      (Int64.shift_right_logical
                         (Int64.logand (geti regs ra) um)
                         n)
              | IFun fa, IConst kb ->
                  let n = Int64.to_int kb land sm in
                  fun regs ->
                    renorm sh
                      (Int64.shift_right_logical (Int64.logand (fa regs) um) n)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh
                      (Int64.shift_right_logical (Int64.logand x um)
                         (Int64.to_int y land sm)))
        | Ir.Instr.Ashr, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    renorm sh (Int64.shift_right x (Int64.to_int y land sm))
              | ISlot ra, IConst kb ->
                  let n = Int64.to_int kb land sm in
                  fun regs -> renorm sh (Int64.shift_right (geti regs ra) n)
              | IFun fa, IConst kb ->
                  let n = Int64.to_int kb land sm in
                  fun regs -> renorm sh (Int64.shift_right (fa regs) n)
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    renorm sh (Int64.shift_right x (Int64.to_int y land sm)))
        | Ir.Instr.Sdiv, Some aa, Some bb ->
            let fa = ifn aa and fb = ifn bb in
            Some
              (fun regs ->
                let x = fa regs in
                let y = fb regs in
                if y = 0L then raise E.Division_by_zero
                else renorm sh (Int64.div x y))
        | Ir.Instr.Srem, Some aa, Some bb ->
            let fa = ifn aa and fb = ifn bb in
            Some
              (fun regs ->
                let x = fa regs in
                let y = fb regs in
                if y = 0L then raise E.Division_by_zero
                else renorm sh (Int64.rem x y))
        | Ir.Instr.Udiv, Some aa, Some bb ->
            let fa = ifn aa and fb = ifn bb in
            Some
              (fun regs ->
                let x = fa regs in
                let y = fb regs in
                let y' = Int64.logand y um in
                if y' = 0L then raise E.Division_by_zero
                else renorm sh (Int64.unsigned_div (Int64.logand x um) y'))
        | Ir.Instr.Urem, Some aa, Some bb ->
            let fa = ifn aa and fb = ifn bb in
            Some
              (fun regs ->
                let x = fa regs in
                let y = fb regs in
                let y' = Int64.logand y um in
                if y' = 0L then raise E.Division_by_zero
                else renorm sh (Int64.unsigned_rem (Int64.logand x um) y'))
        | _ -> None)
    | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ -> (
        match bnode j with
        | Some bt -> Some (fun regs -> if bt regs then 1L else 0L)
        | None -> None)
    | Ir.Instr.Cast (c, a) -> (
        match c with
        | Ir.Instr.Trunc | Ir.Instr.Sext -> (
            let sh = E.norm_shift ty in
            match iop a with
            | Some (ISlot ra) ->
                Some (fun regs -> renorm sh (geti regs ra))
            | Some (IConst ka) ->
                let v = renorm sh ka in
                Some (fun _ -> v)
            | Some (IFun fa) -> Some (fun regs -> renorm sh (fa regs))
            | None -> None)
        | Ir.Instr.Zext -> (
            let sh = E.norm_shift ty in
            let um = E.umask (from_ty_of a) (-1L) in
            match iop a with
            | Some (ISlot ra) ->
                Some
                  (fun regs ->
                    renorm sh (Int64.logand (geti regs ra) um))
            | Some (IConst ka) ->
                let v = renorm sh (Int64.logand ka um) in
                Some (fun _ -> v)
            | Some (IFun fa) ->
                Some (fun regs -> renorm sh (Int64.logand (fa regs) um))
            | None -> None)
        | Ir.Instr.Fptosi -> (
            let sh = E.norm_shift ty in
            match fop a with
            | Some fa ->
                let fa = ffn fa in
                Some
                  (fun regs ->
                    let f = fa regs in
                    if Float.is_nan f then 0L
                    else renorm sh (Int64.of_float f))
            | None -> None)
        | _ -> None)
    | Ir.Instr.Gep _ | Ir.Instr.Gaddr _ -> (
        match pnode j with
        | Some pp -> Some (fun regs -> Int64.of_int (pp regs))
        | None -> None)
    | Ir.Instr.Load a -> (
        (* sunk load (the veto pass admitted it); the [as_int] is the
           conversion the unfused consumer would apply.  An absorbed
           [Gep] address is inlined here so the whole array read stays
           one closure. *)
        match gep_of a with
        | Some (base, idx) -> (
            match (pop base, iop idx) with
            | Some pb, Some pi ->
                Some
                  (match (pb, pi) with
                  | PSlot rb, ISlot ri ->
                      fun regs ->
                        let p = as_ptr (Array.unsafe_get regs rb) in
                        let x = geti regs ri in
                        as_int (Memory.load mem (p + Int64.to_int x))
                  | PSlot rb, IConst ki ->
                      let nn = Int64.to_int ki in
                      fun regs ->
                        as_int
                          (Memory.load mem
                             (as_ptr (Array.unsafe_get regs rb) + nn))
                  | PFun pf, ISlot ri ->
                      fun regs ->
                        let p = pf regs in
                        let x = geti regs ri in
                        as_int (Memory.load mem (p + Int64.to_int x))
                  | PFun pf, IConst ki ->
                      let nn = Int64.to_int ki in
                      fun regs ->
                        let p = pf regs in
                        as_int (Memory.load mem (p + nn))
                  | pb, pi ->
                      let fp = pfn pb and fx = ifn pi in
                      fun regs ->
                        let p = fp regs in
                        let x = fx regs in
                        as_int (Memory.load mem (p + Int64.to_int x)))
            | _ -> None)
        | None -> (
            match pop a with
            | Some pa ->
                let fp = pfn pa in
                Some (fun regs -> as_int (Memory.load mem (fp regs)))
            | None -> None))
    | _ -> None
  and gep_of (a : Ir.Instr.operand) :
      (Ir.Instr.operand * Ir.Instr.operand) option =
    (* the absorbed [Gep] behind operand [a], if that is what it is *)
    match a with
    | Ir.Instr.Reg r when ok r && def_at.(r) >= 0 && absorbed.(def_at.(r))
      -> (
        match bi.instrs.(def_at.(r)).Ir.Instr.kind with
        | Ir.Instr.Gep (base, idx) -> Some (base, idx)
        | _ -> None)
    | _ -> None
  and fop (op : Ir.Instr.operand) : farg option =
    match op with
    | Ir.Instr.Const c -> (
        match E.of_const c with
        | E.VFloat f -> Some (FConst f)
        | E.VInt _ | E.VPtr _ -> None)
    | Ir.Instr.Reg r ->
        if ok r then
          if def_at.(r) >= 0 && absorbed.(def_at.(r)) then
            match fnode def_at.(r) with
            | Some f -> Some (FFun f)
            | None -> None
          else Some (FSlot r)
        else None
  and fnode (j : int) : (Ir.Eval.value array -> float) option =
    let i = bi.instrs.(j) in
    let ty = i.Ir.Instr.ty in
    match i.Ir.Instr.kind with
    (* F32 rounds per operation; those nodes stay on the boxed
       [Ir.Eval.binop_fn] path *)
    | Ir.Instr.Binop (op, a, b) when ty <> Ir.Ty.F32 -> (
        match (op, fop a, fop b) with
        | Ir.Instr.Fadd, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | FSlot ra, FSlot rb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = getf regs rb in
                    x +. y
              | FSlot ra, FConst kb -> fun regs -> getf regs ra +. kb
              | FConst ka, FSlot rb -> fun regs -> ka +. getf regs rb
              | FFun fa, FSlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    x +. y
              | FSlot ra, FFun fb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    x +. y
              | FFun fa, FConst kb -> fun regs -> fa regs +. kb
              | FFun fa, FFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x +. y
              | aa, bb ->
                  let fa = ffn aa and fb = ffn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x +. y)
        | Ir.Instr.Fsub, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | FSlot ra, FSlot rb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = getf regs rb in
                    x -. y
              | FSlot ra, FConst kb -> fun regs -> getf regs ra -. kb
              | FConst ka, FSlot rb -> fun regs -> ka -. getf regs rb
              | FFun fa, FSlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    x -. y
              | FSlot ra, FFun fb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    x -. y
              | FFun fa, FConst kb -> fun regs -> fa regs -. kb
              | FFun fa, FFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x -. y
              | aa, bb ->
                  let fa = ffn aa and fb = ffn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x -. y)
        | Ir.Instr.Fmul, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | FSlot ra, FSlot rb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = getf regs rb in
                    x *. y
              | FSlot ra, FConst kb -> fun regs -> getf regs ra *. kb
              | FConst ka, FSlot rb -> fun regs -> ka *. getf regs rb
              | FFun fa, FSlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    x *. y
              | FSlot ra, FFun fb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    x *. y
              | FFun fa, FConst kb -> fun regs -> fa regs *. kb
              | FFun fa, FFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x *. y
              | aa, bb ->
                  let fa = ffn aa and fb = ffn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x *. y)
        | Ir.Instr.Fdiv, Some aa, Some bb ->
            Some
              (match (aa, bb) with
              | FSlot ra, FSlot rb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = getf regs rb in
                    x /. y
              | FSlot ra, FConst kb -> fun regs -> getf regs ra /. kb
              | FConst ka, FSlot rb -> fun regs -> ka /. getf regs rb
              | FFun fa, FSlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    x /. y
              | FSlot ra, FFun fb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    x /. y
              | FFun fa, FConst kb -> fun regs -> fa regs /. kb
              | FFun fa, FFun fb ->
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x /. y
              | aa, bb ->
                  let fa = ffn aa and fb = ffn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    x /. y)
        | _ -> None)
    | Ir.Instr.Cast (c, a) -> (
        match c with
        | Ir.Instr.Sitofp when ty <> Ir.Ty.F32 -> (
            match iop a with
            | Some (ISlot ra) ->
                Some (fun regs -> Int64.to_float (geti regs ra))
            | Some (IConst ka) ->
                let v = Int64.to_float ka in
                Some (fun _ -> v)
            | Some (IFun fa) -> Some (fun regs -> Int64.to_float (fa regs))
            | None -> None)
        | Ir.Instr.Fpext -> (
            match fop a with Some fa -> Some (ffn fa) | None -> None)
        | Ir.Instr.Fptrunc when ty <> Ir.Ty.F32 -> (
            match fop a with Some fa -> Some (ffn fa) | None -> None)
        | _ -> None)
    | Ir.Instr.Load a -> (
        match gep_of a with
        | Some (base, idx) -> (
            match (pop base, iop idx) with
            | Some pb, Some pi ->
                Some
                  (match (pb, pi) with
                  | PSlot rb, ISlot ri ->
                      fun regs ->
                        let p = as_ptr (Array.unsafe_get regs rb) in
                        let x = geti regs ri in
                        as_float (Memory.load mem (p + Int64.to_int x))
                  | PSlot rb, IConst ki ->
                      let nn = Int64.to_int ki in
                      fun regs ->
                        as_float
                          (Memory.load mem
                             (as_ptr (Array.unsafe_get regs rb) + nn))
                  | PFun pf, ISlot ri ->
                      fun regs ->
                        let p = pf regs in
                        let x = geti regs ri in
                        as_float (Memory.load mem (p + Int64.to_int x))
                  | PFun pf, IConst ki ->
                      let nn = Int64.to_int ki in
                      fun regs ->
                        let p = pf regs in
                        as_float (Memory.load mem (p + nn))
                  | pb, pi ->
                      let fp = pfn pb and fx = ifn pi in
                      fun regs ->
                        let p = fp regs in
                        let x = fx regs in
                        as_float (Memory.load mem (p + Int64.to_int x)))
            | _ -> None)
        | None -> (
            match pop a with
            | Some pa ->
                let fp = pfn pa in
                Some (fun regs -> as_float (Memory.load mem (fp regs)))
            | None -> None))
    | _ -> None
  and pop (op : Ir.Instr.operand) : parg option =
    match op with
    | Ir.Instr.Const c -> (
        match E.of_const c with
        | E.VPtr p -> Some (PConst p)
        | E.VInt v -> Some (PConst (Int64.to_int v))
        | E.VFloat _ -> None)
    | Ir.Instr.Reg r ->
        if ok r then
          if def_at.(r) >= 0 && absorbed.(def_at.(r)) then
            match pnode def_at.(r) with
            | Some f -> Some (PFun f)
            | None -> None
          else Some (PSlot r)
        else None
  and pnode (j : int) : (Ir.Eval.value array -> int) option =
    let i = bi.instrs.(j) in
    match i.Ir.Instr.kind with
    | Ir.Instr.Gep (base, idx) -> (
        match (pop base, iop idx) with
        | Some pb, Some pi ->
            Some
              (match (pb, pi) with
              | PSlot rb, ISlot ri ->
                  fun regs ->
                    let p = as_ptr (Array.unsafe_get regs rb) in
                    let x = geti regs ri in
                    p + Int64.to_int x
              | PSlot rb, IConst ki ->
                  let n = Int64.to_int ki in
                  fun regs -> as_ptr (Array.unsafe_get regs rb) + n
              | PFun pf, ISlot ri ->
                  fun regs ->
                    let p = pf regs in
                    let x = geti regs ri in
                    p + Int64.to_int x
              | PFun pf, IConst ki ->
                  let n = Int64.to_int ki in
                  fun regs -> pf regs + n
              | PSlot rb, IFun fi' ->
                  fun regs ->
                    let p = as_ptr (Array.unsafe_get regs rb) in
                    let x = fi' regs in
                    p + Int64.to_int x
              | PFun pf, IFun fi' ->
                  fun regs ->
                    let p = pf regs in
                    let x = fi' regs in
                    p + Int64.to_int x
              | pb, pi ->
                  let fp = pfn pb and fx = ifn pi in
                  fun regs ->
                    let p = fp regs in
                    let x = fx regs in
                    p + Int64.to_int x)
        | _ -> None)
    | Ir.Instr.Gaddr g ->
        (* lazily memoized, like [compile_instr] *)
        let cell = ref (-1) in
        Some
          (fun _ ->
            let b = !cell in
            if b >= 0 then b
            else begin
              let b = Memory.global_base mem g in
              cell := b;
              b
            end)
    | Ir.Instr.Binop _ | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ | Ir.Instr.Cast _
      -> (
        (* [as_ptr] of an integer value is [Int64.to_int] *)
        match inode j with
        | Some ii -> Some (fun regs -> Int64.to_int (ii regs))
        | None -> None)
    | Ir.Instr.Load a -> (
        match gep_of a with
        | Some (base, idx) -> (
            match (pop base, iop idx) with
            | Some pb, Some pi ->
                Some
                  (match (pb, pi) with
                  | PSlot rb, ISlot ri ->
                      fun regs ->
                        let p = as_ptr (Array.unsafe_get regs rb) in
                        let x = geti regs ri in
                        as_ptr (Memory.load mem (p + Int64.to_int x))
                  | PSlot rb, IConst ki ->
                      let nn = Int64.to_int ki in
                      fun regs ->
                        as_ptr
                          (Memory.load mem
                             (as_ptr (Array.unsafe_get regs rb) + nn))
                  | PFun pf, ISlot ri ->
                      fun regs ->
                        let p = pf regs in
                        let x = geti regs ri in
                        as_ptr (Memory.load mem (p + Int64.to_int x))
                  | PFun pf, IConst ki ->
                      let nn = Int64.to_int ki in
                      fun regs ->
                        let p = pf regs in
                        as_ptr (Memory.load mem (p + nn))
                  | pb, pi ->
                      let fp = pfn pb and fx = ifn pi in
                      fun regs ->
                        let p = fp regs in
                        let x = fx regs in
                        as_ptr (Memory.load mem (p + Int64.to_int x)))
            | _ -> None)
        | None -> (
            match pop a with
            | Some pa ->
                let fp = pfn pa in
                Some (fun regs -> as_ptr (Memory.load mem (fp regs)))
            | None -> None))
    | _ -> None
  and bnode (j : int) : (Ir.Eval.value array -> bool) option =
    let i = bi.instrs.(j) in
    match i.Ir.Instr.kind with
    | Ir.Instr.Icmp (p, a, b) -> (
        match (iop a, iop b) with
        | Some aa, Some bb ->
            let ct = icmp_bool p in
            Some
              (match (aa, bb) with
              | ISlot ra, ISlot rb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = geti regs rb in
                    ct x y
              | ISlot ra, IConst kb ->
                  fun regs ->
                    let x = geti regs ra in
                    ct x kb
              | IConst ka, ISlot rb ->
                  fun regs ->
                    let y = geti regs rb in
                    ct ka y
              | IFun fa, ISlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = geti regs rb in
                    ct x y
              | ISlot ra, IFun fb ->
                  fun regs ->
                    let x = geti regs ra in
                    let y = fb regs in
                    ct x y
              | IFun fa, IConst kb ->
                  fun regs ->
                    let x = fa regs in
                    ct x kb
              | aa, bb ->
                  let fa = ifn aa and fb = ifn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    ct x y)
        | _ -> None)
    | Ir.Instr.Fcmp (p, a, b) -> (
        match (fop a, fop b) with
        | Some aa, Some bb ->
            let ct = fcmp_bool p in
            Some
              (match (aa, bb) with
              | FSlot ra, FSlot rb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = getf regs rb in
                    ct x y
              | FSlot ra, FConst kb ->
                  fun regs ->
                    let x = getf regs ra in
                    ct x kb
              | FConst ka, FSlot rb ->
                  fun regs ->
                    let y = getf regs rb in
                    ct ka y
              | FFun fa, FSlot rb ->
                  fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    ct x y
              | FSlot ra, FFun fb ->
                  fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    ct x y
              | FFun fa, FConst kb ->
                  fun regs ->
                    let x = fa regs in
                    ct x kb
              | aa, bb ->
                  let fa = ffn aa and fb = ffn bb in
                  fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    ct x y)
        | _ -> None)
    | _ -> None
  and vop (op : Ir.Instr.operand) : Ir.Eval.value array -> Ir.Eval.value =
    match op with
    | Ir.Instr.Const c ->
        let v = Ir.Eval.of_const c in
        fun _ -> v
    | Ir.Instr.Reg r ->
        if ok r then
          if def_at.(r) >= 0 && absorbed.(def_at.(r)) then vnode def_at.(r)
          else fun regs -> Array.unsafe_get regs r
        else fun regs -> regs.(r)
  and vnode (j : int) : Ir.Eval.value array -> Ir.Eval.value =
    (* boxed value of node [j]: an unboxed subtree wrapped in one
       constructor when the class is static, the generic [Ir.Eval]
       closure chain otherwise *)
    let i = bi.instrs.(j) in
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop
        ((Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv), _, _)
      -> (
        match fnode j with
        | Some ff -> fun regs -> Ir.Eval.VFloat (ff regs)
        | None -> gnode j)
    | Ir.Instr.Binop _ -> (
        match inode j with
        | Some ii -> fun regs -> Ir.Eval.VInt (ii regs)
        | None -> gnode j)
    | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ -> (
        match bnode j with
        | Some bt -> fun regs -> if bt regs then vtrue else vfalse
        | None -> gnode j)
    | Ir.Instr.Cast
        ((Ir.Instr.Trunc | Ir.Instr.Zext | Ir.Instr.Sext | Ir.Instr.Fptosi), _)
      -> (
        match inode j with
        | Some ii -> fun regs -> Ir.Eval.VInt (ii regs)
        | None -> gnode j)
    | Ir.Instr.Cast
        ((Ir.Instr.Sitofp | Ir.Instr.Fpext | Ir.Instr.Fptrunc), _) -> (
        match fnode j with
        | Some ff -> fun regs -> Ir.Eval.VFloat (ff regs)
        | None -> gnode j)
    | Ir.Instr.Gep _ | Ir.Instr.Gaddr _ -> (
        match pnode j with
        | Some pp -> fun regs -> Ir.Eval.VPtr (pp regs)
        | None -> gnode j)
    | Ir.Instr.Load a -> (
        (* a sunk load's boxed value needs no conversion at all *)
        match gep_of a with
        | Some (base, idx) -> (
            match (pop base, iop idx) with
            | Some pb, Some pi -> (
                match (pb, pi) with
                | PSlot rb, ISlot ri ->
                    fun regs ->
                      let p = as_ptr (Array.unsafe_get regs rb) in
                      let x = geti regs ri in
                      Memory.load mem (p + Int64.to_int x)
                | PSlot rb, IConst ki ->
                    let nn = Int64.to_int ki in
                    fun regs ->
                      Memory.load mem
                        (as_ptr (Array.unsafe_get regs rb) + nn)
                | PFun pf, ISlot ri ->
                    fun regs ->
                      let p = pf regs in
                      let x = geti regs ri in
                      Memory.load mem (p + Int64.to_int x)
                | PFun pf, IConst ki ->
                    let nn = Int64.to_int ki in
                    fun regs ->
                      let p = pf regs in
                      Memory.load mem (p + nn)
                | pb, pi ->
                    let fp = pfn pb and fx = ifn pi in
                    fun regs ->
                      let p = fp regs in
                      let x = fx regs in
                      Memory.load mem (p + Int64.to_int x))
            | _ -> gnode j)
        | None -> (
            match pop a with
            | Some pa ->
                let fp = pfn pa in
                fun regs -> Memory.load mem (fp regs)
            | None -> gnode j))
    | _ -> gnode j
  and gnode (j : int) : Ir.Eval.value array -> Ir.Eval.value =
    (* generic boxed node: delegates the scalar semantics to the
       [Ir.Eval] closures, which are the reference behavior by
       definition *)
    let i = bi.instrs.(j) in
    let ty = i.Ir.Instr.ty in
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop (op, a, b) ->
        let fn = E.binop_fn ty op in
        let fa = vop a and fb = vop b in
        fun regs ->
          let va = fa regs in
          let vb = fb regs in
          fn va vb
    | Ir.Instr.Icmp (p, a, b) ->
        let fn = E.icmp_fn p in
        let fa = vop a and fb = vop b in
        fun regs ->
          let va = fa regs in
          let vb = fb regs in
          fn va vb
    | Ir.Instr.Fcmp (p, a, b) ->
        let fn = E.fcmp_fn p in
        let fa = vop a and fb = vop b in
        fun regs ->
          let va = fa regs in
          let vb = fb regs in
          fn va vb
    | Ir.Instr.Cast (c, a) ->
        let fn = E.cast_fn c ~from_:(from_ty_of a) ~to_:ty in
        let fa = vop a in
        fun regs -> fn (fa regs)
    | Ir.Instr.Select (c, a, b) ->
        (* strict, like the reference engine's [eval_select]; the
           branch values stay boxed so only the selected one is ever
           converted by the consumer *)
        let fc = vop c and fa = vop a and fb = vop b in
        fun regs ->
          let vc = fc regs in
          let va = fa regs in
          let vb = fb regs in
          if is_true vc then va else vb
    | Ir.Instr.Gep (base, idx) ->
        let fbase = vop base and fidx = vop idx in
        fun regs ->
          let vb = fbase regs in
          let vi = fidx regs in
          Ir.Eval.VPtr (as_ptr vb + Int64.to_int (as_int vi))
    | Ir.Instr.Gaddr g ->
        let cell = ref (-1) in
        fun _ ->
          let b = !cell in
          if b >= 0 then Ir.Eval.VPtr b
          else begin
            let b = Memory.global_base mem g in
            cell := b;
            Ir.Eval.VPtr b
          end
    | Ir.Instr.Load a ->
        let fa = vop a in
        fun regs -> Memory.load mem (as_ptr (fa regs))
    | _ -> assert false (* [sinkable] excludes every other kind *)
  in
  (* One anchor instruction with at least one absorbed operand, as a
     single fused closure.  Returns the closure and its counter name.
     Typed arms keep the whole chain unboxed up to the final register
     write; [boxed_anchor] covers the rest. *)
  let boxed_anchor (i : Ir.Instr.t) : (Ir.Eval.value array -> unit) * string =
    let d = i.Ir.Instr.id in
    let ty = i.Ir.Instr.ty in
    let emit2 fn fa fb name =
      ( (if ok d then fun regs ->
           let va = fa regs in
           let vb = fb regs in
           Array.unsafe_set regs d (fn va vb)
         else fun regs ->
           let va = fa regs in
           let vb = fb regs in
           regs.(d) <- fn va vb),
        name )
    in
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop (op, a, b) ->
        emit2 (E.binop_fn ty op) (vop a) (vop b) ("tree:" ^ binop_name op)
    | Ir.Instr.Icmp (p, a, b) ->
        emit2 (E.icmp_fn p) (vop a) (vop b) "tree:icmp"
    | Ir.Instr.Fcmp (p, a, b) ->
        emit2 (E.fcmp_fn p) (vop a) (vop b) "tree:fcmp"
    | Ir.Instr.Cast (c, a) ->
        let fn = E.cast_fn c ~from_:(from_ty_of a) ~to_:ty in
        let fa = vop a in
        ( (if ok d then fun regs -> Array.unsafe_set regs d (fn (fa regs))
           else fun regs -> regs.(d) <- fn (fa regs)),
          "tree:cast" )
    | Ir.Instr.Select (c, a, b) ->
        let fc = vop c and fa = vop a and fb = vop b in
        ( (if ok d then fun regs ->
             let vc = fc regs in
             let va = fa regs in
             let vb = fb regs in
             Array.unsafe_set regs d (if is_true vc then va else vb)
           else fun regs ->
             let vc = fc regs in
             let va = fa regs in
             let vb = fb regs in
             regs.(d) <- (if is_true vc then va else vb)),
          "tree:select" )
    | Ir.Instr.Load a ->
        let fa = vop a in
        ( (if ok d then fun regs ->
             Array.unsafe_set regs d (Memory.load mem (as_ptr (fa regs)))
           else fun regs ->
             regs.(d) <- Memory.load mem (as_ptr (fa regs))),
          "tree:load" )
    | Ir.Instr.Store (x, a) ->
        let fx = vop x and fa = vop a in
        (* value before address — the order the unfused closure's
           right-to-left argument evaluation gives *)
        ( (fun regs ->
            let vx = fx regs in
            let va = fa regs in
            Memory.store mem (as_ptr va) vx),
          "tree:store" )
    | Ir.Instr.Gep (base, idx) ->
        emit2
          (fun vb vi ->
            Ir.Eval.VPtr (as_ptr vb + Int64.to_int (as_int vi)))
          (vop base) (vop idx) "tree:gep"
    | _ ->
        (* unreachable: [has_absorbed] is false for every other kind *)
        (compile_instr i, "tree:other")
  in
  let compile_anchor (j : int) : (Ir.Eval.value array -> unit) * string =
    let i = bi.instrs.(j) in
    let d = i.Ir.Instr.id in
    match i.Ir.Instr.kind with
    | Ir.Instr.Binop
        ( ((Ir.Instr.Fadd | Ir.Instr.Fsub | Ir.Instr.Fmul | Ir.Instr.Fdiv) as
           op),
          a,
          b )
      when ok d -> (
        let name = "tree:" ^ binop_name op in
        (* the top node inlines into the register write for the common
           shapes — an anchor always has at least one [FFun] side — and
           falls back to the value-form tree otherwise *)
        let direct =
          if i.Ir.Instr.ty = Ir.Ty.F32 then None
          else
            match (op, fop a, fop b) with
            | Ir.Instr.Fadd, Some (FFun fa), Some (FSlot rb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    setf regs d (x +. y))
            | Ir.Instr.Fadd, Some (FSlot ra), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    setf regs d (x +. y))
            | Ir.Instr.Fadd, Some (FFun fa), Some (FConst kb) ->
                Some (fun regs -> setf regs d (fa regs +. kb))
            | Ir.Instr.Fadd, Some (FConst ka), Some (FFun fb) ->
                Some (fun regs -> setf regs d (ka +. fb regs))
            | Ir.Instr.Fadd, Some (FFun fa), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    setf regs d (x +. y))
            | Ir.Instr.Fsub, Some (FFun fa), Some (FSlot rb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    setf regs d (x -. y))
            | Ir.Instr.Fsub, Some (FSlot ra), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    setf regs d (x -. y))
            | Ir.Instr.Fsub, Some (FFun fa), Some (FConst kb) ->
                Some (fun regs -> setf regs d (fa regs -. kb))
            | Ir.Instr.Fsub, Some (FConst ka), Some (FFun fb) ->
                Some (fun regs -> setf regs d (ka -. fb regs))
            | Ir.Instr.Fsub, Some (FFun fa), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    setf regs d (x -. y))
            | Ir.Instr.Fmul, Some (FFun fa), Some (FSlot rb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    setf regs d (x *. y))
            | Ir.Instr.Fmul, Some (FSlot ra), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    setf regs d (x *. y))
            | Ir.Instr.Fmul, Some (FFun fa), Some (FConst kb) ->
                Some (fun regs -> setf regs d (fa regs *. kb))
            | Ir.Instr.Fmul, Some (FConst ka), Some (FFun fb) ->
                Some (fun regs -> setf regs d (ka *. fb regs))
            | Ir.Instr.Fmul, Some (FFun fa), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    setf regs d (x *. y))
            | Ir.Instr.Fdiv, Some (FFun fa), Some (FSlot rb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = getf regs rb in
                    setf regs d (x /. y))
            | Ir.Instr.Fdiv, Some (FSlot ra), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = getf regs ra in
                    let y = fb regs in
                    setf regs d (x /. y))
            | Ir.Instr.Fdiv, Some (FFun fa), Some (FConst kb) ->
                Some (fun regs -> setf regs d (fa regs /. kb))
            | Ir.Instr.Fdiv, Some (FConst ka), Some (FFun fb) ->
                Some (fun regs -> setf regs d (ka /. fb regs))
            | Ir.Instr.Fdiv, Some (FFun fa), Some (FFun fb) ->
                Some
                  (fun regs ->
                    let x = fa regs in
                    let y = fb regs in
                    setf regs d (x /. y))
            | _ -> None
        in
        match direct with
        | Some cl -> (cl, name)
        | None -> (
            match fnode j with
            | Some ff -> ((fun regs -> setf regs d (ff regs)), name)
            | None -> boxed_anchor i))
    | Ir.Instr.Binop (op, a, b) when ok d -> (
        let name = "tree:" ^ binop_name op in
        let ty = i.Ir.Instr.ty in
        let sh = E.norm_shift ty in
        let sm = E.shift_amount ty (-1L) in
        let um = E.umask ty (-1L) in
        let direct =
          match (op, iop a, iop b) with
          | Ir.Instr.Add, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d (renorm sh (Int64.add x y)))
          | Ir.Instr.Add, Some (ISlot ra), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = geti regs ra in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.add x y)))
          | Ir.Instr.Add, Some (IFun fa), Some (IConst kb) ->
              Some
                (fun regs -> seti regs d (renorm sh (Int64.add (fa regs) kb)))
          | Ir.Instr.Add, Some (IConst ka), Some (IFun fb) ->
              Some
                (fun regs -> seti regs d (renorm sh (Int64.add ka (fb regs))))
          | Ir.Instr.Add, Some (IFun fa), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.add x y)))
          | Ir.Instr.Sub, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d (renorm sh (Int64.sub x y)))
          | Ir.Instr.Sub, Some (ISlot ra), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = geti regs ra in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.sub x y)))
          | Ir.Instr.Sub, Some (IFun fa), Some (IConst kb) ->
              Some
                (fun regs -> seti regs d (renorm sh (Int64.sub (fa regs) kb)))
          | Ir.Instr.Sub, Some (IConst ka), Some (IFun fb) ->
              Some
                (fun regs -> seti regs d (renorm sh (Int64.sub ka (fb regs))))
          | Ir.Instr.Sub, Some (IFun fa), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.sub x y)))
          | Ir.Instr.Mul, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d (renorm sh (Int64.mul x y)))
          | Ir.Instr.Mul, Some (ISlot ra), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = geti regs ra in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.mul x y)))
          | Ir.Instr.Mul, Some (IFun fa), Some (IConst kb) ->
              Some
                (fun regs -> seti regs d (renorm sh (Int64.mul (fa regs) kb)))
          | Ir.Instr.Mul, Some (IConst ka), Some (IFun fb) ->
              Some
                (fun regs -> seti regs d (renorm sh (Int64.mul ka (fb regs))))
          | Ir.Instr.Mul, Some (IFun fa), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.mul x y)))
          | Ir.Instr.And, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d (renorm sh (Int64.logand x y)))
          | Ir.Instr.And, Some (ISlot ra), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = geti regs ra in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.logand x y)))
          | Ir.Instr.And, Some (IFun fa), Some (IConst kb) ->
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.logand (fa regs) kb)))
          | Ir.Instr.And, Some (IConst ka), Some (IFun fb) ->
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.logand ka (fb regs))))
          | Ir.Instr.And, Some (IFun fa), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.logand x y)))
          | Ir.Instr.Or, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d (renorm sh (Int64.logor x y)))
          | Ir.Instr.Or, Some (ISlot ra), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = geti regs ra in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.logor x y)))
          | Ir.Instr.Or, Some (IFun fa), Some (IConst kb) ->
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.logor (fa regs) kb)))
          | Ir.Instr.Or, Some (IConst ka), Some (IFun fb) ->
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.logor ka (fb regs))))
          | Ir.Instr.Or, Some (IFun fa), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.logor x y)))
          | Ir.Instr.Xor, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d (renorm sh (Int64.logxor x y)))
          | Ir.Instr.Xor, Some (ISlot ra), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = geti regs ra in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.logxor x y)))
          | Ir.Instr.Xor, Some (IFun fa), Some (IConst kb) ->
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.logxor (fa regs) kb)))
          | Ir.Instr.Xor, Some (IConst ka), Some (IFun fb) ->
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.logxor ka (fb regs))))
          | Ir.Instr.Xor, Some (IFun fa), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = fb regs in
                  seti regs d (renorm sh (Int64.logxor x y)))
          | Ir.Instr.Shl, Some (IFun fa), Some (IConst kb) ->
              let nn = Int64.to_int kb land sm in
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.shift_left (fa regs) nn)))
          | Ir.Instr.Shl, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d
                    (renorm sh (Int64.shift_left x (Int64.to_int y land sm))))
          | Ir.Instr.Shl, Some (IFun fa), Some (IFun fb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = fb regs in
                  seti regs d
                    (renorm sh (Int64.shift_left x (Int64.to_int y land sm))))
          | Ir.Instr.Lshr, Some (IFun fa), Some (IConst kb) ->
              let nn = Int64.to_int kb land sm in
              Some
                (fun regs ->
                  seti regs d
                    (renorm sh
                       (Int64.shift_right_logical
                          (Int64.logand (fa regs) um)
                          nn)))
          | Ir.Instr.Lshr, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d
                    (renorm sh
                       (Int64.shift_right_logical (Int64.logand x um)
                          (Int64.to_int y land sm))))
          | Ir.Instr.Ashr, Some (IFun fa), Some (IConst kb) ->
              let nn = Int64.to_int kb land sm in
              Some
                (fun regs ->
                  seti regs d (renorm sh (Int64.shift_right (fa regs) nn)))
          | Ir.Instr.Ashr, Some (IFun fa), Some (ISlot rb) ->
              Some
                (fun regs ->
                  let x = fa regs in
                  let y = geti regs rb in
                  seti regs d
                    (renorm sh (Int64.shift_right x (Int64.to_int y land sm))))
          | _ -> None
        in
        match direct with
        | Some cl -> (cl, name)
        | None -> (
            match inode j with
            | Some ii -> ((fun regs -> seti regs d (ii regs)), name)
            | None -> boxed_anchor i))
    | Ir.Instr.Icmp _ when ok d -> (
        match bnode j with
        | Some bt -> ((fun regs -> setb regs d (bt regs)), "tree:icmp")
        | None -> boxed_anchor i)
    | Ir.Instr.Fcmp _ when ok d -> (
        match bnode j with
        | Some bt -> ((fun regs -> setb regs d (bt regs)), "tree:fcmp")
        | None -> boxed_anchor i)
    | Ir.Instr.Cast (c, a) when ok d -> (
        let ty = i.Ir.Instr.ty in
        let direct =
          match c with
          | Ir.Instr.Trunc | Ir.Instr.Sext -> (
              let sh = E.norm_shift ty in
              match iop a with
              | Some (IFun fa) ->
                  Some (fun regs -> seti regs d (renorm sh (fa regs)))
              | _ -> None)
          | Ir.Instr.Zext -> (
              let sh = E.norm_shift ty in
              let um = E.umask (from_ty_of a) (-1L) in
              match iop a with
              | Some (IFun fa) ->
                  Some
                    (fun regs ->
                      seti regs d (renorm sh (Int64.logand (fa regs) um)))
              | _ -> None)
          | Ir.Instr.Fptosi -> (
              let sh = E.norm_shift ty in
              match fop a with
              | Some (FFun fa) ->
                  Some
                    (fun regs ->
                      let f = fa regs in
                      seti regs d
                        (if Float.is_nan f then 0L
                         else renorm sh (Int64.of_float f)))
              | _ -> None)
          | Ir.Instr.Sitofp when ty <> Ir.Ty.F32 -> (
              match iop a with
              | Some (IFun fa) ->
                  Some (fun regs -> setf regs d (Int64.to_float (fa regs)))
              | _ -> None)
          | _ -> None
        in
        match direct with
        | Some cl -> (cl, "tree:cast")
        | None -> (
            match inode j with
            | Some ii -> ((fun regs -> seti regs d (ii regs)), "tree:cast")
            | None -> (
                match fnode j with
                | Some ff -> ((fun regs -> setf regs d (ff regs)), "tree:cast")
                | None -> boxed_anchor i)))
    | Ir.Instr.Load a when ok d -> (
        (* the hottest anchor shape is a load through an absorbed [Gep];
           inline the address combination into the load closure itself
           so the whole array read is a single call *)
        let gep_load =
          match a with
          | Ir.Instr.Reg r when ok r && def_at.(r) >= 0 && absorbed.(def_at.(r))
            -> (
              match bi.instrs.(def_at.(r)).Ir.Instr.kind with
              | Ir.Instr.Gep (base, idx) -> (
                  match (pop base, iop idx) with
                  | Some pb, Some pi ->
                      Some
                        (match (pb, pi) with
                        | PSlot rb, ISlot ri ->
                            fun regs ->
                              let p = as_ptr (Array.unsafe_get regs rb) in
                              let x = geti regs ri in
                              Array.unsafe_set regs d
                                (Memory.load mem (p + Int64.to_int x))
                        | PSlot rb, IConst ki ->
                            let n = Int64.to_int ki in
                            fun regs ->
                              Array.unsafe_set regs d
                                (Memory.load mem
                                   (as_ptr (Array.unsafe_get regs rb) + n))
                        | PFun pf, ISlot ri ->
                            fun regs ->
                              let p = pf regs in
                              let x = geti regs ri in
                              Array.unsafe_set regs d
                                (Memory.load mem (p + Int64.to_int x))
                        | PFun pf, IConst ki ->
                            let n = Int64.to_int ki in
                            fun regs ->
                              let p = pf regs in
                              Array.unsafe_set regs d (Memory.load mem (p + n))
                        | PFun pf, IFun fi' ->
                            fun regs ->
                              let p = pf regs in
                              let x = fi' regs in
                              Array.unsafe_set regs d
                                (Memory.load mem (p + Int64.to_int x))
                        | pb, pi ->
                            let fp = pfn pb and fx = ifn pi in
                            fun regs ->
                              let p = fp regs in
                              let x = fx regs in
                              Array.unsafe_set regs d
                                (Memory.load mem (p + Int64.to_int x)))
                  | _ -> None)
              | _ -> None)
          | _ -> None
        in
        match gep_load with
        | Some cl -> (cl, "tree:load")
        | None -> (
            match pop a with
            | Some pa ->
                let fp = pfn pa in
                ( (fun regs ->
                    Array.unsafe_set regs d (Memory.load mem (fp regs))),
                  "tree:load" )
            | None -> boxed_anchor i))
    | Ir.Instr.Store (x, a) -> (
        (* value before address — the order the unfused closure's
           right-to-left argument evaluation gives.  An absorbed [Gep]
           address inlines into the store closure like the load case. *)
        let gep_store =
          match gep_of a with
          | Some (base, idx) -> (
              match (pop base, iop idx) with
              | Some pb, Some pi ->
                  let fx = vop x in
                  Some
                    (match (pb, pi) with
                    | PSlot rb, ISlot ri ->
                        fun regs ->
                          let vx = fx regs in
                          let p = as_ptr (Array.unsafe_get regs rb) in
                          let xi = geti regs ri in
                          Memory.store mem (p + Int64.to_int xi) vx
                    | PSlot rb, IConst ki ->
                        let nn = Int64.to_int ki in
                        fun regs ->
                          let vx = fx regs in
                          Memory.store mem
                            (as_ptr (Array.unsafe_get regs rb) + nn)
                            vx
                    | PFun pf, ISlot ri ->
                        fun regs ->
                          let vx = fx regs in
                          let p = pf regs in
                          let xi = geti regs ri in
                          Memory.store mem (p + Int64.to_int xi) vx
                    | PFun pf, IConst ki ->
                        let nn = Int64.to_int ki in
                        fun regs ->
                          let vx = fx regs in
                          let p = pf regs in
                          Memory.store mem (p + nn) vx
                    | pb, pi ->
                        let fp = pfn pb and fi2 = ifn pi in
                        fun regs ->
                          let vx = fx regs in
                          let p = fp regs in
                          let xi = fi2 regs in
                          Memory.store mem (p + Int64.to_int xi) vx)
              | _ -> None)
          | None -> None
        in
        match gep_store with
        | Some cl -> (cl, "tree:store")
        | None -> (
            match pop a with
            | Some pa ->
                let fx = vop x in
                let fp = pfn pa in
                ( (fun regs ->
                    let vx = fx regs in
                    let p = fp regs in
                    Memory.store mem p vx),
                  "tree:store" )
            | None -> boxed_anchor i))
    | Ir.Instr.Gep (base, idx) when ok d -> (
        match (pop base, iop idx) with
        | Some pb, Some pi ->
            ( (match (pb, pi) with
              | PSlot rb, ISlot ri ->
                  fun regs ->
                    let p = as_ptr (Array.unsafe_get regs rb) in
                    let x = geti regs ri in
                    Array.unsafe_set regs d (Ir.Eval.VPtr (p + Int64.to_int x))
              | PSlot rb, IConst ki ->
                  let nn = Int64.to_int ki in
                  fun regs ->
                    Array.unsafe_set regs d
                      (Ir.Eval.VPtr (as_ptr (Array.unsafe_get regs rb) + nn))
              | PFun pf, ISlot ri ->
                  fun regs ->
                    let p = pf regs in
                    let x = geti regs ri in
                    Array.unsafe_set regs d (Ir.Eval.VPtr (p + Int64.to_int x))
              | PFun pf, IConst ki ->
                  let nn = Int64.to_int ki in
                  fun regs ->
                    let p = pf regs in
                    Array.unsafe_set regs d (Ir.Eval.VPtr (p + nn))
              | pb, pi ->
                  let fp = pfn pb and fx = ifn pi in
                  fun regs ->
                    let p = fp regs in
                    let x = fx regs in
                    Array.unsafe_set regs d (Ir.Eval.VPtr (p + Int64.to_int x))),
              "tree:gep" )
        | _ -> boxed_anchor i)
    | _ -> boxed_anchor i
  in
  let fused_term =
    match fused_scrutinee with
    | None -> None
    | Some (ci, a, b) ->
        let test =
          match bool_cmp ~nregs ci with
          | Some t when not (has_absorbed ci) ->
              bump_fusion
                (match ci.Ir.Instr.kind with
                | Ir.Instr.Icmp _ -> "icmp+br"
                | _ -> "fcmp+br");
              t
          | _ -> (
              (* a scrutinee with absorbed producers (or a shape the
                 flat compare does not cover): test its value tree
                 exactly like [T_cond_s] would *)
              bump_fusion "br:tree";
              match bnode (n - 1) with
              | Some bt -> bt
              | None ->
                  let tv = vnode (n - 1) in
                  fun regs -> is_true (tv regs))
        in
        Some (T_cmp_br (test, a, b))
  in
  let t_ops =
    if not st.tuning.fuse then
      Array.init (body_end - nphi) (fun j -> compile_instr bi.instrs.(nphi + j))
    else begin
      let acc = ref [] in
      for j = body_end - 1 downto nphi do
        if not absorbed.(j) then
          if has_absorbed bi.instrs.(j) then begin
            let cl, name = compile_anchor j in
            bump_fusion name;
            acc := cl :: !acc
          end
          else acc := compile_instr bi.instrs.(j) :: !acc
      done;
      Array.of_list !acc
    end
  in
  let t_term =
    match fused_term with
    | Some t -> t
    | None -> (
        match bi.term with
        | Ir.Instr.Ret None -> T_halt
        | Ir.Instr.Ret (Some op) -> T_ret (decode_operand op)
        | Ir.Instr.Br l -> T_br l
        | Ir.Instr.Cond_br (c, a, b) -> (
            match decode_operand c with
            | Slot r -> T_cond_s (r, a, b)
            | s -> T_cond (s, a, b))
        | Ir.Instr.Switch (s, default, _) ->
            let tbl =
              match bi.switch_cases with Some tbl -> tbl | None -> assert false
            in
            T_switch (decode_operand s, default, tbl))
  in
  (* A block needs fuel/clock synchronization only when its body can
     reach the shared [state]: a call that resolves to a user function
     (the callee runs on [st]) or a configured custom instruction
     (charges [st] clocks).  Intrinsic calls and the fault closures for
     unresolved names touch only the register file. *)
  let t_sync =
    Array.exists
      (fun (i : Ir.Instr.t) ->
        match i.Ir.Instr.kind with
        | Ir.Instr.Call (name, _) -> Hashtbl.mem st.funcs name
        | Ir.Instr.Ci_call (ci, _) -> Hashtbl.mem st.cis ci
        | _ -> false)
      bi.instrs
  in
  {
    t_info = bi;
    t_label = bnum;
    t_ops;
    t_phi_dests = bi.phi_dests;
    t_phi_srcs;
    t_phi_scratch = Array.make (max 1 nphi) (Ir.Eval.VInt 0L);
    t_term;
    t_link = L_none;
    t_sync;
    (* Fuel, native and VM charges come from the ORIGINAL instruction
       counts ([bi.ninstrs], [bi.static_cycles]), never from the fused
       closure count: the simulated machine dispatches one IR
       instruction at a time whatever the host engine batches. *)
    t_fuel = bi.ninstrs + 1;
    t_native = float_of_int bi.static_cycles;
    (* The exact float expressions [Jit_model.block_execution_cycles]
       evaluates on each branch, performed once. *)
    t_hot = st.jit.Jit_model.hot_factor *. float_of_int bi.static_cycles;
    t_cold =
      float_of_int
        (bi.static_cycles + Ir.Cost.block_dispatch_cycles ~ninstrs:bi.ninstrs);
  }

(** Compile one function's blocks to typed-register-file threaded
    code, recording the register classes and the per-class slot
    renumbering.  A register's slot is its index within its class's
    frame array, so a frame allocates one word per register total
    instead of one per register per class.  Like {!compile_func}, the
    whole module must already be prepared in [st.funcs]. *)
and compile_rfunc (st : state) (fi : func_info) : unit =
  fi.rtblocks <-
    Array.mapi
      (fun bnum bi -> compile_rblock st fi fi.rclasses fi.rslots bnum bi)
      fi.blocks

and compile_rblock (st : state) (fi : func_info) (classes : rclass array)
    (slots : int array) (bnum : int) (bi : block_info) : rtblock =
  let fname = fi.func.Ir.Func.name in
  let nphi = bi.phi_count in
  let mem = st.memory in
  let nregs = Array.length classes in
  let ok r = r >= 0 && r < nregs in
  let compile_rinstr (i : Ir.Instr.t) : frame -> unit =
    let d = i.Ir.Instr.id in
    let ty = i.Ir.Instr.ty in
    match i.Ir.Instr.kind with
    | Ir.Instr.Phi _ -> fun _ -> fault "@%s/bb%d: phi after non-phi" fname bnum
    | Ir.Instr.Binop (op, a, b) ->
        compile_rbinop classes slots ty op d (decode_operand a)
          (decode_operand b)
    | Ir.Instr.Icmp (p, a, b) ->
        compile_ricmp classes slots p d (decode_operand a) (decode_operand b)
    | Ir.Instr.Fcmp (p, a, b) ->
        compile_rfcmp classes slots p d (decode_operand a) (decode_operand b)
    | Ir.Instr.Cast (c, a) ->
        let from_ =
          match a with
          | Ir.Instr.Const cst -> Ir.Instr.const_ty cst
          | Ir.Instr.Reg r -> fi.reg_tys.(r)
        in
        compile_rcast classes slots c ~from_ ~to_:ty d (decode_operand a)
    | Ir.Instr.Select (c, a, b) -> (
        let sc = decode_operand c
        and sa = decode_operand a
        and sb = decode_operand b in
        let tc = rtest classes slots sc in
        (* Both branch values are read strictly, like the reference
           engine's [eval_select] call; on direct (pure-read) shapes the
           strictness is unobservable, so only the taken side is read.
           A boxed destination falls back to moving boxed values. *)
        match (if ok d then classes.(d) else C_boxed) with
        | C_int when ok d -> (
            let sd = slots.(d) in
            match (rarg_i classes slots sa, rarg_i classes slots sb) with
            | RiS a, RiS b ->
                fun fr ->
                  iset fr.fr_i sd
                    (if tc fr then iget fr.fr_i a
                     else iget fr.fr_i b)
            | RiS a, RiK kb ->
                fun fr ->
                  iset fr.fr_i sd
                    (if tc fr then iget fr.fr_i a else kb)
            | RiK ka, RiS b ->
                fun fr ->
                  iset fr.fr_i sd
                    (if tc fr then ka else iget fr.fr_i b)
            | RiK ka, RiK kb ->
                fun fr ->
                  iset fr.fr_i sd (if tc fr then ka else kb)
            | aa, bb ->
                let ga = ri_fn aa and gb = ri_fn bb in
                fun fr ->
                  let vc = tc fr and va = ga fr and vb = gb fr in
                  iset fr.fr_i sd (if vc then va else vb))
        | C_float when ok d -> (
            let sd = slots.(d) in
            match (rarg_f classes slots sa, rarg_f classes slots sb) with
            | RfS a, RfS b ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd
                    (if tc fr then Array.unsafe_get fr.fr_f a
                     else Array.unsafe_get fr.fr_f b)
            | RfS a, RfK kb ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd
                    (if tc fr then Array.unsafe_get fr.fr_f a else kb)
            | RfK ka, RfS b ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd
                    (if tc fr then ka else Array.unsafe_get fr.fr_f b)
            | RfK ka, RfK kb ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd (if tc fr then ka else kb)
            | aa, bb ->
                let ga = rf_fn aa and gb = rf_fn bb in
                fun fr ->
                  let vc = tc fr and va = ga fr and vb = gb fr in
                  Array.unsafe_set fr.fr_f sd (if vc then va else vb))
        | C_ptr when ok d ->
            let sd = slots.(d) in
            let ga = rget_p classes slots sa and gb = rget_p classes slots sb in
            fun fr ->
              let vc = tc fr and va = ga fr and vb = gb fr in
              Array.unsafe_set fr.fr_p sd (if vc then va else vb)
        | _ ->
            let ga = rget_box classes slots sa
            and gb = rget_box classes slots sb in
            let w = rwr_box classes slots d in
            fun fr ->
              let vc = tc fr and va = ga fr and vb = gb fr in
              w fr (if vc then va else vb))
    | Ir.Instr.Alloca (_, count) ->
        if ok d && classes.(d) = C_ptr then (
          let sd = slots.(d) in
          fun fr -> Array.unsafe_set fr.fr_p sd (Memory.alloc mem count))
        else
          let w = rwr_box classes slots d in
          fun fr -> w fr (Ir.Eval.VPtr (Memory.alloc mem count))
    | Ir.Instr.Load a -> (
        let aa = rarg_p classes slots (decode_operand a) in
        (* The load's unbox IS the memory seam: the cell keeps its
           boxed value, the destination takes the scalar, so a load
           into a typed slot does not allocate. *)
        match (if ok d then classes.(d) else C_boxed) with
        | C_int when ok d -> (
            let sd = slots.(d) in
            match aa with
            | RpS p ->
                fun fr ->
                  iset fr.fr_i sd
                    (as_int (Memory.load mem (Array.unsafe_get fr.fr_p p)))
            | _ ->
                let ga = rp_fn aa in
                fun fr ->
                  iset fr.fr_i sd
                    (as_int (Memory.load mem (ga fr))))
        | C_float when ok d -> (
            let sd = slots.(d) in
            match aa with
            | RpS p ->
                fun fr ->
                  Array.unsafe_set fr.fr_f sd
                    (as_float (Memory.load mem (Array.unsafe_get fr.fr_p p)))
            | _ ->
                let ga = rp_fn aa in
                fun fr ->
                  Array.unsafe_set fr.fr_f sd
                    (as_float (Memory.load mem (ga fr))))
        | C_ptr when ok d -> (
            let sd = slots.(d) in
            match aa with
            | RpS p ->
                fun fr ->
                  Array.unsafe_set fr.fr_p sd
                    (as_ptr (Memory.load mem (Array.unsafe_get fr.fr_p p)))
            | _ ->
                let ga = rp_fn aa in
                fun fr ->
                  Array.unsafe_set fr.fr_p sd
                    (as_ptr (Memory.load mem (ga fr))))
        | _ ->
            let ga = rp_fn aa in
            let w = rwr_box classes slots d in
            fun fr -> w fr (Memory.load mem (ga fr)))
    | Ir.Instr.Store (x, a) -> (
        let gx = rget_box classes slots (decode_operand x) in
        (* value before address, like the boxed engines (right-to-left
           application order made explicit) *)
        match rarg_p classes slots (decode_operand a) with
        | RpS p ->
            fun fr ->
              let v = gx fr in
              Memory.store mem (Array.unsafe_get fr.fr_p p) v
        | aa ->
            let ga = rp_fn aa in
            fun fr ->
              let v = gx fr in
              Memory.store mem (ga fr) v)
    | Ir.Instr.Gep (base, idx) ->
        let ab = rarg_p classes slots (decode_operand base) in
        let ai = rarg_i classes slots (decode_operand idx) in
        if ok d && classes.(d) = C_ptr then (
          let sd = slots.(d) in
          match (ab, ai) with
          | RpS pb, RiS ri ->
              fun fr ->
                Array.unsafe_set fr.fr_p sd
                  (Array.unsafe_get fr.fr_p pb
                  + Int64.to_int (iget fr.fr_i ri))
          | RpS pb, RiK k ->
              let n = Int64.to_int k in
              fun fr ->
                Array.unsafe_set fr.fr_p sd (Array.unsafe_get fr.fr_p pb + n)
          | _ ->
              let gb = rp_fn ab and gi = ri_fn ai in
              fun fr ->
                Array.unsafe_set fr.fr_p sd (gb fr + Int64.to_int (gi fr)))
        else
          let gb = rp_fn ab and gi = ri_fn ai in
          let w = rwr_box classes slots d in
          fun fr -> w fr (Ir.Eval.VPtr (gb fr + Int64.to_int (gi fr)))
    | Ir.Instr.Gaddr g ->
        (* Lazily resolved and memoized, like the boxed compiler. *)
        let cell = ref (-1) in
        if ok d && classes.(d) = C_ptr then (
          let sd = slots.(d) in
          fun fr ->
            let b = !cell in
            let b =
              if b >= 0 then b
              else begin
                let b = Memory.global_base mem g in
                cell := b;
                b
              end
            in
            Array.unsafe_set fr.fr_p sd b)
        else
          let w = rwr_box classes slots d in
          fun fr ->
            let b = !cell in
            let b =
              if b >= 0 then b
              else begin
                let b = Memory.global_base mem g in
                cell := b;
                b
              end
            in
            w fr (Ir.Eval.VPtr b)
    | Ir.Instr.Call (name, argops) -> (
        let srcs = Array.of_list (List.map decode_operand argops) in
        let eval_args = rargs_fn classes slots srcs in
        match Hashtbl.find_opt st.funcs name with
        | Some callee -> (
            (* The typed call seam: the callee's pooled frame is filled
               slot to slot from this frame and the result comes back
               through the typed return lanes — no boxing, no
               allocation once the recursion depth has been seen. *)
            let read = rret_read st classes slots d in
            match rarg_movers classes slots callee srcs with
            | Some movers ->
                let nargs = Array.length movers in
                fun fr ->
                  if st.depth >= st.max_depth then
                    depth_exceeded st callee.func.Ir.Func.name;
                  let cfr = acquire_frame callee in
                  for k = 0 to nargs - 1 do
                    (Array.unsafe_get movers k) fr cfr
                  done;
                  rcall st callee cfr;
                  read fr
            | None ->
                fun fr ->
                  renter st callee (eval_args fr);
                  read fr)
        | None -> (
            let w = rwr_box classes slots d in
            match find_intrinsic name with
            | Some impl -> fun fr -> w fr (impl (eval_args fr))
            | None -> fun _ -> fault "call to unknown function @%s" name))
    | Ir.Instr.Ci_call (ci, argops) -> (
        let srcs = Array.of_list (List.map decode_operand argops) in
        let eval_args = rargs_fn classes slots srcs in
        let w = rwr_box classes slots d in
        match Hashtbl.find_opt st.cis ci with
        | Some impl -> (
            let eval =
              if st.tuning.ci_native then
                match impl.ci_native with Some f -> f | None -> impl.ci_eval
              else impl.ci_eval
            in
            match st.swap with
            | None ->
                let cyc = float_of_int impl.ci_cycles in
                fun fr ->
                  w fr (eval (eval_args fr));
                  st.clk.(0) <- st.clk.(0) +. cyc;
                  st.clk.(1) <- st.clk.(1) +. cyc
            | Some cells ->
                let cell =
                  match Hashtbl.find_opt cells ci with
                  | Some c -> c
                  | None ->
                      let c = ref (float_of_int impl.ci_cycles) in
                      Hashtbl.replace cells ci c;
                      c
                in
                fun fr ->
                  w fr (eval (eval_args fr));
                  let cyc = !cell in
                  st.clk.(0) <- st.clk.(0) +. cyc;
                  st.clk.(1) <- st.clk.(1) +. cyc)
        | None -> fun _ -> fault "custom instruction #%d is not configured" ci)
  in
  let n = bi.ninstrs in
  (* Compare-and-branch fusion, the one superinstruction the typed
     compiler keeps (porting the boxed compiler's sink trees onto the
     typed operand shapes is open work): fusing the trailing
     single-use compare into the branch skips a flag write and a
     dispatch.
     Same conditions as the boxed [fused_scrutinee], restricted to
     compare scrutinees (anything else compiles normally and the
     terminator tests its register — observably identical). *)
  let fused_scrutinee =
    if st.tuning.fuse && n > nphi then
      match bi.term with
      | Ir.Instr.Cond_br (Ir.Instr.Reg r, a, b)
        when bi.instrs.(n - 1).Ir.Instr.id = r
             && r >= 0
             && r < Array.length fi.use_counts
             && fi.use_counts.(r) = 1
             && (match bi.instrs.(n - 1).Ir.Instr.kind with
                | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ -> true
                | _ -> false) ->
          Some (bi.instrs.(n - 1), a, b)
      | _ -> None
    else None
  in
  let body_end = match fused_scrutinee with Some _ -> n - 1 | None -> n in
  let fused_term =
    match fused_scrutinee with
    | None -> None
    | Some (ci, a, b) ->
        let test =
          match ci.Ir.Instr.kind with
          | Ir.Instr.Icmp (p, x, y) ->
              bump_fusion "icmp+br";
              rbool_icmp classes slots p (decode_operand x) (decode_operand y)
          | Ir.Instr.Fcmp (p, x, y) ->
              bump_fusion "fcmp+br";
              rbool_fcmp classes slots p (decode_operand x) (decode_operand y)
          | _ -> assert false
        in
        Some (R_cmp_br (test, a, b))
  in
  let r_ops =
    Array.init (body_end - nphi) (fun j -> compile_rinstr bi.instrs.(nphi + j))
  in
  (* Phi prologue, compiled per predecessor label.  Staging goes into
     per-class scratch (parallel-assignment semantics); a single phi
     commits directly.  Scratch reuse is safe because the prologue
     cannot re-enter this function. *)
  let r_phi_rows =
    if nphi = 0 then [||]
    else begin
      let npred = Array.length bi.phi_incoming.(0) in
      let si = Bytes.make (8 * nphi) '\000' in
      let sf = Array.make nphi 0.0 in
      let sp = Array.make nphi 0 in
      let sv = Array.make nphi (Ir.Eval.VInt 0L) in
      let lane k =
        let dk = bi.phi_dests.(k) in
        if ok dk then classes.(dk) else C_boxed
      in
      (* stage phi [k]'s incoming value from predecessor [p] into its
         lane's scratch; [direct] writes the destination register
         instead (single-phi case, no staging needed) *)
      let stage ~direct p k : frame -> unit =
        let dk = bi.phi_dests.(k) in
        match bi.phi_incoming.(k).(p) with
        | None ->
            fun _ ->
              fault "@%s/bb%d: phi has no entry for predecessor bb%d" fname
                bnum p
        | Some op -> (
            let s = decode_operand op in
            match lane k with
            | C_int -> (
                let sdk = slots.(dk) and k8 = 8 * k in
                match rarg_i classes slots s with
                | RiS a ->
                    if direct then fun fr ->
                      iset fr.fr_i sdk (iget fr.fr_i a)
                    else fun fr ->
                      iset si k8 (iget fr.fr_i a)
                | RiK kv ->
                    if direct then fun fr -> iset fr.fr_i sdk kv
                    else fun _ -> iset si k8 kv
                | aa ->
                    let g = ri_fn aa in
                    if direct then fun fr ->
                      iset fr.fr_i sdk (g fr)
                    else fun fr -> iset si k8 (g fr))
            | C_float -> (
                let sdk = slots.(dk) in
                match rarg_f classes slots s with
                | RfS a ->
                    if direct then fun fr ->
                      Array.unsafe_set fr.fr_f sdk (Array.unsafe_get fr.fr_f a)
                    else fun fr ->
                      Array.unsafe_set sf k (Array.unsafe_get fr.fr_f a)
                | RfK kv ->
                    if direct then fun fr -> Array.unsafe_set fr.fr_f sdk kv
                    else fun _ -> Array.unsafe_set sf k kv
                | aa ->
                    let g = rf_fn aa in
                    if direct then fun fr ->
                      Array.unsafe_set fr.fr_f sdk (g fr)
                    else fun fr -> Array.unsafe_set sf k (g fr))
            | C_ptr ->
                let sdk = slots.(dk) in
                let g = rget_p classes slots s in
                if direct then fun fr -> Array.unsafe_set fr.fr_p sdk (g fr)
                else fun fr -> Array.unsafe_set sp k (g fr)
            | C_boxed ->
                let sdk = if ok dk then slots.(dk) else dk in
                let g = rget_box classes slots s in
                if direct then fun fr -> fr.fr_v.(sdk) <- g fr
                else fun fr -> Array.unsafe_set sv k (g fr))
      in
      let commits =
        Array.init nphi (fun k ->
            let dk = bi.phi_dests.(k) in
            match lane k with
            | C_int ->
                let sdk = slots.(dk) in
                let k8 = 8 * k in
                fun fr -> iset fr.fr_i sdk (iget si k8)
            | C_float ->
                let sdk = slots.(dk) in
                fun fr -> Array.unsafe_set fr.fr_f sdk (Array.unsafe_get sf k)
            | C_ptr ->
                let sdk = slots.(dk) in
                fun fr -> Array.unsafe_set fr.fr_p sdk (Array.unsafe_get sp k)
            | C_boxed ->
                let sdk = if ok dk then slots.(dk) else dk in
                fun fr -> fr.fr_v.(sdk) <- Array.unsafe_get sv k)
      in
      Array.init npred (fun p ->
          if nphi = 1 then stage ~direct:true p 0
          else
            let stages = Array.init nphi (fun k -> stage ~direct:false p k) in
            fun fr ->
              for k = 0 to nphi - 1 do
                (Array.unsafe_get stages k) fr
              done;
              for k = 0 to nphi - 1 do
                (Array.unsafe_get commits k) fr
              done)
    end
  in
  let r_term =
    match fused_term with
    | Some t -> t
    | None -> (
        match bi.term with
        | Ir.Instr.Ret None -> R_halt
        | Ir.Instr.Ret (Some op) ->
            R_ret (rret_write st classes slots (decode_operand op))
        | Ir.Instr.Br l -> R_br l
        | Ir.Instr.Cond_br (c, a, b) ->
            R_cond (rtest classes slots (decode_operand c), a, b)
        | Ir.Instr.Switch (s, default, _) ->
            let tbl =
              match bi.switch_cases with Some tbl -> tbl | None -> assert false
            in
            (* the executors evaluate the scrutinee outside the body
               handlers, so [rget_i]'s raw [Type_error] propagates
               uncaught exactly like the boxed engines' [as_int] *)
            R_switch (rget_i classes slots (decode_operand s), default, tbl))
  in
  let r_sync =
    Array.exists
      (fun (i : Ir.Instr.t) ->
        match i.Ir.Instr.kind with
        | Ir.Instr.Call (name, _) -> Hashtbl.mem st.funcs name
        | Ir.Instr.Ci_call (ci, _) -> Hashtbl.mem st.cis ci
        | _ -> false)
      bi.instrs
  in
  {
    r_info = bi;
    r_label = bnum;
    r_ops;
    r_phi_rows;
    r_term;
    r_link = RL_none;
    r_sync;
    r_fuel = bi.ninstrs + 1;
    r_native = float_of_int bi.static_cycles;
    r_hot = st.jit.Jit_model.hot_factor *. float_of_int bi.static_cycles;
    r_cold =
      float_of_int
        (bi.static_cycles + Ir.Cost.block_dispatch_cycles ~ninstrs:bi.ninstrs);
  }

(* Patch every compiled terminator with direct references to the
   successor [tblock]s.  A terminator naming a label outside the
   function keeps [L_none]: the linked executor then transfers through
   the indexed path and faults exactly like the unlinked engine. *)
let link_func (fi : func_info) : unit =
  let tbs = fi.tblocks in
  let nb = Array.length tbs in
  let okl l = l >= 0 && l < nb in
  Array.iter
    (fun tb ->
      tb.t_link <-
        (match tb.t_term with
        | T_halt -> L_halt
        | T_ret s -> L_ret s
        | T_br l when okl l -> L_br tbs.(l)
        | T_cond (s, a, b) when okl a && okl b -> L_cond (s, tbs.(a), tbs.(b))
        | T_cond_s (r, a, b) when okl a && okl b ->
            L_cond_s (r, tbs.(a), tbs.(b))
        | T_cmp_br (t, a, b) when okl a && okl b ->
            L_cmp_br (t, tbs.(a), tbs.(b))
        | T_switch (s, d, tbl)
          when okl d && Hashtbl.fold (fun _ l acc -> acc && okl l) tbl true ->
            let ltbl = Hashtbl.create (max 4 (Hashtbl.length tbl)) in
            Hashtbl.iter (fun v l -> Hashtbl.replace ltbl v tbs.(l)) tbl;
            L_switch (s, tbs.(d), ltbl)
        | _ -> L_none))
    tbs

(* {!link_func} for the typed-register-file engine. *)
let link_rfunc (fi : func_info) : unit =
  let tbs = fi.rtblocks in
  let nb = Array.length tbs in
  let okl l = l >= 0 && l < nb in
  Array.iter
    (fun tb ->
      tb.r_link <-
        (match tb.r_term with
        | R_halt -> RL_halt
        | R_ret g -> RL_ret g
        | R_br l when okl l -> RL_br tbs.(l)
        | R_cond (t, a, b) when okl a && okl b -> RL_cond (t, tbs.(a), tbs.(b))
        | R_cmp_br (t, a, b) when okl a && okl b ->
            RL_cmp_br (t, tbs.(a), tbs.(b))
        | R_switch (g, d, tbl)
          when okl d && Hashtbl.fold (fun _ l acc -> acc && okl l) tbl true ->
            let ltbl = Hashtbl.create (max 4 (Hashtbl.length tbl)) in
            Hashtbl.iter (fun v l -> Hashtbl.replace ltbl v tbs.(l)) tbl;
            RL_switch (g, tbs.(d), ltbl)
        | _ -> RL_none))
    tbs

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Deep enough for every registry and phased workload by a wide margin
   (their deepest recursion is measured in DESIGN.md §14), shallow
   enough that no engine comes near the host stack limit, and that the
   stack a minor collection scans stays small. *)
let default_max_depth = 100_000

(** Run [entry] with scalar [args].

    @param fuel maximum dynamic instructions (default 4e9)
    @param jit VM cost model (default {!Jit_model.default})
    @param cis configured custom instructions (default none)
    @param engine execution engine (default {!Threaded}); outcomes are
      identical across engines
    @param tuning threaded-engine optimization knobs (default
      {!default_tuning}: everything on); outcomes are identical across
      all combinations
    @param monitor online controller hook: receives the {!control}
      handle before any block executes, returns a per-dynamic-block
      callback.  Absent means the exact unmonitored code path —
      byte-identical clocks.
    @param max_depth limit on live guest activations, the entry call
      included (default {!default_max_depth})
    @raise Fault on any runtime error. *)
let run ?(fuel = 4_000_000_000L) ?(jit = Jit_model.default)
    ?(cis = empty_cis ()) ?(engine = default_engine)
    ?(tuning = default_tuning) ?(max_depth = default_max_depth) ?monitor
    (m : Ir.Irmod.t) ~entry ~(args : Ir.Eval.value list) : outcome =
  let memory = Memory.create () in
  Memory.load_globals memory m;
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun (f : Ir.Func.t) ->
      Hashtbl.replace funcs f.Ir.Func.name (prepare_func m f))
    m.Ir.Irmod.funcs;
  let swap =
    match monitor with None -> None | Some _ -> Some (Hashtbl.create 16)
  in
  if tuning.max_linked_blocks < 1 then
    invalid_arg
      (Printf.sprintf "Machine.run: max_linked_blocks must be >= 1 (got %d)"
         tuning.max_linked_blocks);
  if max_depth < 1 then
    invalid_arg
      (Printf.sprintf "Machine.run: max_depth must be >= 1 (got %d)" max_depth);
  let st =
    {
      funcs;
      memory;
      jit;
      cis;
      swap;
      tuning;
      max_depth;
      depth = 0;
      mon = None;
      clk = [| 0.0; 0.0 |];
      fuel;
      spent = 0;
      limit = int_of_int64_clamped fuel;
      hops = tuning.max_linked_blocks;
      ret = new_frame [| 1; 1; 1; 1 |];
      ret_lane = None;
    }
  in
  (match (monitor, swap) with
  | None, _ | _, None -> ()
  | Some mk, Some cells ->
      (* Every configured CI gets a swap cell up front so the monitor
         can rebind charges before the CI first executes. *)
      Hashtbl.iter
        (fun ci impl ->
          Hashtbl.replace cells ci (ref (float_of_int impl.ci_cycles)))
        cis;
      let control =
        {
          ctl_native = (fun () -> st.clk.(0));
          ctl_vm = (fun () -> st.clk.(1));
          ctl_stall =
            (fun c ->
              st.clk.(0) <- st.clk.(0) +. c;
              st.clk.(1) <- st.clk.(1) +. c);
          ctl_bind =
            (fun ci c ->
              match Hashtbl.find_opt cells ci with
              | Some cell -> cell := c
              | None -> Hashtbl.replace cells ci (ref c));
          ctl_charge =
            (fun ci -> Option.map ( ! ) (Hashtbl.find_opt cells ci));
        }
      in
      st.mon <- Some (mk control));
  (* Whole-module dynamic translation at load time. *)
  st.clk.(1) <-
    st.clk.(1)
    +. Jit_model.module_translation_cycles jit
         ~module_instrs:(Ir.Irmod.num_instrs m);
  let fi =
    match Hashtbl.find_opt funcs entry with
    | Some fi -> fi
    | None -> fault "entry function @%s not found" entry
  in
  let ret =
    match engine with
    | Reference -> exec_func st fi (Array.of_list args)
    | Threaded ->
        if tuning.regalloc then begin
          Hashtbl.iter (fun _ fi -> assign_rslots fi) funcs;
          Hashtbl.iter (fun _ fi -> compile_rfunc st fi) funcs;
          if tuning.link then Hashtbl.iter (fun _ fi -> link_rfunc fi) funcs;
          renter st fi (Array.of_list args);
          ret_value st
        end
        else begin
          Hashtbl.iter (fun _ fi -> fi.tblocks <- compile_func st fi) funcs;
          if tuning.link then Hashtbl.iter (fun _ fi -> link_func fi) funcs;
          enter st fi (Array.of_list args)
        end
  in
  (* Fold the run-local counters into a profile. *)
  let profile = Profile.create () in
  Hashtbl.iter
    (fun name (fi : func_info) ->
      Array.iteri
        (fun label bi ->
          if bi.exec_count > 0 then
            Profile.record profile ~func:name ~label
              ~count:(Int64.of_int bi.exec_count) ~instrs:bi.ninstrs)
        fi.blocks)
    funcs;
  { ret; native_cycles = st.clk.(0); vm_cycles = st.clk.(1); profile; memory }
