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
    - {!Threaded} (the default) compiles each basic block once, at run
      start, into an array of pre-decoded operation closures over a
      typed register file: registers are partitioned by declared type
      into unboxed int/float/address slot lanes, operands are resolved
      to slot offsets or immediate scalars, callees / custom
      instructions / intrinsics are bound ahead of time, and
      terminators (including [Switch] case tables) are pre-resolved to
      block indices.  The hot loop is then an array walk of closure
      calls with no AST dispatch and no boxing.

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
      (** superinstructions: compare-and-branch, global addresses
          folded to constants, address arithmetic folded into the
          loads and stores that use it, and phi rows compiled to
          slot-move tables — each an allocation-free closure
          (DESIGN.md §13) *)
  ci_native : bool;
      (** dispatch a loaded CI's pre-compiled fused closure
          ({!ci_impl.ci_native}) instead of interpreting its MISO
          subgraph op by op *)
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
    max_linked_blocks = 64;
  }

(** The typed engine with every optimization layer off. *)
let untuned =
  {
    link = false;
    fuse = false;
    ci_native = false;
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
   {!Ir.Eval.value} or a register index.  The block compiler resolves
   it further, per consuming class, into a slot offset or a scalar
   constant ({!ri} & co.). *)
type src = Imm of Ir.Eval.value | Slot of int

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

(* Register class of the typed register file, from the declared
   register type.  Every register of a function lives
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
  mutable rclasses : rclass array;
      (* per-register class, [||] until {!assign_rslots} runs (the
         reference engine never compiles) *)
  mutable rslots : int array;
      (* per-register index inside its class's frame array — the
         per-class renumbering; [||] until {!assign_rslots} runs *)
  mutable rcounts : int array;
      (* frame-array lengths, indexed [C_int; C_float; C_ptr; C_boxed];
         [||] until {!assign_rslots} runs *)
  mutable rtblocks : rtblock array;
      (* threaded code, [||] until {!compile_rfunc} runs *)
  mutable rframes : frame array;
      (* typed frame pool: [rframes.(k)] is the frame of this
         function's activation at recursion depth [k] (grown on demand,
         re-zeroed on reuse) *)
  mutable rdepth : int;  (* live activations of this function *)
}

(* One compiled block of the threaded engine.  Blocks are compiled per
   run, after the run's [state] exists, so op closures capture the
   state (and the memory, the CI registry, callee [func_info]s, ...)
   directly instead of receiving them as arguments.  Every op closure
   works over a {!frame}: int/float/address traffic reads and writes
   the unboxed slot arrays directly, and boxed [Ir.Eval.value]s appear
   only at the seams (CI dispatch, intrinsics, [C_boxed] registers).
   The cycle charges of {!Jit_model.block_execution_cycles} only depend
   on whether the block is past warm-up, so both branches are
   precomputed here — the identical float operations, performed
   once. *)
and rtblock = {
  r_info : block_info;  (* shared counters and static cycle data *)
  r_label : int;
  r_ops : (frame -> unit) array;
  r_phi_rows : (frame -> unit) array;
      (* the whole phi prologue, pre-compiled per predecessor label:
         [r_phi_rows.(pred)] assigns every phi its incoming value from
         [pred] — [||] when the block has no phis *)
  r_term : rterm;
  mutable r_link : rlinkterm;
      (* the linked form of [r_term]: successor labels resolved to the
         successor [rtblock]s themselves.  [RL_none] until
         {!link_rfunc} patches the function (and permanently for
         terminators whose labels fall outside the function — those
         keep faulting through the indexed path, like the unlinked
         engine). *)
  r_sync : bool;
      (* block contains a resolved user call or custom instruction: the
         executor's local fuel counter is written back to the shared
         [state] around the body *)
  r_fuel : int;
  r_native : float;
  r_hot : float;
  r_cold : float;
}

(* A pre-decoded terminator: targets are block indices, switch tables
   are shared with [block_info.switch_cases].  Scrutinees and return
   operands are compiled accessors rather than [src]s: the class
   dispatch happens at compile time, not per execution.  [R_ret] writes
   the returned operand into the state's typed return lanes
   ({!state.ret}), so a typed result crosses the call seam unboxed. *)
and rterm =
  | R_halt
  | R_ret of (frame -> unit)
  | R_br of int
  | R_cond of (frame -> bool) * int * int
      (** also the compare-and-branch superinstruction: the block's
          trailing compare (whose result fed only this terminator) fused
          into the branch test, skipping the flag's materialization *)
  | R_switch of (frame -> int64) * int * (int64, Ir.Instr.label) Hashtbl.t

and rlinkterm =
  | RL_none
  | RL_halt
  | RL_ret of (frame -> unit)
  | RL_br of rtblock
  | RL_cond of (frame -> bool) * rtblock * rtblock
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
  tuning : tuning;  (* threaded-engine knobs; ignored by the reference engine *)
  max_depth : int;  (* limit on live guest activations *)
  mutable depth : int;  (* live guest activations, all functions *)
  mutable mon : (func:string -> label:int -> ninstrs:int -> unit) option;
  clk : float array;
      (* [| native; vm |] clocks, in cycles.  A flat float array, so a
         clock charge is an unboxed store (a mutable float field of a
         mixed record would box on every write). *)
  mutable fuel : int64;
      (* reference engine: remaining dynamic instructions; negative =
         out *)
  mutable spent : int;
      (* threaded engine: dynamic instructions charged so far, against
         [limit] (immediate ints, so the bookkeeping never allocates) *)
  limit : int;  (* [fuel] at run start, clamped to the native int range *)
  warmup : int;  (* the JIT model's warm-up threshold, clamped likewise *)
  mutable hops : int;
      (* threaded engine: direct linked transfers left before the next
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
        | Ir.Instr.Gaddr g -> (
            match Hashtbl.find_opt st.memory.Memory.globals g with
            | Some base -> set (Ir.Eval.VPtr base)
            | None ->
                fault "@%s/bb%d: unknown global @%s" f.Ir.Func.name !cur g)
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
        let sv =
          try Ir.Eval.as_int (value_of_operand regs s)
          with Ir.Eval.Type_error m ->
            fault "@%s/bb%d: %s" f.Ir.Func.name !cur m
        in
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

let decode_operand : Ir.Instr.operand -> src = function
  | Ir.Instr.Const c -> Imm (Ir.Eval.of_const c)
  | Ir.Instr.Reg r -> Slot r

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

let[@inline] sdiv x y =
  if Int64.equal y 0L then raise E.Division_by_zero else Int64.div x y

let[@inline] srem x y =
  if Int64.equal y 0L then raise E.Division_by_zero else Int64.rem x y

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

(* A frame's boxed lane starts out (and is re-zeroed) with this. *)
let vzero = E.VInt 0L

(* Typed memory kernels.  A cell is a tag byte and an 8-byte payload
   ({!Memory.t}; the tag literals below are [Memory.tag_int],
   [tag_float] and [tag_ptr]).  These read and write one directly, so
   a load into a typed slot or a store from one boxes nothing and makes
   no call into [Memory] (which [-opaque] would keep out of line, like
   {!Ir.Eval}).  Each is [Memory.load] followed by {!as_int} & co. on
   the boxed cell, or the typed value boxed and passed to
   [Memory.store]: the same address check first ([Bad_address]), then
   the same constant-message [Type_error]; a cell past the buffers
   reads as [VInt 0L], and a store there takes [Memory.store]'s growth
   path and its [Out_of_memory]. *)
let[@inline] check_addr (mem : Memory.t) addr =
  if addr <= 0 || addr >= mem.Memory.stack_pointer then
    raise (Memory.Bad_address addr)

let[@inline] load_i (mem : Memory.t) addr : int64 =
  check_addr mem addr;
  let tags = mem.Memory.tags in
  if addr >= Bytes.length tags then 0L
  else if Bytes.unsafe_get tags addr = '\001' then
    raise (E.Type_error "expected an integer value")
  else iget mem.Memory.data (addr lsl 3)

let[@inline] load_f (mem : Memory.t) addr : float =
  check_addr mem addr;
  let tags = mem.Memory.tags in
  if addr < Bytes.length tags && Bytes.unsafe_get tags addr = '\001' then
    Int64.float_of_bits (iget mem.Memory.data (addr lsl 3))
  else raise (E.Type_error "expected a float value")

let[@inline] load_p (mem : Memory.t) addr : int =
  check_addr mem addr;
  let tags = mem.Memory.tags in
  if addr >= Bytes.length tags then 0
  else if Bytes.unsafe_get tags addr = '\001' then
    raise (E.Type_error "expected an address")
  else Int64.to_int (iget mem.Memory.data (addr lsl 3))

let[@inline] store_i (mem : Memory.t) addr (v : int64) =
  check_addr mem addr;
  let tags = mem.Memory.tags in
  if addr < Bytes.length tags then begin
    Bytes.unsafe_set tags addr '\000';
    iset mem.Memory.data (addr lsl 3) v
  end
  else Memory.store mem addr (E.VInt v)

let[@inline] store_f (mem : Memory.t) addr (v : float) =
  check_addr mem addr;
  let tags = mem.Memory.tags in
  if addr < Bytes.length tags then begin
    Bytes.unsafe_set tags addr '\001';
    iset mem.Memory.data (addr lsl 3) (Int64.bits_of_float v)
  end
  else Memory.store mem addr (E.VFloat v)

let[@inline] store_p (mem : Memory.t) addr (v : int) =
  check_addr mem addr;
  let tags = mem.Memory.tags in
  if addr < Bytes.length tags then begin
    Bytes.unsafe_set tags addr '\002';
    iset mem.Memory.data (addr lsl 3) (Int64.of_int v)
  end
  else Memory.store mem addr (E.VPtr v)

(* Unboxed comparison predicates for the residual compare shapes — one
   arm per predicate like {!Ir.Eval.icmp_fn}/{!Ir.Eval.fcmp_fn}, over
   already converted scalars. *)
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
(* Typed register files                                               *)
(* ------------------------------------------------------------------ *)

(* The block compiler partitions a function's registers by declared
   type ({!rclass}) and compiles every operation into a closure over
   the {!frame}'s unboxed slot arrays.  The box/unbox seams are exactly:
   the run's entry arguments and result, intrinsics, CI dispatch and
   [C_boxed] registers; calls between functions copy arguments slot to
   slot and return through typed lanes (the typed call seam, below),
   and loads and stores move scalars between the lanes and the unboxed
   memory cells ({!load_i} & co.).  Everything else — int/float binops,
   compares, casts, geps, phi moves, branch tests — moves machine
   scalars between unboxed lanes.  What still allocates is measured per
   workload in DESIGN.md §14.

   Conversion discipline: reading a slot in a class other than its own
   goes through the same conversions {!as_int} & co. perform on
   the boxed representation ([C_ptr] read as int is [Int64.of_int],
   [C_int] read as address is [Int64.to_int], float/integer crossings
   raise the same constant-message [Type_error]s), so type-sound
   executions are byte-identical to the reference engine.  The one
   documented divergence (DESIGN.md §14): a type-{e confused} execution
   — a declared register type contradicting the runtime value, only
   reachable through memory cells or call seams — may observe a
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
   [Invalid_argument] the reference engine's [regs.(r)] would. *)

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
   execution like the reference engine. *)
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
   residual operand keep the closure form; unsigned divisions, residual
   division shapes and non-scalar destinations fall back to the boxed
   closure, which keeps [Division_by_zero] and its operand-conversion
   order exactly. *)
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
    | (Ir.Instr.Sdiv | Ir.Instr.Srem), C_int -> (
        (* the [E.binop_fn] arms over unboxed operands: a zero divisor
           raises the same [Division_by_zero], after both reads *)
        let sh = E.norm_shift ty in
        let sd = slots.(d) in
        let aa = rarg_i classes slots sa and bb = rarg_i classes slots sb in
        match (op, aa, bb) with
        | Ir.Instr.Sdiv, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd (renorm sh (sdiv (iget fr.fr_i a) (iget fr.fr_i b)))
        | Ir.Instr.Sdiv, RiS a, RiK kb ->
            fun fr -> iset fr.fr_i sd (renorm sh (sdiv (iget fr.fr_i a) kb))
        | Ir.Instr.Sdiv, RiK ka, RiS b ->
            fun fr -> iset fr.fr_i sd (renorm sh (sdiv ka (iget fr.fr_i b)))
        | Ir.Instr.Srem, RiS a, RiS b ->
            fun fr ->
              iset fr.fr_i sd (renorm sh (srem (iget fr.fr_i a) (iget fr.fr_i b)))
        | Ir.Instr.Srem, RiS a, RiK kb ->
            fun fr -> iset fr.fr_i sd (renorm sh (srem (iget fr.fr_i a) kb))
        | Ir.Instr.Srem, RiK ka, RiS b ->
            fun fr -> iset fr.fr_i sd (renorm sh (srem ka (iget fr.fr_i b)))
        | _ -> generic ())
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
    fr_v = Array.make (max 1 counts.(3)) vzero;
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
    if fi.rcounts.(3) > 0 then Array.fill fr.fr_v 0 (Array.length fr.fr_v) vzero;
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

(* The phi row of a label that is not a predecessor of the block (some
   phi has no entry for it): never run, the executor faults instead. *)
let no_row : frame -> unit = fun _ -> ()

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
   seam ({!renter}), which faults like the reference engine. *)
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

(* ------------------------------------------------------------------ *)
(* Loads, stores and folded addresses                                  *)
(* ------------------------------------------------------------------ *)

(* Compile-time shape of a load or store address.  [A_s], [A_k] and
   [A_g] are a plain address operand (slot, constant, residual
   closure).  The other three are a folded single-use [gep]
   (base + index), the index read from the int lane at a byte offset:
   slot+slot, slot+constant and constant+slot; constant+constant folds
   to [A_k]. *)
type addr =
  | A_s of int
  | A_k of int
  | A_ss of int * int
  | A_sk of int * int
  | A_ks of int * int
  | A_g of (frame -> int)

let addr_of_rp : rp -> addr = function
  | RpS p -> A_s p
  | RpK c -> A_k c
  | RpG g -> A_g g

(* A [gep] whose operands are slots or constants, as an address shape:
   the same [base + Int64.to_int idx] the standalone gep computes.
   [None] when an operand needs a residual closure (a cross-class or
   boxed register), which could fault. *)
let fold_gep (ab : rp) (ai : ri) : addr option =
  match (ab, ai) with
  | RpS p, RiS i -> Some (A_ss (p, i))
  | RpS p, RiK k -> Some (A_sk (p, Int64.to_int k))
  | RpK c, RiS i -> Some (A_ks (c, i))
  | RpK c, RiK k -> Some (A_k (c + Int64.to_int k))
  | _ -> None

(* Closure form of an address, for the residual arms.  Its result is
   an immediate [int], so the call allocates nothing. *)
let addr_fn : addr -> frame -> int = function
  | A_s p -> fun fr -> Array.unsafe_get fr.fr_p p
  | A_k c -> fun _ -> c
  | A_ss (p, i) ->
      fun fr -> Array.unsafe_get fr.fr_p p + Int64.to_int (iget fr.fr_i i)
  | A_sk (p, n) -> fun fr -> Array.unsafe_get fr.fr_p p + n
  | A_ks (c, i) -> fun fr -> c + Int64.to_int (iget fr.fr_i i)
  | A_g g -> g

(* A load into destination register [d]: one arm per destination class
   and address shape, each a typed memory kernel inlined into the
   closure body.  A boxed destination moves the boxed cell. *)
let compile_rload (mem : Memory.t) (classes : rclass array)
    (slots : int array) (d : int) (a : addr) : frame -> unit =
  let cls = if d >= 0 && d < Array.length classes then classes.(d) else C_boxed in
  let sd = if cls = C_boxed then 0 else slots.(d) in
  match (cls, a) with
  | C_int, A_s p ->
      fun fr -> iset fr.fr_i sd (load_i mem (Array.unsafe_get fr.fr_p p))
  | C_int, A_k c -> fun fr -> iset fr.fr_i sd (load_i mem c)
  | C_int, A_ss (p, i) ->
      fun fr ->
        iset fr.fr_i sd
          (load_i mem
             (Array.unsafe_get fr.fr_p p + Int64.to_int (iget fr.fr_i i)))
  | C_int, A_sk (p, n) ->
      fun fr -> iset fr.fr_i sd (load_i mem (Array.unsafe_get fr.fr_p p + n))
  | C_int, A_ks (c, i) ->
      fun fr -> iset fr.fr_i sd (load_i mem (c + Int64.to_int (iget fr.fr_i i)))
  | C_int, A_g g -> fun fr -> iset fr.fr_i sd (load_i mem (g fr))
  | C_float, A_s p ->
      fun fr ->
        Array.unsafe_set fr.fr_f sd (load_f mem (Array.unsafe_get fr.fr_p p))
  | C_float, A_k c -> fun fr -> Array.unsafe_set fr.fr_f sd (load_f mem c)
  | C_float, A_ss (p, i) ->
      fun fr ->
        Array.unsafe_set fr.fr_f sd
          (load_f mem
             (Array.unsafe_get fr.fr_p p + Int64.to_int (iget fr.fr_i i)))
  | C_float, A_sk (p, n) ->
      fun fr ->
        Array.unsafe_set fr.fr_f sd
          (load_f mem (Array.unsafe_get fr.fr_p p + n))
  | C_float, A_ks (c, i) ->
      fun fr ->
        Array.unsafe_set fr.fr_f sd
          (load_f mem (c + Int64.to_int (iget fr.fr_i i)))
  | C_float, A_g g -> fun fr -> Array.unsafe_set fr.fr_f sd (load_f mem (g fr))
  | C_ptr, A_s p ->
      fun fr ->
        Array.unsafe_set fr.fr_p sd (load_p mem (Array.unsafe_get fr.fr_p p))
  | C_ptr, A_k c -> fun fr -> Array.unsafe_set fr.fr_p sd (load_p mem c)
  | C_ptr, A_ss (p, i) ->
      fun fr ->
        Array.unsafe_set fr.fr_p sd
          (load_p mem
             (Array.unsafe_get fr.fr_p p + Int64.to_int (iget fr.fr_i i)))
  | C_ptr, A_sk (p, n) ->
      fun fr ->
        Array.unsafe_set fr.fr_p sd
          (load_p mem (Array.unsafe_get fr.fr_p p + n))
  | C_ptr, A_ks (c, i) ->
      fun fr ->
        Array.unsafe_set fr.fr_p sd
          (load_p mem (c + Int64.to_int (iget fr.fr_i i)))
  | C_ptr, A_g g -> fun fr -> Array.unsafe_set fr.fr_p sd (load_p mem (g fr))
  | C_boxed, _ ->
      let ga = addr_fn a in
      let w = rwr_box classes slots d in
      fun fr -> w fr (Memory.load mem (ga fr))

(* A store of operand [x]: a typed slot is written with its lane's
   kernel (the cell takes the tag its boxed value would have), one arm
   per value class and address shape; constants write through the
   address closure.  A boxed value reads value before address, like
   the reference engine. *)
let compile_rstore (mem : Memory.t) (classes : rclass array)
    (slots : int array) (x : src) (a : addr) : frame -> unit =
  let cls =
    match x with
    | Slot r when r >= 0 && r < Array.length classes -> classes.(r)
    | _ -> C_boxed
  in
  let sx = match x with Slot r when cls <> C_boxed -> slots.(r) | _ -> 0 in
  match (x, cls, a) with
  | _, C_int, A_s p ->
      fun fr -> store_i mem (Array.unsafe_get fr.fr_p p) (iget fr.fr_i sx)
  | _, C_int, A_k c -> fun fr -> store_i mem c (iget fr.fr_i sx)
  | _, C_int, A_ss (p, i) ->
      fun fr ->
        store_i mem
          (Array.unsafe_get fr.fr_p p + Int64.to_int (iget fr.fr_i i))
          (iget fr.fr_i sx)
  | _, C_int, A_sk (p, n) ->
      fun fr -> store_i mem (Array.unsafe_get fr.fr_p p + n) (iget fr.fr_i sx)
  | _, C_int, A_ks (c, i) ->
      fun fr ->
        store_i mem (c + Int64.to_int (iget fr.fr_i i)) (iget fr.fr_i sx)
  | _, C_int, A_g g -> fun fr -> store_i mem (g fr) (iget fr.fr_i sx)
  | _, C_float, A_s p ->
      fun fr ->
        store_f mem (Array.unsafe_get fr.fr_p p) (Array.unsafe_get fr.fr_f sx)
  | _, C_float, A_k c -> fun fr -> store_f mem c (Array.unsafe_get fr.fr_f sx)
  | _, C_float, A_ss (p, i) ->
      fun fr ->
        store_f mem
          (Array.unsafe_get fr.fr_p p + Int64.to_int (iget fr.fr_i i))
          (Array.unsafe_get fr.fr_f sx)
  | _, C_float, A_sk (p, n) ->
      fun fr ->
        store_f mem
          (Array.unsafe_get fr.fr_p p + n)
          (Array.unsafe_get fr.fr_f sx)
  | _, C_float, A_ks (c, i) ->
      fun fr ->
        store_f mem
          (c + Int64.to_int (iget fr.fr_i i))
          (Array.unsafe_get fr.fr_f sx)
  | _, C_float, A_g g -> fun fr -> store_f mem (g fr) (Array.unsafe_get fr.fr_f sx)
  | _, C_ptr, A_s p ->
      fun fr ->
        store_p mem (Array.unsafe_get fr.fr_p p) (Array.unsafe_get fr.fr_p sx)
  | _, C_ptr, A_k c -> fun fr -> store_p mem c (Array.unsafe_get fr.fr_p sx)
  | _, C_ptr, A_ss (p, i) ->
      fun fr ->
        store_p mem
          (Array.unsafe_get fr.fr_p p + Int64.to_int (iget fr.fr_i i))
          (Array.unsafe_get fr.fr_p sx)
  | _, C_ptr, A_sk (p, n) ->
      fun fr ->
        store_p mem
          (Array.unsafe_get fr.fr_p p + n)
          (Array.unsafe_get fr.fr_p sx)
  | _, C_ptr, A_ks (c, i) ->
      fun fr ->
        store_p mem
          (c + Int64.to_int (iget fr.fr_i i))
          (Array.unsafe_get fr.fr_p sx)
  | _, C_ptr, A_g g -> fun fr -> store_p mem (g fr) (Array.unsafe_get fr.fr_p sx)
  | Imm (E.VInt k), _, _ ->
      let ga = addr_fn a in
      fun fr -> store_i mem (ga fr) k
  | Imm (E.VFloat k), _, _ ->
      let ga = addr_fn a in
      fun fr -> store_f mem (ga fr) k
  | Imm (E.VPtr k), _, _ ->
      let ga = addr_fn a in
      fun fr -> store_p mem (ga fr) k
  | Slot _, _, _ ->
      let gx = rget_box classes slots x and ga = addr_fn a in
      fun fr ->
        let v = gx fr in
        Memory.store mem (ga fr) v

(* A phi row compiled to a slot-move table: per class, the
   slot-to-slot moves and then the constant writes, each a loop over
   (destination, source) arrays.  Valid only when no incoming source is
   another phi's destination — then every source still holds its
   pre-row value when it is read, and the sequential moves equal the
   parallel assignment.  [ii] & co. are (destination slot, source slot
   or constant) pairs. *)
let phi_moves ~ii ~ik ~ff ~fk ~pp ~pk : frame -> unit =
  let dsts l = Array.of_list (List.map fst l)
  and srcs l = Array.of_list (List.map snd l) in
  let ii_d = dsts ii and ii_s = srcs ii in
  let ik_d = dsts ik and ik_v = Bytes.create (8 * List.length ik) in
  List.iteri (fun j (_, v) -> iset ik_v (8 * j) v) ik;
  let ff_d = dsts ff and ff_s = srcs ff in
  let fk_d = dsts fk and fk_v = Array.of_list (List.map snd fk) in
  let pp_d = dsts pp and pp_s = srcs pp in
  let pk_d = dsts pk and pk_v = srcs pk in
  fun fr ->
    let fi = fr.fr_i and ff = fr.fr_f and fp = fr.fr_p in
    for j = 0 to Array.length ii_d - 1 do
      iset fi (Array.unsafe_get ii_d j) (iget fi (Array.unsafe_get ii_s j))
    done;
    for j = 0 to Array.length ik_d - 1 do
      iset fi (Array.unsafe_get ik_d j) (iget ik_v (8 * j))
    done;
    for j = 0 to Array.length ff_d - 1 do
      Array.unsafe_set ff (Array.unsafe_get ff_d j)
        (Array.unsafe_get ff (Array.unsafe_get ff_s j))
    done;
    for j = 0 to Array.length fk_d - 1 do
      Array.unsafe_set ff (Array.unsafe_get fk_d j) (Array.unsafe_get fk_v j)
    done;
    for j = 0 to Array.length pp_d - 1 do
      Array.unsafe_set fp (Array.unsafe_get pp_d j)
        (Array.unsafe_get fp (Array.unsafe_get pp_s j))
    done;
    for j = 0 to Array.length pk_d - 1 do
      Array.unsafe_set fp (Array.unsafe_get pk_d j) (Array.unsafe_get pk_v j)
    done

(* The threaded executor: the per-block protocol of the reference
   engine — fuel, profile, clocks, monitor, phi prologue, body,
   terminator, in the same order with the same arithmetic — over a
   {!frame}, for both values of the [link] knob.  Linked transfers
   follow [r_link] to the successor's compiled block, unlinked ones
   re-index [rtblocks], and every [max_linked_blocks] linked hops one
   transfer takes the indexed path ({!hop}).  Clocks, fuel and the
   linking budget live in the shared [state], the frame comes from the
   callee's pool and the result leaves through the typed return lanes,
   so neither a call nor a block allocates.  The caller has already
   checked the depth limit, filled [fr] with the arguments and counted
   the activation ({!rcall}, {!renter}). *)
let rec exec_r (st : state) (fi : func_info) (fr : frame) : unit =
  let f = fi.func in
  (* [Memory.mark]/[release], read directly: the call would not inline *)
  let frame_mark = st.memory.Memory.stack_pointer in
  let rtblocks = fi.rtblocks in
  let warmup = st.warmup in
  let clk = st.clk in
  let limit = st.limit in
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
      if p >= 0 && p < Array.length rows && Array.unsafe_get rows p != no_row
      then (Array.unsafe_get rows p) fr
      else
        fault "@%s/bb%d: phi has no entry for predecessor bb%d"
          f.Ir.Func.name curl p
    end;
    (* Body, then terminator, under one set of fault handlers: the
       fused compare-and-branch test and the switch scrutinee were body
       code before fusion, so their faults keep the body's block
       context.  Around a block with resolved calls the local fuel count
       is written back to [st] (the callee continues from it) and
       re-read after. *)
    try
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
        done;
      prev := curl;
      (* [r_link] is [RL_none] unless {!link_rfunc} ran, i.e. unless
         the [link] knob is on *)
      match b.r_link with
      | RL_halt ->
          st.ret_lane <- None;
          running := false
      | RL_ret w ->
          w fr;
          running := false
      | RL_br nb -> tb := hop st rtblocks nb
      | RL_cond (t, x, y) ->
          tb := hop st rtblocks (if t fr then x else y)
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
          | R_cond (t, x, y) ->
              tb := rtblocks.(if t fr then x else y)
          | R_switch (g, dflt, tbl) ->
              let sv = g fr in
              tb :=
                rtblocks.(match Hashtbl.find_opt tbl sv with
                          | Some l -> l
                          | None -> dflt))
    with
    | Ir.Eval.Division_by_zero ->
        fault "@%s/bb%d: division by zero" f.Ir.Func.name curl
    | Ir.Eval.Type_error m -> fault "@%s/bb%d: %s" f.Ir.Func.name curl m
    | Memory.Bad_address a ->
        fault "@%s/bb%d: bad address %d" f.Ir.Func.name curl a
    | Memory.Out_of_memory -> fault "@%s: out of memory" f.Ir.Func.name
  done;
  st.spent <- !spent;
  st.memory.Memory.stack_pointer <- frame_mark

(* The boxed side of the typed call seam: the run's entry call, and
   calls whose arity or parameter registers do not fit the slot-to-slot
   copy of {!compile_rblock}.  Same order as the reference engine:
   depth limit, arity check, then the arguments are unboxed into the
   parameter registers' classes (registers 0..n-1, like the reference
   engine's install). *)
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

(** Compile one function's blocks to threaded code over the register
    classes and slots {!assign_rslots} recorded.  The whole module must
    already be prepared in [st.funcs] so callee [func_info]s can be
    captured; their own blocks may be compiled later (a call closure
    reads them at call time). *)
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
  let n = bi.ninstrs in
  let fuse = st.tuning.fuse in
  let single_use r =
    r >= 0 && r < Array.length fi.use_counts && fi.use_counts.(r) = 1
  in
  (* Compare-and-branch fusion: fusing the trailing single-use compare
     into the branch skips a flag write and a dispatch.  Restricted to
     compare scrutinees (anything else compiles normally and the
     terminator tests its register — observably identical). *)
  let fused_scrutinee =
    if fuse && n > nphi then
      match bi.term with
      | Ir.Instr.Cond_br (Ir.Instr.Reg r, a, b)
        when bi.instrs.(n - 1).Ir.Instr.id = r
             && single_use r
             && (match bi.instrs.(n - 1).Ir.Instr.kind with
                | Ir.Instr.Icmp _ | Ir.Instr.Fcmp _ -> true
                | _ -> false) ->
          Some (bi.instrs.(n - 1), a, b)
      | _ -> None
    else None
  in
  let body_end = match fused_scrutinee with Some _ -> n - 1 | None -> n in
  (* Address folding, under [fuse].  Globals are laid out before any
     block compiles, so [gaddr] of a global that exists is a constant:
     operands at later positions of this block that read its register
     compile as that immediate ([dec k] decodes the operands of
     position [k]; the terminator is position [n]).  The [gaddr] op is
     dropped when every static use was rewritten so; otherwise it
     stays, writing the constant.  A [gep] whose operands are slots or
     constants, and whose every use is the address of a later load or
     store of this block (usually a single use), folds into those
     addresses ([folded.(j)]) and its op is dropped: it can neither
     fault nor be observed (the register file is not part of the
     outcome and nothing else reads the slot), and SSA keeps its operand
     slots unchanged up to the uses.  Cycles, fuel and profiles count
     the original instructions, never closures. *)
  let gconst : (int, int * int) Hashtbl.t = Hashtbl.create 4 in
  if fuse then
    for k = nphi to n - 1 do
      let i = bi.instrs.(k) in
      let d = i.Ir.Instr.id in
      match i.Ir.Instr.kind with
      | Ir.Instr.Gaddr g when ok d && classes.(d) = C_ptr -> (
          match Hashtbl.find_opt mem.Memory.globals g with
          | Some base -> Hashtbl.replace gconst d (k, base)
          | None -> ())
      | _ -> ()
    done;
  let dec k : Ir.Instr.operand -> src = function
    | Ir.Instr.Reg r -> (
        match Hashtbl.find_opt gconst r with
        | Some (kd, base) when kd < k -> Imm (E.VPtr base)
        | _ -> Slot r)
    | Ir.Instr.Const c -> Imm (E.of_const c)
  in
  let reads r op = match op with Ir.Instr.Reg x -> x = r | _ -> false in
  let skip = Array.make n false in
  let folded = Array.make n None in
  if fuse then
    for k = nphi to body_end - 1 do
      let i = bi.instrs.(k) in
      let d = i.Ir.Instr.id in
      match i.Ir.Instr.kind with
      | Ir.Instr.Gaddr _ when Hashtbl.mem gconst d ->
          let uses = ref 0 in
          for j = k + 1 to n - 1 do
            List.iter
              (fun op -> if reads d op then incr uses)
              (Ir.Instr.operands bi.instrs.(j).Ir.Instr.kind)
          done;
          List.iter
            (fun op -> if reads d op then incr uses)
            (Ir.Instr.terminator_operands bi.term);
          if !uses > 0 then bump_fusion "gaddr:const";
          if !uses = fi.use_counts.(d) then skip.(k) <- true
      | Ir.Instr.Gep (base, idx) when ok d && classes.(d) = C_ptr -> (
          match
            fold_gep
              (rarg_p classes slots (dec k base))
              (rarg_i classes slots (dec k idx))
          with
          | None -> ()
          | Some a ->
              let sites = ref [] in
              for j = k + 1 to body_end - 1 do
                match bi.instrs.(j).Ir.Instr.kind with
                | Ir.Instr.Load p when reads d p ->
                    sites := (j, "gep+load") :: !sites
                | Ir.Instr.Store (x, p) when reads d p && not (reads d x) ->
                    sites := (j, "gep+store") :: !sites
                | _ -> ()
              done;
              if !sites <> [] && List.length !sites = fi.use_counts.(d) then begin
                skip.(k) <- true;
                List.iter
                  (fun (j, name) ->
                    bump_fusion name;
                    folded.(j) <- Some a)
                  !sites
              end)
      | _ -> ()
    done;
  let compile_rinstr k (i : Ir.Instr.t) : frame -> unit =
    (* every operand of position [k] sees the [gaddr] constants *)
    let decode_operand = dec k in
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
    | Ir.Instr.Load a ->
        compile_rload mem classes slots d
          (match folded.(k) with
          | Some addr -> addr
          | None -> addr_of_rp (rarg_p classes slots (decode_operand a)))
    | Ir.Instr.Store (x, a) ->
        compile_rstore mem classes slots (decode_operand x)
          (match folded.(k) with
          | Some addr -> addr
          | None -> addr_of_rp (rarg_p classes slots (decode_operand a)))
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
          | RpK b, RiS ri ->
              fun fr ->
                Array.unsafe_set fr.fr_p sd (b + Int64.to_int (iget fr.fr_i ri))
          | _ ->
              let gb = rp_fn ab and gi = ri_fn ai in
              fun fr ->
                Array.unsafe_set fr.fr_p sd (gb fr + Int64.to_int (gi fr)))
        else
          let gb = rp_fn ab and gi = ri_fn ai in
          let w = rwr_box classes slots d in
          fun fr -> w fr (Ir.Eval.VPtr (gb fr + Int64.to_int (gi fr)))
    | Ir.Instr.Gaddr g -> (
        (* globals are laid out before compilation: an existing one is a
           constant, an unknown one a guest fault *)
        match Hashtbl.find_opt mem.Memory.globals g with
        | Some base ->
            if ok d && classes.(d) = C_ptr then
              let sd = slots.(d) in
              fun fr -> Array.unsafe_set fr.fr_p sd base
            else
              let w = rwr_box classes slots d and v = Ir.Eval.VPtr base in
              fun fr -> w fr v
        | None -> fun _ -> fault "@%s/bb%d: unknown global @%s" fname bnum g)
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
  let fused_term =
    match fused_scrutinee with
    | None -> None
    | Some (ci, a, b) ->
        let test =
          match ci.Ir.Instr.kind with
          | Ir.Instr.Icmp (p, x, y) ->
              bump_fusion "icmp+br";
              rbool_icmp classes slots p (dec (n - 1) x) (dec (n - 1) y)
          | Ir.Instr.Fcmp (p, x, y) ->
              bump_fusion "fcmp+br";
              rbool_fcmp classes slots p (dec (n - 1) x) (dec (n - 1) y)
          | _ -> assert false
        in
        Some (R_cond (test, a, b))
  in
  let r_ops =
    List.init (body_end - nphi) (fun j -> nphi + j)
    |> List.filter (fun k -> not skip.(k))
    |> List.map (fun k -> compile_rinstr k bi.instrs.(k))
    |> Array.of_list
  in
  (* Phi prologue, compiled per predecessor label.  A single phi writes
     its destination directly.  Under [fuse], a row whose incoming
     values are all same-class slots or constants, none of them
     another phi's destination, is one slot-move table ({!phi_moves}).
     Any other row stages into per-class scratch and then commits
     (parallel-assignment semantics); scratch reuse is safe because the
     prologue cannot re-enter this function. *)
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
        | None -> no_row
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
      let staged p =
        let stages = Array.init nphi (fun k -> stage ~direct:false p k) in
        fun fr ->
          for k = 0 to nphi - 1 do
            (Array.unsafe_get stages k) fr
          done;
          for k = 0 to nphi - 1 do
            (Array.unsafe_get commits k) fr
          done
      in
      let other_dest k r =
        let hit = ref false in
        Array.iteri (fun k' dk -> if k' <> k && dk = r then hit := true) bi.phi_dests;
        !hit
      in
      let move_row p =
        let exception Staged in
        let ii = ref [] and ik = ref [] and ff = ref [] in
        let fk = ref [] and pp = ref [] and pk = ref [] in
        try
          for k = nphi - 1 downto 0 do
            let dk = bi.phi_dests.(k) in
            match bi.phi_incoming.(k).(p) with
            | Some (Ir.Instr.Reg r) when other_dest k r -> raise Staged
            | Some op when ok dk -> (
                let s = decode_operand op and sdk = slots.(dk) in
                match classes.(dk) with
                | C_int -> (
                    match rarg_i classes slots s with
                    | RiS a -> ii := (sdk, a) :: !ii
                    | RiK v -> ik := (sdk, v) :: !ik
                    | RiG _ -> raise Staged)
                | C_float -> (
                    match rarg_f classes slots s with
                    | RfS a -> ff := (sdk, a) :: !ff
                    | RfK v -> fk := (sdk, v) :: !fk
                    | RfG _ -> raise Staged)
                | C_ptr -> (
                    match rarg_p classes slots s with
                    | RpS a -> pp := (sdk, a) :: !pp
                    | RpK v -> pk := (sdk, v) :: !pk
                    | RpG _ -> raise Staged)
                | C_boxed -> raise Staged)
            | _ -> raise Staged
          done;
          bump_fusion "phi:moves";
          phi_moves ~ii:!ii ~ik:!ik ~ff:!ff ~fk:!fk ~pp:!pp ~pk:!pk
        with Staged -> staged p
      in
      (* most labels are not predecessors: their row is [no_row], which
         the executor reports as the missing-entry fault *)
      Array.init npred (fun p ->
          if Array.exists (fun inc -> Option.is_none inc.(p)) bi.phi_incoming
          then no_row
          else if nphi = 1 then stage ~direct:true p 0
          else if fuse then move_row p
          else staged p)
    end
  in
  let r_term =
    match fused_term with
    | Some t -> t
    | None -> (
        match bi.term with
        | Ir.Instr.Ret None -> R_halt
        | Ir.Instr.Ret (Some op) ->
            R_ret (rret_write st classes slots (dec n op))
        | Ir.Instr.Br l -> R_br l
        | Ir.Instr.Cond_br (c, a, b) ->
            R_cond (rtest classes slots (dec n c), a, b)
        | Ir.Instr.Switch (s, default, _) ->
            let tbl =
              match bi.switch_cases with Some tbl -> tbl | None -> assert false
            in
            R_switch (rget_i classes slots (dec n s), default, tbl))
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
  (* Guest input like any other: globals past the cap are a fault. *)
  (try Memory.load_globals memory m
   with Memory.Out_of_memory ->
     fault "globals: out of memory (limit %d cells)" memory.Memory.limit);
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
      warmup = int_of_int64_clamped jit.Jit_model.warmup_threshold;
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
        Hashtbl.iter (fun _ fi -> assign_rslots fi) funcs;
        Hashtbl.iter (fun _ fi -> compile_rfunc st fi) funcs;
        if tuning.link then Hashtbl.iter (fun _ fi -> link_rfunc fi) funcs;
        renter st fi (Array.of_list args);
        ret_value st
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
