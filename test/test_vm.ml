(* Tests for Jitise_vm: memory, profile, JIT cost model, interpreter. *)

module Ir = Jitise_ir
module Vm = Jitise_vm
module F = Jitise_frontend

let compile src = (F.Compiler.compile_string ~name:"t" src).F.Compiler.modul

let run ?fuel ?jit ?cis ?(n = 0) m =
  Vm.Machine.run ?fuel ?jit ?cis m ~entry:"main"
    ~args:[ Ir.Eval.VInt (Int64.of_int n) ]

let ret_int out =
  match out.Vm.Machine.ret with
  | Some (Ir.Eval.VInt v) -> Int64.to_int v
  | _ -> Alcotest.fail "expected int"

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_alloc_store_load () =
  let m = Vm.Memory.create () in
  let base = Vm.Memory.alloc m 4 in
  Vm.Memory.store m (base + 2) (Ir.Eval.VInt 42L);
  (match Vm.Memory.load m (base + 2) with
  | Ir.Eval.VInt 42L -> ()
  | _ -> Alcotest.fail "roundtrip");
  Alcotest.(check bool) "fresh cells are zero" true
    (match Vm.Memory.load m base with Ir.Eval.VInt 0L -> true | _ -> false)

let test_memory_bad_address () =
  let m = Vm.Memory.create () in
  let _ = Vm.Memory.alloc m 2 in
  Alcotest.(check bool) "null deref" true
    (try
       ignore (Vm.Memory.load m 0);
       false
     with Vm.Memory.Bad_address 0 -> true);
  Alcotest.(check bool) "past the stack" true
    (try
       ignore (Vm.Memory.load m 1000);
       false
     with Vm.Memory.Bad_address _ -> true)

let test_memory_frames () =
  let m = Vm.Memory.create () in
  let mark = Vm.Memory.mark m in
  let base = Vm.Memory.alloc m 8 in
  Vm.Memory.release m mark;
  Alcotest.(check bool) "released frame unreadable" true
    (try
       ignore (Vm.Memory.load m base);
       false
     with Vm.Memory.Bad_address _ -> true)

let test_memory_globals () =
  let modul = Ir.Irmod.create ~name:"g" in
  Ir.Irmod.add_global modul
    { Ir.Irmod.gname = "ints"; gty = Ir.Ty.I32; gsize = 3;
      ginit = Ir.Irmod.Ints [| 1L; 2L; 3L |] };
  Ir.Irmod.add_global modul
    { Ir.Irmod.gname = "floats"; gty = Ir.Ty.F64; gsize = 2;
      ginit = Ir.Irmod.Floats [| 1.5; -2.5 |] };
  Ir.Irmod.add_global modul
    { Ir.Irmod.gname = "zeros"; gty = Ir.Ty.F32; gsize = 2; ginit = Ir.Irmod.Zero };
  let m = Vm.Memory.create () in
  Vm.Memory.load_globals m modul;
  Alcotest.(check (array int64)) "ints" [| 1L; 2L; 3L |]
    (Vm.Memory.read_global_ints m "ints" 3);
  Alcotest.(check (array (float 1e-9))) "floats" [| 1.5; -2.5 |]
    (Vm.Memory.read_global_floats m "floats" 2);
  Alcotest.(check (array (float 1e-9))) "zeros" [| 0.0; 0.0 |]
    (Vm.Memory.read_global_floats m "zeros" 2);
  Vm.Memory.write_global_ints m "ints" [| 9L; 8L; 7L |];
  Alcotest.(check (array int64)) "overwritten" [| 9L; 8L; 7L |]
    (Vm.Memory.read_global_ints m "ints" 3);
  Alcotest.(check bool) "unknown global" true
    (try
       ignore (Vm.Memory.global_base m "nope");
       false
     with Invalid_argument _ -> true)

let test_memory_limit () =
  let m = Vm.Memory.create ~limit:128 () in
  Alcotest.(check bool) "out of memory" true
    (try
       ignore (Vm.Memory.alloc m 1024);
       false
     with Vm.Memory.Out_of_memory -> true)

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let test_profile_counts () =
  let p = Vm.Profile.create () in
  Vm.Profile.bump p ~func:"f" ~label:0 ~instrs:3;
  Vm.Profile.bump p ~func:"f" ~label:0 ~instrs:3;
  Vm.Profile.record p ~func:"f" ~label:1 ~count:5L ~instrs:2;
  Alcotest.(check int64) "bumped twice" 2L (Vm.Profile.count p ~func:"f" ~label:0);
  Alcotest.(check int64) "recorded" 5L (Vm.Profile.count p ~func:"f" ~label:1);
  Alcotest.(check int64) "missing is zero" 0L (Vm.Profile.count p ~func:"g" ~label:0);
  Alcotest.(check int64) "instr total" 16L p.Vm.Profile.executed_instrs

let test_profile_merge () =
  let a = Vm.Profile.create () and b = Vm.Profile.create () in
  Vm.Profile.record a ~func:"f" ~label:0 ~count:2L ~instrs:1;
  Vm.Profile.record b ~func:"f" ~label:0 ~count:3L ~instrs:1;
  Vm.Profile.merge ~into:a b;
  Alcotest.(check int64) "merged" 5L (Vm.Profile.count a ~func:"f" ~label:0)

let test_profile_block_costs_ordering () =
  let m =
    compile
      "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }"
  in
  let out = run ~n:50 m in
  let costs = Vm.Profile.block_costs out.Vm.Machine.profile m in
  Alcotest.(check bool) "non-empty" true (costs <> []);
  let rec descending = function
    | a :: b :: rest -> snd a >= snd b && descending (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "sorted by cost" true (descending costs)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let test_machine_phi_swap () =
  (* Parallel phi semantics: swapping two values through a loop must not
     serialize.  After n iterations of (a, b) <- (b, a), with n even the
     original order is restored. *)
  let m =
    compile
      "int main(int n) { int a = 1; int b = 2; int i; for (i = 0; i < n; i = i + 1) { int t = a; a = b; b = t; } return a * 10 + b; }"
  in
  Alcotest.(check int) "even swaps" 12 (ret_int (run ~n:4 m));
  Alcotest.(check int) "odd swaps" 21 (ret_int (run ~n:5 m))

let test_machine_faults () =
  let m = compile "int main(int n) { return 10 / n; }" in
  Alcotest.(check bool) "division fault" true
    (try
       ignore (run ~n:0 m);
       false
     with Vm.Machine.Fault _ -> true);
  let m = compile "int a[4]; int main(int n) { return a[n]; }" in
  Alcotest.(check bool) "wild index" true
    (try
       ignore (run ~n:5000 m);
       false
     with Vm.Machine.Fault _ -> true)

let test_machine_missing_entry () =
  let m = compile "int main(int n) { return 0; }" in
  Alcotest.(check bool) "unknown entry" true
    (try
       ignore (Vm.Machine.run m ~entry:"nope" ~args:[]);
       false
     with Vm.Machine.Fault _ -> true)

let test_machine_fuel () =
  let m = compile "int main(int n) { while (1 == 1) { n = n + 1; } return n; }" in
  Alcotest.(check bool) "infinite loop stopped" true
    (try
       ignore (run ~fuel:10_000L m);
       false
     with Vm.Machine.Fault _ -> true)

let test_machine_clocks () =
  let m =
    compile
      "double v[64]; int main(int n) { int i; double s = 0.0; for (i = 0; i < 64; i = i + 1) { v[i] = i * 0.5; } for (i = 0; i < n; i = i + 1) { s = s + v[i & 63] * v[(i + 1) & 63]; } return s; }"
  in
  let out = run ~n:5000 m in
  Alcotest.(check bool) "native positive" true (out.Vm.Machine.native_cycles > 0.0);
  Alcotest.(check bool) "vm >= 0" true (out.Vm.Machine.vm_cycles > 0.0);
  (* native-model run reports identical clocks *)
  let native = run ~n:5000 ~jit:Vm.Jit_model.native m in
  Alcotest.(check (float 1e-6)) "native model has no overhead"
    native.Vm.Machine.native_cycles native.Vm.Machine.vm_cycles

let test_machine_hot_loop_amortizes () =
  let src =
    "int main(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i * 3; } return s; }"
  in
  let m = compile src in
  let small = run ~n:50 m in
  let large = run ~n:1_000_000 m in
  let ratio o = o.Vm.Machine.vm_cycles /. o.Vm.Machine.native_cycles in
  Alcotest.(check bool) "warm-up dominates small runs" true
    (ratio small > ratio large);
  Alcotest.(check bool) "hot loop converges near 1" true (ratio large < 1.05)

let test_machine_deterministic () =
  let m = compile "int main(int n) { return n * 3 + 1; }" in
  let a = run ~n:4 m and b = run ~n:4 m in
  Alcotest.(check int) "same result" (ret_int a) (ret_int b);
  Alcotest.(check (float 1e-9)) "same cycles" a.Vm.Machine.native_cycles
    b.Vm.Machine.native_cycles

(* Hand-build a module with a Ci_call: main(n) = ci0(n, 7).  Shared
   with the engine-differential suite below. *)
let ci_module () =
  let f = Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I32) ] ~ret_ty:Ir.Ty.I32 in
  let b = Ir.Builder.create f in
  let bb = Ir.Builder.new_block b ~name:"entry" in
  Ir.Builder.position_at b bb;
  let r =
    Ir.Builder.add b Ir.Ty.I32
      (Ir.Instr.Ci_call (0, [ Ir.Builder.reg 0; Ir.Builder.ci32 7 ]))
  in
  Ir.Builder.ret b (Some (Ir.Builder.reg r));
  let f = Ir.Builder.finish b in
  let m = Ir.Irmod.create ~name:"ci" in
  Ir.Irmod.add_func m f;
  m

let mul_ci_registry () =
  let cis = Vm.Machine.empty_cis () in
  Hashtbl.replace cis 0
    {
      Vm.Machine.ci_eval =
        (fun args ->
          Ir.Eval.VInt
            (Int64.mul (Ir.Eval.as_int args.(0)) (Ir.Eval.as_int args.(1))));
      ci_cycles = 2;
      (* a distinguishable native impl would break the differential
         suite: the knob must be unobservable in outcomes *)
      ci_native =
        Some
          (fun args ->
            Ir.Eval.VInt
              (Int64.mul (Ir.Eval.as_int args.(0)) (Ir.Eval.as_int args.(1))));
    };
  cis

let test_machine_ci_call () =
  (* The registry path: ci0(a, b) = a * b, at 2 cycles. *)
  let m = ci_module () in
  let cis = mul_ci_registry () in
  Alcotest.(check int) "ci computes" 42 (ret_int (run ~cis ~n:6 m));
  (* without the registry the call faults *)
  Alcotest.(check bool) "unconfigured ci faults" true
    (try
       ignore (run ~n:6 m);
       false
     with Vm.Machine.Fault _ -> true)

let test_jit_model_translation () =
  Alcotest.(check (float 1e-9)) "native model translates for free" 0.0
    (Vm.Jit_model.module_translation_cycles Vm.Jit_model.native
       ~module_instrs:1000);
  Alcotest.(check bool) "default model charges translation" true
    (Vm.Jit_model.module_translation_cycles Vm.Jit_model.default
       ~module_instrs:1000
    > 0.0)

let test_jit_model_block_cycles () =
  let jit = Vm.Jit_model.default in
  let cold =
    Vm.Jit_model.block_execution_cycles jit ~prior:0L ~ninstrs:10
      ~native_cycles:20
  in
  let hot =
    Vm.Jit_model.block_execution_cycles jit ~prior:1_000L ~ninstrs:10
      ~native_cycles:20
  in
  Alcotest.(check bool) "cold interp is slower" true (cold > 20.0);
  Alcotest.(check bool) "hot is native-or-better" true (hot <= 20.0)

let test_dispatch_accounting () =
  (* The dispatch charge is per executed IR instruction, independent of
     how the host engine batches the work (DESIGN.md §13): a block of
     [ninstrs] instructions always charges exactly
     [vm_dispatch_cycles * ninstrs] while interpreted. *)
  Alcotest.(check int)
    "block charge is per-instruction" 20
    (Ir.Cost.block_dispatch_cycles ~ninstrs:10);
  Alcotest.(check int)
    "empty block charges nothing" 0
    (Ir.Cost.block_dispatch_cycles ~ninstrs:0);
  let cold =
    Vm.Jit_model.block_execution_cycles Vm.Jit_model.default ~prior:0L
      ~ninstrs:10 ~native_cycles:25
  in
  Alcotest.(check (float 0.0))
    "cold = native + dispatch"
    (float_of_int (25 + Ir.Cost.block_dispatch_cycles ~ninstrs:10))
    cold

let test_seconds_of_cycles () =
  Alcotest.(check (float 1e-12)) "300 MHz" 1.0
    (Vm.Machine.seconds_of_cycles Ir.Cost.clock_hz)

(* ------------------------------------------------------------------ *)
(* Engine differential: Reference vs Threaded                          *)
(* ------------------------------------------------------------------ *)

(* The threaded engine's whole contract is "byte-identical outcomes".
   These tests run the same module under both engines and require equal
   return values, EXACT clock equality (same float-addition order, so
   0.0 tolerance), equal executed-instruction counts and equal
   block-frequency profiles. *)

module W = Jitise_workloads
module Core = Jitise_core
module Pp = Jitise_pivpav
module Cad = Jitise_cad
module An = Jitise_analysis
module Ise = Jitise_ise
module U = Jitise_util

let check_outcomes_equal what (a : Vm.Machine.outcome) (b : Vm.Machine.outcome)
    =
  (match (a.ret, b.ret) with
  | None, None -> ()
  | Some x, Some y when Ir.Eval.equal_value x y -> ()
  | _ -> Alcotest.fail (what ^ ": return values differ"));
  Alcotest.(check (float 0.0))
    (what ^ ": native cycles") a.native_cycles b.native_cycles;
  Alcotest.(check (float 0.0)) (what ^ ": vm cycles") a.vm_cycles b.vm_cycles;
  Alcotest.(check int64)
    (what ^ ": executed instrs") a.profile.Vm.Profile.executed_instrs
    b.profile.Vm.Profile.executed_instrs;
  Alcotest.(check bool)
    (what ^ ": profiles equal") true
    (Vm.Profile.to_list a.profile = Vm.Profile.to_list b.profile)

(* Run [m] under both engines and return (reference, threaded) after
   checking the outcomes are identical. *)
let diff ?fuel ?cis ?(entry = "main") ~args what m =
  let go engine = Vm.Machine.run ?fuel ?cis ~engine m ~entry ~args in
  let r = go Vm.Machine.Reference and t = go Vm.Machine.Threaded in
  check_outcomes_equal what r t;
  (r, t)

let diff_n ?fuel ?cis ~n what m =
  diff ?fuel ?cis ~args:[ Ir.Eval.VInt (Int64.of_int n) ] what m

(* Compare [len] cells of global [name] across the two outcomes. *)
let check_global_equal what name len (a : Vm.Machine.outcome)
    (b : Vm.Machine.outcome) =
  let base_a = Vm.Memory.global_base a.memory name
  and base_b = Vm.Memory.global_base b.memory name in
  for i = 0 to len - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s[%d]" what name i)
      true
      (Ir.Eval.equal_value
         (Vm.Memory.load a.memory (base_a + i))
         (Vm.Memory.load b.memory (base_b + i)))
  done

let test_diff_mode_family () =
  (* Generated SPEC-shaped program: cold config code, a live dispatcher,
     dead modes — lots of branchy integer control flow. *)
  let src =
    W.Gen.mode_family ~app:"dx" ~live:6 ~cfg:5 ~dead:4
    ^ "int main(int n) {\n\
      \  int acc = dx_startup();\n\
      \  int t;\n\
      \  for (t = 0; t < n; t = t + 1) { acc = acc + dx_step(t); }\n\
      \  return acc;\n\
       }\n"
  in
  let m = compile src in
  List.iter
    (fun n -> ignore (diff_n ~n (Printf.sprintf "mode n=%d" n) m))
    [ 0; 1; 37; 500 ]

let test_diff_phase_family () =
  (* Float kernel with global arrays: checks the float fast paths and
     that memory ends up identical, not just the return value. *)
  let src =
    W.Gen.phase_family ~prefix:"px" ~phases:3 ~width:24 ~float_ops:true
    ^ W.Gen.float_helper_family ~prefix:"fh" ~count:4
    ^ "int main(int n) {\n\
      \  px_seed(n);\n\
      \  int r;\n\
      \  for (r = 0; r < 5; r = r + 1) { px_run(); }\n\
      \  double v = fh_eval(n - (n / 4) * 4, px_a[0] + px_b[23]);\n\
      \  if (v > 0.5) { return 1; }\n\
      \  return 0;\n\
       }\n"
  in
  let m = compile src in
  List.iter
    (fun n ->
      let r, t = diff_n ~n (Printf.sprintf "phase n=%d" n) m in
      check_global_equal "phase" "px_a" 24 r t;
      check_global_equal "phase" "px_b" 24 r t)
    [ 0; 3; 11 ]

let test_diff_intrinsics () =
  (* Every MiniC-reachable intrinsic, plus implicit int->double
     promotion on the way in. *)
  let src =
    "int main(int n) {\n\
    \  double x = 0.5 + n;\n\
    \  double s = sqrt(x) + sin(x) * cos(x) + atan(x) + exp(0.1 * x)\n\
    \    + log(x + 1.0) + fabs(0.0 - x) + floor(x) + pow(x, 2.0);\n\
    \  int i = abs(0 - n) + min(n, 3) + max(n, 7);\n\
    \  if (s > 100.0) { return i + 1000; }\n\
    \  return i;\n\
     }\n"
  in
  let m = compile src in
  List.iter
    (fun n -> ignore (diff_n ~n (Printf.sprintf "intrinsics n=%d" n) m))
    [ 0; 4; 50 ]

let test_diff_recursion () =
  let m =
    compile
      "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - \
       2); }\n\
       int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; \
       } return a; }\n\
       int main(int n) { return fib(n) * 100 + gcd(n * 12, 18); }\n"
  in
  List.iter
    (fun n -> ignore (diff_n ~n (Printf.sprintf "recursion n=%d" n) m))
    [ 0; 1; 10; 15 ]

(* Hand-built Switch with a duplicate case value: both engines must
   honor first-match-wins on the textual case order. *)
let switch_module () =
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I32) ] ~ret_ty:Ir.Ty.I32
  in
  let b = Ir.Builder.create f in
  let entry = Ir.Builder.new_block b ~name:"entry" in
  let bb1 = Ir.Builder.new_block b ~name:"one" in
  let bb2 = Ir.Builder.new_block b ~name:"one_dup" in
  let bb3 = Ir.Builder.new_block b ~name:"two" in
  let bbd = Ir.Builder.new_block b ~name:"default" in
  Ir.Builder.position_at b entry;
  Ir.Builder.set_term b
    (Ir.Instr.Switch
       ( Ir.Builder.reg 0,
         bbd.Ir.Block.label,
         [
           (1L, bb1.Ir.Block.label);
           (1L, bb2.Ir.Block.label);
           (2L, bb3.Ir.Block.label);
         ] ));
  let ret_const bb v =
    Ir.Builder.position_at b bb;
    Ir.Builder.ret b (Some (Ir.Builder.ci32 v))
  in
  ret_const bb1 10;
  ret_const bb2 20;
  ret_const bb3 30;
  ret_const bbd 99;
  let m = Ir.Irmod.create ~name:"sw" in
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  m

let test_diff_switch () =
  let m = switch_module () in
  List.iter
    (fun (n, expect) ->
      let r, _ = diff_n ~n (Printf.sprintf "switch n=%d" n) m in
      Alcotest.(check int) (Printf.sprintf "switch %d -> %d" n expect) expect
        (Int64.to_int
           (match r.Vm.Machine.ret with
           | Some (Ir.Eval.VInt v) -> v
           | _ -> Alcotest.fail "int expected")))
    [ (1, 10); (2, 30); (7, 99); (0, 99) ]

let test_diff_ci_call () =
  let m = ci_module () in
  let cis = mul_ci_registry () in
  ignore (diff_n ~cis ~n:6 "ci" m);
  ignore (diff_n ~cis ~n:(-3) "ci negative" m)

(* Fault parity: both engines must fault on the same inputs with the
   SAME message (messages embed block names and budgets, so this pins
   the threaded engine's error paths, not just its happy path). *)
let fault_msg ?fuel ?cis ~engine ~n m =
  try
    ignore
      (Vm.Machine.run ?fuel ?cis ~engine m ~entry:"main"
         ~args:[ Ir.Eval.VInt (Int64.of_int n) ]);
    None
  with Vm.Machine.Fault msg -> Some msg

let check_fault_parity ?fuel ?cis what ~n m =
  let r = fault_msg ?fuel ?cis ~engine:Vm.Machine.Reference ~n m
  and t = fault_msg ?fuel ?cis ~engine:Vm.Machine.Threaded ~n m in
  Alcotest.(check bool) (what ^ ": faulted") true (r <> None);
  Alcotest.(check (option string)) (what ^ ": same message") r t

let unknown_callee_module () =
  let f =
    Ir.Func.create ~name:"main" ~params:[ (0, Ir.Ty.I32) ] ~ret_ty:Ir.Ty.I32
  in
  let b = Ir.Builder.create f in
  let bb = Ir.Builder.new_block b ~name:"entry" in
  Ir.Builder.position_at b bb;
  let r = Ir.Builder.call b Ir.Ty.I32 "nope" [ Ir.Builder.reg 0 ] in
  Ir.Builder.ret b (Some (Ir.Builder.reg r));
  let m = Ir.Irmod.create ~name:"unk" in
  Ir.Irmod.add_func m (Ir.Builder.finish b);
  m

let test_diff_fault_parity () =
  check_fault_parity "div by zero" ~n:0
    (compile "int main(int n) { return 10 / n; }");
  check_fault_parity "wild index" ~n:5000
    (compile "int a[4]; int main(int n) { return a[n]; }");
  check_fault_parity "fuel" ~fuel:10_000L ~n:0
    (compile
       "int main(int n) { while (1 == 1) { n = n + 1; } return n; }");
  check_fault_parity "unknown callee" ~n:1 (unknown_callee_module ());
  check_fault_parity "unconfigured ci" ~n:6 (ci_module ())

(* Globals are laid out before either engine starts: a module whose
   globals exceed the memory cap is a named fault, not a host
   exception, with one message on both engines. *)
let test_diff_globals_past_cap () =
  let m = compile "int a[200000000]; int main(int n) { a[5] = 1; return a[5]; }" in
  check_fault_parity "globals past the cap" ~n:0 m;
  Alcotest.(check (option string)) "names the cause"
    (Some
       (Printf.sprintf "globals: out of memory (limit %d cells)"
          (Vm.Memory.create ()).Vm.Memory.limit))
    (fault_msg ~engine:Vm.Machine.Threaded ~n:0 m)

(* ------------------------------------------------------------------ *)
(* Tuning-knob differential: all (link, fuse, ci_native) combinations  *)
(* ------------------------------------------------------------------ *)

(* The eight (link, fuse, ci_native) knob combinations under a
   deliberately tiny linking budget (so the escape hatch fires inside
   short loops), plus the two budget extremes under full tuning. *)
let all_tunings =
  List.concat_map
    (fun link ->
      List.concat_map
        (fun fuse ->
          List.map
            (fun ci_native ->
              { Vm.Machine.link; fuse; ci_native; max_linked_blocks = 3 })
            [ false; true ])
        [ false; true ])
    [ false; true ]
  @ [
      { Vm.Machine.default_tuning with max_linked_blocks = 1 };
      { Vm.Machine.default_tuning with max_linked_blocks = 1024 };
    ]

let tuning_tag (t : Vm.Machine.tuning) =
  Printf.sprintf "link=%b fuse=%b ci=%b budget=%d" t.Vm.Machine.link
    t.Vm.Machine.fuse t.Vm.Machine.ci_native t.Vm.Machine.max_linked_blocks

(* One Reference run, then every tuned Threaded variant against it. *)
let diff_all_tunings ?fuel ?cis ?max_depth ?(entry = "main") ~args what m =
  let ref_out =
    Vm.Machine.run ?fuel ?cis ?max_depth ~engine:Vm.Machine.Reference m ~entry
      ~args
  in
  List.iter
    (fun tuning ->
      let t =
        Vm.Machine.run ?fuel ?cis ?max_depth ~engine:Vm.Machine.Threaded
          ~tuning m ~entry ~args
      in
      check_outcomes_equal (what ^ " [" ^ tuning_tag tuning ^ "]") ref_out t)
    all_tunings;
  ref_out

let diff_all_n ?fuel ?cis ~n what m =
  diff_all_tunings ?fuel ?cis ~args:[ Ir.Eval.VInt (Int64.of_int n) ] what m

let check_fault_parity_tunings ?fuel ?cis what ~n m =
  let r = fault_msg ?fuel ?cis ~engine:Vm.Machine.Reference ~n m in
  Alcotest.(check bool) (what ^ ": faulted") true (r <> None);
  List.iter
    (fun tuning ->
      let t =
        try
          ignore
            (Vm.Machine.run ?fuel ?cis ~engine:Vm.Machine.Threaded ~tuning m
               ~entry:"main"
               ~args:[ Ir.Eval.VInt (Int64.of_int n) ]);
          None
        with Vm.Machine.Fault msg -> Some msg
      in
      Alcotest.(check (option string))
        (what ^ " [" ^ tuning_tag tuning ^ "]")
        r t)
    all_tunings

let test_tuning_self_loop () =
  (* A single self-looping block: a linked chain repeatedly re-enters
     the same compiled block and trips the budget escape hatch. *)
  let m =
    compile
      "int main(int n) {\n\
      \  int i = 0; int acc = 0;\n\
      \  while (i < n) { acc = acc + i * 3 - 1; i = i + 1; }\n\
      \  return acc;\n\
       }\n"
  in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "self loop n=%d" n) m))
    [ 0; 1; 2; 3; 4; 100 ]

let test_tuning_block_cycle () =
  (* Two alternating loop-body blocks (a mutual cycle through the loop
     header): linking follows the cycle across distinct blocks. *)
  let m =
    compile
      "int main(int n) {\n\
      \  int a = 0; int b = 1; int i = 0;\n\
      \  while (i < n) {\n\
      \    if (i - (i / 2) * 2 == 0) { a = a + b; } else { b = a + b; }\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return a * 1000 + b;\n\
       }\n"
  in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "block cycle n=%d" n) m))
    [ 0; 1; 2; 3; 7; 64 ]

let test_tuning_switch_heavy () =
  (* First-match-wins duplicate-case switch under every combination. *)
  let m = switch_module () in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "tuned switch n=%d" n) m))
    [ 0; 1; 2; 7 ];
  (* and a dispatch-table-shaped loop: a mode dispatcher driven round
     the table, so every arm's block chain gets linked and fused *)
  let src =
    W.Gen.mode_family ~app:"tx" ~live:5 ~cfg:3 ~dead:2
    ^ "int main(int n) {\n\
      \  int acc = tx_startup();\n\
      \  int t;\n\
      \  for (t = 0; t < n; t = t + 1) { acc = acc + tx_step(t); }\n\
      \  return acc;\n\
       }\n"
  in
  let dm = compile src in
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "dispatch n=%d" n) dm))
    [ 0; 5; 83 ]

let test_tuning_fuel_mid_chain () =
  (* Fuel runs out in the middle of a linked chain: the fault must name
     the same function and remaining budget under every combination,
     i.e. linking must not batch fuel across block boundaries. *)
  let m =
    compile "int main(int n) { while (1 == 1) { n = n + 3; } return n; }"
  in
  List.iter
    (fun fuel ->
      check_fault_parity_tunings
        (Printf.sprintf "fuel=%Ld mid-chain" fuel)
        ~fuel ~n:0 m)
    [ 7L; 100L; 10_001L ]

let test_tuning_ci_call () =
  (* Exercises the ci_native knob on both the hit and the miss path. *)
  let m = ci_module () in
  let cis = mul_ci_registry () in
  ignore (diff_all_n ~cis ~n:6 "tuned ci" m);
  ignore (diff_all_n ~cis ~n:(-3) "tuned ci negative" m)

let test_tuning_load_sink_faults () =
  (* A fusable single-use load with a wild computed index: the sunk
     load's fault must carry the same block-level message. *)
  check_fault_parity_tunings "sunk load wild index" ~n:5000
    (compile "int a[4]; int main(int n) { return a[n * 3 + 1] + 1; }");
  check_fault_parity_tunings "sunk load null" ~n:(-1000)
    (compile "int a[4]; int main(int n) { return a[n] * 2; }");
  (* two single-use loads feeding one add: each is a barrier inside the
     other's sink window, so at most one sinks; the reported address
     must stay the textually first load's under every combination *)
  check_fault_parity_tunings "two-load barrier" ~n:5000
    (compile "int a[4]; int b[4]; int main(int n) { return a[n] + b[0]; }");
  (* a store between a load and its consumer is a barrier too *)
  check_fault_parity_tunings "store barrier" ~n:5000
    (compile
       "int a[4]; int b[4];\n\
        int main(int n) { int x = a[n]; b[0] = 7; return x + 1; }\n")

let test_fusion_stats () =
  let m =
    compile
      "int a[8];\n\
       int main(int n) {\n\
      \  int i = 0;\n\
      \  while (i < n) { a[i - (i / 8) * 8] = i * 2 + 1; i = i + 1; }\n\
      \  return a[0];\n\
       }\n"
  in
  let go tuning =
    ignore
      (Vm.Machine.run ~engine:Vm.Machine.Threaded ~tuning m ~entry:"main"
         ~args:[ Ir.Eval.VInt 7L ])
  in
  Vm.Machine.reset_fusion_stats ();
  go Vm.Machine.untuned;
  Alcotest.(check (list (pair string int)))
    "untuned compiles no fused window" []
    (Vm.Machine.fusion_stats ());
  go Vm.Machine.default_tuning;
  let stats = Vm.Machine.fusion_stats () in
  Alcotest.(check bool)
    "fused patterns counted" true
    (stats <> [] && List.for_all (fun (_, c) -> c > 0) stats);
  Alcotest.(check (list string))
    "sorted by pattern name"
    (List.sort compare (List.map fst stats))
    (List.map fst stats);
  Vm.Machine.reset_fusion_stats ();
  Alcotest.(check (list (pair string int)))
    "reset clears" []
    (Vm.Machine.fusion_stats ())

(* ------------------------------------------------------------------ *)
(* Superinstruction shapes: folded addresses, phi move tables          *)
(* ------------------------------------------------------------------ *)

(* Memory below the stack pointer, bit for bit (tag and payload of
   every cell). *)
let check_memory_equal what (a : Vm.Machine.outcome) (b : Vm.Machine.outcome)
    =
  let cells (m : Vm.Memory.t) =
    let n = m.Vm.Memory.stack_pointer in
    ( n,
      Bytes.sub_string m.Vm.Memory.tags 0 n,
      Bytes.sub_string m.Vm.Memory.data 0 (8 * n) )
  in
  Alcotest.(check bool)
    (what ^ ": memory equal") true
    (cells a.Vm.Machine.memory = cells b.Vm.Machine.memory)

(* [diff_all_tunings] over a textual module, memory included. *)
let diff_ir what ir ns =
  let m = Ir.Parser.parse_module ir in
  List.iter
    (fun n ->
      let args = [ Ir.Eval.VInt (Int64.of_int n) ] in
      let r = Vm.Machine.run ~engine:Vm.Machine.Reference m ~entry:"main" ~args in
      List.iter
        (fun tuning ->
          let what = Printf.sprintf "%s n=%d [%s]" what n (tuning_tag tuning) in
          let t =
            Vm.Machine.run ~engine:Vm.Machine.Threaded ~tuning m ~entry:"main"
              ~args
          in
          check_outcomes_equal what r t;
          check_memory_equal what r t)
        all_tunings)
    ns

(* A gep folded into the loads and stores that use it, every operand
   shape: slot+slot, constant+slot (the gaddr folds to a constant),
   slot+constant and constant+constant; %22 feeds both a load and a
   store, and %25 also a stored value, so it stays. *)
let folded_gep_ir =
  "global @g : i32[8] = ints {3, 1, 4, 1, 5, 9, 2, 6}\n\
   global @h : f64[8] = zero\n\n\
   func ptr @at(%0: i32) {\n\
   bb0:\n\
  \  %1 = gaddr @g\n\
  \  %2 = gep %1, %0\n\
  \  ret %2\n\
   }\n\n\
   func i32 @main(%0: i32) {\n\
   bb0:\n\
  \  %1 = gaddr @g\n\
  \  %2 = gep %1, %0\n\
  \  %3 = load i32 %2\n\
  \  %4 = call ptr @at(1:i32)\n\
  \  %5 = gep %4, %0\n\
  \  %6 = load i32 %5\n\
  \  %7 = gep %4, 2:i32\n\
  \  store %3, %7\n\
  \  %8 = gep %1, 7:i32\n\
  \  store %6, %8\n\
  \  %9 = gaddr @h\n\
  \  %10 = gep %9, %0\n\
  \  %11 = sitofp %6 to f64\n\
  \  store %11, %10\n\
  \  %12 = gep %9, %0\n\
  \  %13 = load f64 %12\n\
  \  %14 = fptosi %13 to i32\n\
  \  %15 = gep %1, 3:i32\n\
  \  store %4, %15\n\
  \  %16 = gep %1, 3:i32\n\
  \  %17 = load ptr %16\n\
  \  %18 = load i32 %17\n\
  \  %19 = add i32 %3, %14\n\
  \  %20 = add i32 %19, %18\n\
  \  %21 = gep %4, %0\n\
  \  store %20, %21\n\
  \  %22 = gep %4, 3:i32\n\
  \  %23 = load i32 %22\n\
  \  %24 = add i32 %23, 1:i32\n\
  \  store %24, %22\n\
  \  %25 = gep %1, 5:i32\n\
  \  %26 = load i32 %25\n\
  \  %27 = gep %1, 6:i32\n\
  \  store %25, %27\n\
  \  %28 = add i32 %20, %26\n\
  \  ret %28\n\
   }\n"

(* The address of a folded gep out of range: the load or store that
   absorbed it must report the same [bad address N]. *)
let wild_gep_ir ~store =
  Printf.sprintf
    "global @g : i32[4] = zero\n\n\
     func i32 @main(%%0: i32) {\n\
     bb0:\n\
    \  %%1 = gaddr @g\n\
    \  %%2 = gep %%1, %%0\n\
    \  %s\n\
    \  ret 7:i32\n\
     }\n"
    (if store then "store 5:i32, %2" else "%3 = load i32 %2")

(* A float stored and read back as an int through folded addresses:
   the same type fault, in the same block, as the reference engine's
   use of the loaded float. *)
let confused_cell_ir =
  "global @g : f64[4] = zero\n\n\
   func i32 @main(%0: i32) {\n\
   bb0:\n\
  \  %1 = gaddr @g\n\
  \  %2 = gep %1, %0\n\
  \  %3 = sitofp %0 to f64\n\
  \  store %3, %2\n\
  \  %4 = gep %1, %0\n\
  \  %5 = load i32 %4\n\
  \  %6 = add i32 %5, 1:i32\n\
  \  ret %6\n\
   }\n"

(* Phi rows that read another phi's destination: a swap, a 3-way
   rotation and a float swap.  Sequential moves would clobber a source
   before it is read, so these rows must take the staged path. *)
let phi_conflict_ir =
  "func i32 @main(%0: i32) {\n\
   bb0:\n\
  \  br bb1\n\
   bb1:\n\
  \  %1 = phi i32 [bb0: 1:i32], [bb1: %2]\n\
  \  %2 = phi i32 [bb0: 2:i32], [bb1: %1]\n\
  \  %3 = phi i32 [bb0: 3:i32], [bb1: %4]\n\
  \  %4 = phi i32 [bb0: 4:i32], [bb1: %5]\n\
  \  %5 = phi i32 [bb0: 5:i32], [bb1: %3]\n\
  \  %6 = phi f64 [bb0: 0.25:f64], [bb1: %7]\n\
  \  %7 = phi f64 [bb0: 8.0:f64], [bb1: %6]\n\
  \  %8 = phi i32 [bb0: 0:i32], [bb1: %9]\n\
  \  %9 = add i32 %8, 1:i32\n\
  \  %10 = icmp slt %9, %0\n\
  \  condbr %10, bb1, bb2\n\
   bb2:\n\
  \  %11 = mul i32 %1, 10:i32\n\
  \  %12 = add i32 %11, %2\n\
  \  %13 = mul i32 %12, 10:i32\n\
  \  %14 = add i32 %13, %3\n\
  \  %15 = mul i32 %14, 10:i32\n\
  \  %16 = add i32 %15, %4\n\
  \  %17 = mul i32 %16, 10:i32\n\
  \  %18 = add i32 %17, %5\n\
  \  %19 = fptosi %6 to i32\n\
  \  %20 = add i32 %18, %19\n\
  \  ret %20\n\
   }\n"

(* A loop carrying int, float and pointer phis, with constant entry
   rows: the move-table path for every class. *)
let phi_classes_ir =
  "global @a : f64[16] = zero\n\n\
   func f64 @main(%0: i32) {\n\
   bb0:\n\
  \  %1 = gaddr @a\n\
  \  br bb1\n\
   bb1:\n\
  \  %2 = phi i32 [bb0: 0:i32], [bb1: %6]\n\
  \  %3 = phi f64 [bb0: 0.5:f64], [bb1: %7]\n\
  \  %4 = phi ptr [bb0: %1], [bb1: %8]\n\
  \  store %3, %4\n\
  \  %6 = add i32 %2, 1:i32\n\
  \  %7 = fmul f64 %3, 1.5:f64\n\
  \  %8 = gep %4, 1:i32\n\
  \  %9 = icmp slt %6, %0\n\
  \  condbr %9, bb1, bb2\n\
   bb2:\n\
  \  %10 = load f64 %4\n\
  \  %11 = sitofp %2 to f64\n\
  \  %12 = fadd f64 %10, %11\n\
  \  ret %12\n\
   }\n"

(* A gaddr used in its own block (folded there) and in other blocks
   (so the op must stay), and one used only in a later block. *)
let gaddr_blocks_ir =
  "global @g : i32[4] = ints {10, 20, 30, 40}\n\
   global @k : i32[1] = ints {5}\n\n\
   func i32 @main(%0: i32) {\n\
   bb0:\n\
  \  %1 = gaddr @g\n\
  \  %2 = gep %1, 1:i32\n\
  \  store %0, %2\n\
  \  %3 = gaddr @k\n\
  \  %4 = icmp sgt %0, 2:i32\n\
  \  condbr %4, bb1, bb2\n\
   bb1:\n\
  \  %5 = load i32 %1\n\
  \  %6 = load i32 %3\n\
  \  %7 = add i32 %5, %6\n\
  \  store %7, %1\n\
  \  br bb2\n\
   bb2:\n\
  \  %8 = phi ptr [bb0: %1], [bb1: %2]\n\
  \  %9 = load i32 %8\n\
  \  ret %9\n\
   }\n"

(* Fusion counts of one default-tuning run of a textual module. *)
let fused_counts ir =
  Vm.Machine.reset_fusion_stats ();
  ignore
    (Vm.Machine.run ~engine:Vm.Machine.Threaded (Ir.Parser.parse_module ir)
       ~entry:"main" ~args:[ Ir.Eval.VInt 1L ]);
  let stats = Vm.Machine.fusion_stats () in
  Vm.Machine.reset_fusion_stats ();
  fun name -> Option.value ~default:0 (List.assoc_opt name stats)

let test_fused_shapes () =
  (* the modules exercise the shapes they are named for *)
  let c = fused_counts folded_gep_ir in
  Alcotest.(check (list int))
    "folded gep: gaddr:const, gep+load, gep+store" [ 3; 5; 7 ]
    [ c "gaddr:const"; c "gep+load"; c "gep+store" ];
  (* only the constant entry rows are move tables *)
  Alcotest.(check int) "phi conflicts: staged back edge" 1
    (fused_counts phi_conflict_ir "phi:moves");
  Alcotest.(check int) "phi classes: both rows" 2
    (fused_counts phi_classes_ir "phi:moves");
  diff_ir "folded gep" folded_gep_ir [ 0; 1; 5 ];
  diff_ir "phi conflicts" phi_conflict_ir [ 1; 2; 3; 7 ];
  diff_ir "phi classes" phi_classes_ir [ 1; 2; 9 ];
  diff_ir "gaddr across blocks" gaddr_blocks_ir [ 0; 3 ];
  List.iter
    (fun (what, ir, n) ->
      check_fault_parity_tunings what ~n (Ir.Parser.parse_module ir))
    [
      ("folded gep load past the stack", wild_gep_ir ~store:false, 5000);
      ("folded gep load at null", wild_gep_ir ~store:false, -1);
      ("folded gep store past the stack", wild_gep_ir ~store:true, 5000);
      ("folded gep store at null", wild_gep_ir ~store:true, -1);
      ("float cell read as int", confused_cell_ir, 2);
    ]

(* Guest inputs that used to escape [Machine.run] as host exceptions:
   a switch on a float register and the address of an unknown global
   are named faults, with the same message from every engine and
   tuning. *)
let test_named_guest_faults () =
  List.iter
    (fun (what, ir, msg) ->
      let m = Ir.Parser.parse_module ir in
      check_fault_parity_tunings what ~n:1 m;
      Alcotest.(check (option string))
        (what ^ ": message") (Some msg)
        (fault_msg ~engine:Vm.Machine.Reference ~n:1 m))
    [
      ( "float switch",
        "func i32 @main(%0: i32) {\n\
         bb0:\n\
        \  %1 = sitofp %0 to f64\n\
        \  switch %1, bb1 [1: bb1]\n\
         bb1:\n\
        \  ret 0:i32\n\
         }\n",
        "@main/bb0: expected an integer value" );
      ( "unknown global",
        "func i32 @main(%0: i32) {\n\
         bb0:\n\
        \  %1 = gaddr @nosuch\n\
        \  %2 = load i32 %1\n\
        \  ret %2\n\
         }\n",
        "@main/bb0: unknown global @nosuch" );
    ]

let test_diff_registry_workloads () =
  (* Full differential over real workloads from the registry, every
     dataset each. *)
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let compiled = W.Workload.compile w in
      let outs engine = W.Workload.run_all ~engine compiled w in
      List.iter2
        (fun (d, r) (_, t) ->
          check_outcomes_equal
            (Printf.sprintf "%s/%s" name d.W.Workload.label)
            r t)
        (outs Vm.Machine.Reference)
        (outs Vm.Machine.Threaded))
    [ "fft"; "sor"; "whetstone"; "adpcm" ]

let qcheck_diff_generated =
  let open QCheck in
  let gen =
    Gen.(
      quad (1 -- 4) (4 -- 24) bool (0 -- 30))
  in
  Test.make ~name:"random phase kernels: engines agree" ~count:10 (make gen)
    (fun (phases, width, float_ops, n) ->
      let prefix = "qx" in
      let src =
        W.Gen.phase_family ~prefix ~phases ~width ~float_ops
        ^ Printf.sprintf
            "int main(int n) {\n\
            \  %s_seed(n);\n\
            \  int r;\n\
            \  for (r = 0; r < 3; r = r + 1) { %s_run(); }\n\
            \  return n;\n\
             }\n"
            prefix prefix
      in
      let m = compile src in
      let r, t =
        diff_n ~n
          (Printf.sprintf "qcheck p=%d w=%d f=%b n=%d" phases width float_ops
             n)
          m
      in
      check_global_equal "qcheck" (prefix ^ "_a") width r t;
      check_global_equal "qcheck" (prefix ^ "_b") width r t;
      true)

(* ------------------------------------------------------------------ *)
(* Adversarial scalars: NaN, signed zero, Int64.min_int, renorm edges  *)
(* ------------------------------------------------------------------ *)

(* The typed register files specialize comparisons, arithmetic and
   casts per operand shape, so the edge cases where IEEE or two's
   complement semantics get interesting — NaN through every fcmp
   predicate, -0.0 vs 0.0, Int64.min_int wrap-around, float->int casts
   of NaN/infinity — must agree bit-for-bit across Reference, untuned
   Threaded and every tuned variant (all 8 knob combinations). *)

let adversarial_floats =
  [
    Float.nan;
    Float.infinity;
    Float.neg_infinity;
    -0.0;
    0.0;
    1.0;
    -1.0;
    0.5;
    -2.5;
    Float.epsilon;
    Float.max_float;
    -.Float.max_float;
    Float.min_float;
    9.3e18 (* above Int64.max_int: fptosi saturates/wraps, must agree *);
    -9.3e18;
    4503599627370497.0 (* 2^52 + 1: float->int->float not identity *);
  ]

let adversarial_ints =
  [
    Int64.min_int;
    Int64.max_int;
    Int64.add Int64.min_int 1L;
    Int64.sub Int64.max_int 1L;
    -1L;
    0L;
    1L;
    0x7FFF_FFFFL (* I32 sign boundary *);
    0x8000_0000L;
    0xFFFF_FFFFL;
    0x1_0000_0000L;
    -2147483648L;
    -2147483649L;
  ]

(* Every fcmp predicate on (x, y), float arithmetic (including IEEE
   division: inf/NaN, never a fault), and fptosi of values that may be
   NaN or out of int range.  The result packs all comparison bits so a
   single-predicate divergence flips the return value. *)
let adversarial_fcmp_src =
  "int main(double x, double y) {\n\
  \  int r = 0;\n\
  \  if (x < y)  { r = r + 1; }\n\
  \  if (x <= y) { r = r + 2; }\n\
  \  if (x > y)  { r = r + 4; }\n\
  \  if (x >= y) { r = r + 8; }\n\
  \  if (x == y) { r = r + 16; }\n\
  \  if (x != y) { r = r + 32; }\n\
  \  double s = x + y;\n\
  \  double d = x - y;\n\
  \  double p = x * y;\n\
  \  double q = x / y;\n\
  \  if (p == p) { r = r + 64; }\n\
  \  if (q != q) { r = r + 128; }\n\
  \  int ci = s;\n\
  \  int cd = d;\n\
  \  return r + ci - (ci / 1000) * 1000 + cd - (cd / 1000) * 1000;\n\
   }\n"

(* Renorm boundaries: arithmetic around Int64.min_int/max_int and the
   I32 boundaries, int->float->int round trips, signed comparisons on
   un-normalized inputs. *)
let adversarial_int_src =
  "int main(int n) {\n\
  \  int a = n + 1;\n\
  \  int b = n - 1;\n\
  \  int c = n * 3;\n\
  \  int d = n / 5;\n\
  \  int e = n - (n / 7) * 7;\n\
  \  double f = n;\n\
  \  int g = f;\n\
  \  int s = 0;\n\
  \  if (n < a)  { s = s + 1; }\n\
  \  if (n <= b) { s = s + 2; }\n\
  \  if (n > c)  { s = s + 4; }\n\
  \  if (n >= d) { s = s + 8; }\n\
  \  if (n == e) { s = s + 16; }\n\
  \  if (n != g) { s = s + 32; }\n\
  \  if (f < 0.0) { s = s + 64; }\n\
  \  return a + b + c + d + e + g + s;\n\
   }\n"

let adversarial_fcmp_mod = lazy (compile adversarial_fcmp_src)
let adversarial_int_mod = lazy (compile adversarial_int_src)

let test_adversarial_scalars () =
  let fm = Lazy.force adversarial_fcmp_mod in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          ignore
            (diff_all_tunings
               ~args:[ Ir.Eval.VFloat x; Ir.Eval.VFloat y ]
               (Printf.sprintf "fcmp x=%h y=%h" x y)
               fm))
        adversarial_floats)
    adversarial_floats;
  let im = Lazy.force adversarial_int_mod in
  List.iter
    (fun n ->
      ignore
        (diff_all_tunings ~args:[ Ir.Eval.VInt n ]
           (Printf.sprintf "intedge n=%Ld" n)
           im))
    adversarial_ints

(* [check_fault_parity_tunings] over arbitrary entry args, so the
   faulting input can be an adversarial float. *)
let fault_msg_args ?fuel ?max_depth ~engine ?tuning ~args m =
  try
    ignore
      (Vm.Machine.run ?fuel ?max_depth ~engine ?tuning m ~entry:"main" ~args);
    None
  with Vm.Machine.Fault msg -> Some msg

let check_fault_parity_tunings_args ?fuel ?max_depth what ~args m =
  let r = fault_msg_args ?fuel ?max_depth ~engine:Vm.Machine.Reference ~args m in
  Alcotest.(check bool) (what ^ ": faulted") true (r <> None);
  List.iter
    (fun tuning ->
      let t =
        fault_msg_args ?fuel ?max_depth ~engine:Vm.Machine.Threaded ~tuning
          ~args m
      in
      Alcotest.(check (option string))
        (what ^ " [" ^ tuning_tag tuning ^ "]")
        r t)
    all_tunings

let test_adversarial_fault_parity () =
  (* A NaN/huge float cast to an array index: NaN casts to 0 (in
     bounds, engines must agree on the value), while an out-of-range
     double must produce the same wild-index fault message under every
     tuning. *)
  let m =
    compile
      "int a[8];\n\
       int main(double x) { int i = x; a[2] = 9; return a[i] + 1; }\n"
  in
  ignore
    (diff_all_tunings ~args:[ Ir.Eval.VFloat Float.nan ] "nan index" m);
  check_fault_parity_tunings_args "huge index"
    ~args:[ Ir.Eval.VFloat 1e18 ]
    m;
  check_fault_parity_tunings_args "negative index"
    ~args:[ Ir.Eval.VFloat (-3.0) ]
    m;
  (* -inf casts to Int64.min_int, whose low 63 bits make the address
     wrap back in bounds: no fault, but every engine must wrap the same
     way. *)
  ignore
    (diff_all_tunings
       ~args:[ Ir.Eval.VFloat Float.neg_infinity ]
       "neg-inf index" m)

let qcheck_adversarial_floats =
  let open QCheck in
  let special = Gen.oneofl adversarial_floats in
  let gen = Gen.(pair (oneof [ special; float ]) (oneof [ special; float ])) in
  Test.make ~name:"adversarial float pairs: all tunings agree" ~count:40
    (make gen) (fun (x, y) ->
      ignore
        (diff_all_tunings
           ~args:[ Ir.Eval.VFloat x; Ir.Eval.VFloat y ]
           (Printf.sprintf "qfcmp x=%h y=%h" x y)
           (Lazy.force adversarial_fcmp_mod));
      true)

let qcheck_adversarial_ints =
  let open QCheck in
  let special = Gen.oneofl adversarial_ints in
  let gen = Gen.(oneof [ special; map Int64.of_int int ]) in
  Test.make ~name:"adversarial ints: all tunings agree" ~count:40 (make gen)
    (fun n ->
      ignore
        (diff_all_tunings ~args:[ Ir.Eval.VInt n ]
           (Printf.sprintf "qint n=%Ld" n)
           (Lazy.force adversarial_int_mod));
      true)


(* ------------------------------------------------------------------ *)
(* Call seam: pooled frames, slot-to-slot arguments, typed returns     *)
(* ------------------------------------------------------------------ *)

(* The typed engine runs each activation on a frame pooled per function
   and recursion depth, copies arguments slot to slot and returns
   results through typed lanes.  Every case runs under Reference and
   every knob combination. *)

let seam_n what m ns =
  List.iter
    (fun n -> ignore (diff_all_n ~n (Printf.sprintf "%s n=%d" what n) m))
    ns

let test_seam_recursion () =
  seam_n "self+mutual recursion"
    (compile
       "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }\n\
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }\n\
        int main(int n) { return fib(n) * 10 + is_even(n) + is_odd(n + 3) * 2; }\n")
    [ 0; 1; 2; 7; 12 ]

let test_seam_hot_loop_mixes () =
  (* A call per iteration, with int, long, float and double arguments
     and returns, including conversions at the caller. *)
  seam_n "hot-loop calls"
    (compile
       "int g[16];\n\
        int step(int i, int acc) { g[i - (i / 16) * 16] = acc; return acc * 3 + i - (acc / 7) * 5; }\n\
        double scale(double x, int k, float f) { return x * 0.5 + k + f; }\n\
        long wide(long a, int b) { return a * 1000003 + b; }\n\
        float half(float x) { return x / 2.0; }\n\
        int main(int n) {\n\
       \  int acc = 1; int i; double d = 0.0; long w = 7; float h = 1.0;\n\
       \  for (i = 0; i < n; i = i + 1) {\n\
       \    acc = step(i, acc); d = scale(d, i, h); w = wide(w, acc); h = half(h + 1.0);\n\
       \  }\n\
       \  int di = d;\n\
       \  return acc + di + h + w - (w / 1000) * 1000;\n\
        }\n")
    [ 0; 1; 5; 200 ]

(* Hand-written IR (MiniC has no pointers, and its frontend defines
   every path of a variable): [@rec] reads %2 (int) and %3 (address) in
   bb2 even when bb1, their only definition, did not run in this
   activation.  A fresh register file reads 0 there; a reused pooled
   frame must too.  [@main] calls [@rec] twice, so the second, shallower
   descent runs on frames the first one wrote.  [@base]/[@bump] pass and
   return addresses. *)
let stale_frame_ir =
  "global @g : i32[8] = zero\n\n\
   func ptr @base(%0: i32) {\n\
   bb0:\n\
  \  %1 = gaddr @g\n\
  \  %2 = gep %1, %0\n\
  \  ret %2\n\
   }\n\n\
   func i32 @bump(%0: ptr, %1: i32) {\n\
   bb0:\n\
  \  %2 = load i32 %0\n\
  \  %3 = add i32 %2, %1\n\
  \  store %3, %0\n\
  \  ret %3\n\
   }\n\n\
   func i32 @rec(%0: i32) {\n\
   bb0:\n\
  \  %1 = icmp sgt %0, 0:i32\n\
  \  condbr %1, bb1, bb2\n\
   bb1:\n\
  \  %2 = add i32 %0, 100:i32\n\
  \  %3 = call ptr @base(%0)\n\
  \  %4 = sub i32 %0, 1:i32\n\
  \  %5 = call i32 @rec(%4)\n\
  \  br bb2\n\
   bb2:\n\
  \  %6 = add i32 %2, 1:i32\n\
  \  %7 = icmp eq %3, 0:i32\n\
  \  %8 = zext %7 to i32\n\
  \  %9 = add i32 %6, %8\n\
  \  ret %9\n\
   }\n\n\
   func i32 @main(%0: i32) {\n\
   bb0:\n\
  \  %1 = add i32 %0, 3:i32\n\
  \  %2 = call i32 @rec(%1)\n\
  \  %3 = call i32 @rec(%0)\n\
  \  %4 = call ptr @base(2:i32)\n\
  \  %5 = call i32 @bump(%4, %3)\n\
  \  %6 = call i32 @bump(%4, %2)\n\
  \  %7 = mul i32 %6, 1000:i32\n\
  \  %8 = add i32 %7, %5\n\
  \  ret %8\n\
   }\n"

let test_seam_stale_frames () =
  let m = Ir.Parser.parse_module stale_frame_ir in
  List.iter
    (fun n ->
      let r = diff_all_n ~n (Printf.sprintf "stale frames n=%d" n) m in
      (* n = 0: [@rec 3] returns 104; [@rec 0] reads both undefined
         registers as zero and returns 0 + 1 + 1 (null address) = 2,
         where stale frames would give 104; bumps make g[2] 2 then
         106 *)
      if n = 0 then
        Alcotest.(check bool)
          "undefined registers read as zero" true
          (match r.Vm.Machine.ret with
          | Some v -> Ir.Eval.equal_value v (Ir.Eval.VInt 106_002L)
          | None -> false))
    [ 0; 1; 4 ]

let test_seam_callee_fault () =
  (* Faults raised inside a callee's frame, after earlier calls have
     populated the pool: the message names the callee's block under
     every combination. *)
  let m =
    compile
      "int a[4];\n\
       int deep(int n, int k) { int x = n * 3; if (n == 0) return a[k] + x; return deep(n - 1, k) + x; }\n\
       int div0(int n) { int y = n + 1; return y / (n - n); }\n\
       int main(int n) { int r = deep(3, 1); r = r + deep(4, n); return r + div0(n); }\n"
  in
  check_fault_parity_tunings "callee division by zero" ~n:1 m;
  check_fault_parity_tunings "callee bad address" ~n:5000 m

(* ------------------------------------------------------------------ *)
(* Call-depth limit                                                    *)
(* ------------------------------------------------------------------ *)

let down_src =
  "int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }\n\
   int main(int n) { return down(n); }\n"

let test_depth_limit_small () =
  (* main + down(n) .. down(0) is n + 2 activations. *)
  let m = compile down_src in
  ignore
    (diff_all_tunings ~max_depth:16
       ~args:[ Ir.Eval.VInt 14L ]
       "depth 16 of 16" m);
  check_fault_parity_tunings_args ~max_depth:16 "depth 17 of 16"
    ~args:[ Ir.Eval.VInt 15L ]
    m;
  Alcotest.(check (option string))
    "message names the callee and the limit"
    (Some "@down: call depth exceeds the limit of 16")
    (fault_msg_args ~max_depth:16 ~engine:Vm.Machine.Reference
       ~args:[ Ir.Eval.VInt 15L ]
       m);
  (* mutual recursion: the limit trips on whichever callee opens the
     activation past it *)
  let mm =
    compile
      "int ping(int n) { if (n == 0) return 0; return pong(n - 1) + 1; }\n\
       int pong(int n) { if (n == 0) return 0; return ping(n - 1) + 2; }\n\
       int main(int n) { return ping(n); }\n"
  in
  check_fault_parity_tunings_args ~max_depth:9 "mutual depth"
    ~args:[ Ir.Eval.VInt 20L ]
    mm;
  check_fault_parity_tunings_args ~max_depth:10 "mutual depth, other callee"
    ~args:[ Ir.Eval.VInt 20L ]
    mm;
  (* the entry call counts: max_depth 1 allows main alone *)
  ignore (diff_all_tunings ~max_depth:1 ~args:[ Ir.Eval.VInt 0L ] "entry only"
            (compile "int main(int n) { return n + 1; }"));
  Alcotest.check_raises "max_depth < 1 is rejected"
    (Invalid_argument "Machine.run: max_depth must be >= 1 (got 0)")
    (fun () ->
      ignore
        (Vm.Machine.run ~max_depth:0 m ~entry:"main"
           ~args:[ Ir.Eval.VInt 1L ]))

let test_depth_limit_default () =
  (* Guest recursion past the default limit is a named fault on every
     engine, not a host stack overflow. *)
  let m = compile down_src in
  let lim = Vm.Machine.default_max_depth in
  ignore
    (diff_all_tunings
       ~args:[ Ir.Eval.VInt (Int64.of_int (lim - 2)) ]
       "recursion at the default limit" m);
  check_fault_parity_tunings_args "recursion past the default limit"
    ~args:[ Ir.Eval.VInt (Int64.of_int (lim - 1)) ]
    m;
  Alcotest.(check (option string))
    "default limit message"
    (Some (Printf.sprintf "@down: call depth exceeds the limit of %d" lim))
    (fault_msg_args ~engine:Vm.Machine.Reference
       ~args:[ Ir.Eval.VInt 6_000_000L ]
       m)

(* ------------------------------------------------------------------ *)
(* Allocation bound: the threaded engine's hot path boxes nothing       *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per dynamic instruction on the default engine,
   first dataset, must stay under a fixed bound on an int- and
   memory-heavy (mcf), a call-heavy (sjeng) and a float- and
   store-heavy (lbm) workload.  Registers, memory cells and the call
   seam are all unboxed, so what remains is per-run setup and the
   boxed seams (intrinsics, CIs).  Gc.minor_words is an exact
   allocation counter, not a timing, so this is deterministic enough
   for CI. *)
let test_allocation_bound () =
  List.iter
    (fun name ->
      let bound = 0.1 in
      let w = Option.get (W.Registry.find name) in
      let compiled = W.Workload.compile w in
      let d = List.hd w.W.Workload.datasets in
      ignore (W.Workload.run ~engine:Vm.Machine.Threaded compiled d);
      let before = Gc.minor_words () in
      let o = W.Workload.run ~engine:Vm.Machine.Threaded compiled d in
      let after = Gc.minor_words () in
      let per_instr =
        (after -. before)
        /. Int64.to_float o.Vm.Machine.profile.Vm.Profile.executed_instrs
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f words/instr <= %.1f" name per_instr bound)
        true (per_instr <= bound))
    [ "429.mcf"; "458.sjeng"; "470.lbm" ]

(* ------------------------------------------------------------------ *)
(* Engine golden: full Experiment reports are engine-invariant         *)
(* ------------------------------------------------------------------ *)

(* Same projection idea as test_pipeline: the report minus measured
   wall clocks and the stage-record log. *)
type app_projection = {
  p_app : string;
  p_selection : string list;
  p_candidates : (string * float * float * int * float) list;
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
          ( signature c.Core.Asip_sp.scored,
            c.Core.Asip_sp.c2v_seconds,
            c.Core.Asip_sp.total_seconds,
            c.Core.Asip_sp.attempts,
            c.Core.Asip_sp.wasted_seconds ))
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

let golden_apps = [ "sor"; "fft" ]

let eval_apps ~spec db =
  List.map
    (fun n ->
      Core.Experiment.evaluate ~spec db (Option.get (W.Registry.find n)))
    golden_apps

let check_reports_identical what a b =
  List.iter2
    (fun x y ->
      let x = project x and y = project y in
      Alcotest.(check bool) (x.p_app ^ " " ^ what) true (x = y))
    a b

let with_engine engine spec = Core.Spec.with_vm_engine engine spec

let fault_seed =
  match Sys.getenv_opt "JITISE_FAULT_SEED" with
  | Some s -> int_of_string s
  | None -> 20110516

let test_golden_engine_serial () =
  let db = Pp.Database.create () in
  let threaded =
    eval_apps ~spec:(with_engine Vm.Machine.Threaded Core.Spec.default) db
  in
  let reference =
    eval_apps ~spec:(with_engine Vm.Machine.Reference Core.Spec.default) db
  in
  check_reports_identical "report engine-invariant (serial)" threaded
    reference

let test_golden_engine_jobs4 () =
  let db = Pp.Database.create () in
  let spec = Core.Spec.with_jobs 4 Core.Spec.default in
  let threaded = eval_apps ~spec:(with_engine Vm.Machine.Threaded spec) db in
  let reference = eval_apps ~spec:(with_engine Vm.Machine.Reference spec) db in
  check_reports_identical "report engine-invariant (jobs:4)" threaded
    reference

let test_golden_engine_faults () =
  let db = Pp.Database.create () in
  let spec =
    Core.Spec.default
    |> Core.Spec.with_faults (Cad.Faults.defaults ~seed:fault_seed)
    |> Core.Spec.with_retry (U.Retry.with_max_attempts 3 U.Retry.default)
  in
  let threaded = eval_apps ~spec:(with_engine Vm.Machine.Threaded spec) db in
  let reference = eval_apps ~spec:(with_engine Vm.Machine.Reference spec) db in
  check_reports_identical "report engine-invariant (faults on)" threaded
    reference

let test_golden_engine_digests () =
  (* Stage digests exclude the engine knob, so a store warmed under one
     engine serves the other: re-evaluating under Reference against a
     Threaded-warmed store recomputes NO profile stage. *)
  let db = Pp.Database.create () in
  let store = U.Artifact.create () in
  let warm_spec =
    Core.Spec.default
    |> Core.Spec.with_stage_cache store
    |> with_engine Vm.Machine.Threaded
  in
  let warm = eval_apps ~spec:warm_spec db in
  let cold_spec =
    Core.Spec.default
    |> Core.Spec.with_stage_cache store
    |> with_engine Vm.Machine.Reference
  in
  let again = eval_apps ~spec:cold_spec db in
  check_reports_identical "warm-store report engine-invariant" warm again;
  List.iter
    (fun r ->
      let records = r.Core.Experiment.report.Core.Asip_sp.stage_records in
      List.iter
        (fun (s : Core.Pipeline.summary) ->
          if s.Core.Pipeline.sum_stage = "profile" then
            Alcotest.(check int)
              ((project r).p_app
             ^ ": profile served from the other engine's store")
              0 s.Core.Pipeline.sum_computed)
        (Core.Pipeline.summarize records))
    again

let () =
  Alcotest.run "vm"
    [
      ( "memory",
        [
          Alcotest.test_case "alloc/store/load" `Quick test_memory_alloc_store_load;
          Alcotest.test_case "bad address" `Quick test_memory_bad_address;
          Alcotest.test_case "frames" `Quick test_memory_frames;
          Alcotest.test_case "globals" `Quick test_memory_globals;
          Alcotest.test_case "limit" `Quick test_memory_limit;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "merge" `Quick test_profile_merge;
          Alcotest.test_case "block costs" `Quick test_profile_block_costs_ordering;
        ] );
      ( "machine",
        [
          Alcotest.test_case "phi swap" `Quick test_machine_phi_swap;
          Alcotest.test_case "faults" `Quick test_machine_faults;
          Alcotest.test_case "missing entry" `Quick test_machine_missing_entry;
          Alcotest.test_case "fuel" `Quick test_machine_fuel;
          Alcotest.test_case "clocks" `Quick test_machine_clocks;
          Alcotest.test_case "hot loop amortizes" `Quick test_machine_hot_loop_amortizes;
          Alcotest.test_case "deterministic" `Quick test_machine_deterministic;
          Alcotest.test_case "ci call" `Quick test_machine_ci_call;
        ] );
      ( "jit model",
        [
          Alcotest.test_case "translation" `Quick test_jit_model_translation;
          Alcotest.test_case "block cycles" `Quick test_jit_model_block_cycles;
          Alcotest.test_case "dispatch accounting" `Quick
            test_dispatch_accounting;
          Alcotest.test_case "clock" `Quick test_seconds_of_cycles;
        ] );
      ( "engine differential",
        [
          Alcotest.test_case "mode family" `Quick test_diff_mode_family;
          Alcotest.test_case "phase family" `Quick test_diff_phase_family;
          Alcotest.test_case "intrinsics" `Quick test_diff_intrinsics;
          Alcotest.test_case "recursion" `Quick test_diff_recursion;
          Alcotest.test_case "switch first-match" `Quick test_diff_switch;
          Alcotest.test_case "ci call" `Quick test_diff_ci_call;
          Alcotest.test_case "fault parity" `Quick test_diff_fault_parity;
          Alcotest.test_case "globals past the memory cap" `Quick
            test_diff_globals_past_cap;
          Alcotest.test_case "registry workloads" `Slow
            test_diff_registry_workloads;
          QCheck_alcotest.to_alcotest qcheck_diff_generated;
        ] );
      ( "tuning differential",
        [
          Alcotest.test_case "self loop" `Quick test_tuning_self_loop;
          Alcotest.test_case "block cycle" `Quick test_tuning_block_cycle;
          Alcotest.test_case "switch heavy" `Quick test_tuning_switch_heavy;
          Alcotest.test_case "fuel mid-chain" `Quick
            test_tuning_fuel_mid_chain;
          Alcotest.test_case "ci call" `Quick test_tuning_ci_call;
          Alcotest.test_case "load-sink faults" `Quick
            test_tuning_load_sink_faults;
          Alcotest.test_case "fusion stats" `Quick test_fusion_stats;
          Alcotest.test_case "fused shapes" `Quick test_fused_shapes;
          Alcotest.test_case "named guest faults" `Quick
            test_named_guest_faults;
        ] );
      ( "adversarial scalars",
        [
          Alcotest.test_case "fcmp/cast/renorm sweep" `Quick
            test_adversarial_scalars;
          Alcotest.test_case "fault parity" `Quick
            test_adversarial_fault_parity;
          QCheck_alcotest.to_alcotest qcheck_adversarial_floats;
          QCheck_alcotest.to_alcotest qcheck_adversarial_ints;
          Alcotest.test_case "allocation bound" `Slow test_allocation_bound;
        ] );
      ( "call seam",
        [
          Alcotest.test_case "self and mutual recursion" `Quick
            test_seam_recursion;
          Alcotest.test_case "hot-loop calls, type mixes" `Quick
            test_seam_hot_loop_mixes;
          Alcotest.test_case "stale pooled frames" `Quick
            test_seam_stale_frames;
          Alcotest.test_case "callee faults" `Quick test_seam_callee_fault;
          Alcotest.test_case "depth limit" `Quick test_depth_limit_small;
          Alcotest.test_case "default depth limit" `Slow
            test_depth_limit_default;
        ] );
      ( "engine golden",
        [
          Alcotest.test_case "serial" `Slow test_golden_engine_serial;
          Alcotest.test_case "jobs:4" `Slow test_golden_engine_jobs4;
          Alcotest.test_case "faults on" `Slow test_golden_engine_faults;
          Alcotest.test_case "digest invariance" `Slow
            test_golden_engine_digests;
        ] );
    ]
