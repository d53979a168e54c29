(* The persistence layer of the artifact store: Binio wire format,
   domain codecs, the on-disk backend, and the store front-end over it.

   Three law families, per the redesign's acceptance bar:
   - every codec round-trips (qcheck for the combinators, encode/
     decode/encode stability for the domain codecs over real pipeline
     values);
   - the disk backend is crash-safe and first-put-wins, and ANY defect
     in a stored file — truncation, bad magic, bad version, a flipped
     payload byte — reads as a miss, never an error;
   - a fresh store front-end over a warm root serves every persistent
     key (the warm-restart contract), with correct Local/Shared
     attribution carried through the envelope's builder field. *)

module Ir = Jitise_ir
module F = Jitise_frontend
module Vm = Jitise_vm
module W = Jitise_workloads
module Ise = Jitise_ise
module Pp = Jitise_pivpav
module Hw = Jitise_hwgen
module Cad = Jitise_cad
module Core = Jitise_core
module U = Jitise_util
module B = U.Binio

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let tmp_root () =
  let path = Filename.temp_file "jitise-store-test" "" in
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

let rt codec v = B.decode codec (B.encode codec v)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* The universal codec law usable for values containing hashtables or
   arrays (where [=] is unreliable): encoding is a fixpoint of one
   decode/encode cycle. *)
let stable name codec v =
  let bytes = B.encode codec v in
  Alcotest.(check string)
    (name ^ " encode/decode/encode stable")
    bytes
    (B.encode codec (B.decode codec bytes))

let raises_corrupt name f =
  match f () with
  | exception B.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: expected Binio.Corrupt" name

(* ------------------------------------------------------------------ *)
(* Binio: qcheck round-trip laws for every combinator                  *)
(* ------------------------------------------------------------------ *)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"binio int round trip" ~count:1000 QCheck.int (fun v ->
      rt B.int v = v)

let prop_int64_roundtrip =
  QCheck.Test.make ~name:"binio int64 round trip" ~count:1000 QCheck.int64
    (fun v -> rt B.int64 v = v)

(* Bit-level comparison so NaN payloads and signed zeros count too. *)
let prop_float_roundtrip =
  QCheck.Test.make ~name:"binio float round trip" ~count:1000 QCheck.float
    (fun v -> Int64.bits_of_float (rt B.float v) = Int64.bits_of_float v)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"binio string round trip" ~count:1000
    QCheck.(string_gen Gen.char)
    (fun v -> rt B.string v = v)

let prop_bool_roundtrip =
  QCheck.Test.make ~name:"binio bool round trip" ~count:20 QCheck.bool (fun v ->
      rt B.bool v = v)

let prop_option_roundtrip =
  QCheck.Test.make ~name:"binio option round trip" ~count:500
    QCheck.(option int)
    (fun v -> rt (B.option B.int) v = v)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"binio list round trip" ~count:500
    QCheck.(list (pair string int))
    (fun v -> rt (B.list (B.pair B.string B.int)) v = v)

let prop_nested_roundtrip =
  QCheck.Test.make ~name:"binio nested round trip" ~count:300
    QCheck.(list (triple (option string) (list int) bool))
    (fun v ->
      let c = B.list (B.triple (B.option B.string) (B.list B.int) B.bool) in
      rt c v = v)

let prop_varint_compact =
  QCheck.Test.make ~name:"binio small ints are one byte" ~count:200
    QCheck.(int_range (-64) 63)
    (fun v -> String.length (B.encode B.int v) = 1)

let test_int_boundaries () =
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (rt B.int v))
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int ];
  List.iter
    (fun v ->
      Alcotest.(check int64) (Int64.to_string v) v (rt B.int64 v))
    [ 0L; Int64.max_int; Int64.min_int; -1L ];
  (* Native zigzag and varints write the 64-bit wire format — zigzag,
     then unsigned LEB128 — around the last varint length changes
     (|v| = 2^48: eight bytes, 2^55: nine) and at the ends of the native
     range. *)
  let reference v =
    let b = Buffer.create 10 in
    let rec go z =
      let low = Int64.to_int (Int64.logand z 0x7fL) in
      let z = Int64.shift_right_logical z 7 in
      if z = 0L then Buffer.add_char b (Char.chr low)
      else (
        Buffer.add_char b (Char.chr (low lor 0x80));
        go z)
    in
    let v = Int64.of_int v in
    go (Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63));
    Buffer.contents b
  in
  List.iter
    (fun v ->
      Alcotest.(check string) ("wire " ^ string_of_int v) (hex (reference v))
        (hex (B.encode B.int v));
      Alcotest.(check int) ("round trip " ^ string_of_int v) v (rt B.int v))
    (List.concat_map
       (fun p -> [ p - 1; p; p + 1; -p - 1; -p; -p + 1 ])
       [ 1 lsl 48; 1 lsl 55; 1 lsl 61 ]
    @ [ max_int - 1; max_int; min_int; min_int + 1 ])

let test_enum_roundtrip () =
  let c = B.enum ~name:"abc" [ `A; `B; `C ] in
  List.iter (fun v -> assert (rt c v = v)) [ `A; `B; `C ];
  (* Out-of-range index is corrupt, not a crash. *)
  raises_corrupt "enum index 3" (fun () ->
      B.decode c (B.encode B.int 3));
  (* A value outside the enumeration cannot be encoded (a programming
     error, not a data defect: Invalid_argument, not Corrupt). *)
  match B.encode c `D with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoding an unknown enum value must raise"

let test_corrupt_inputs () =
  raises_corrupt "trailing bytes" (fun () ->
      B.decode B.int (B.encode B.int 7 ^ "x"));
  raises_corrupt "truncated string" (fun () ->
      let s = B.encode B.string "hello world" in
      B.decode B.string (String.sub s 0 (String.length s - 3)));
  raises_corrupt "truncated int64" (fun () -> B.decode B.int64 "abc");
  raises_corrupt "bad bool tag" (fun () -> B.decode B.bool "\x07");
  raises_corrupt "bad option tag" (fun () ->
      B.decode (B.option B.int) "\x09");
  raises_corrupt "length past end" (fun () ->
      (* a length prefix claiming more bytes than remain *)
      B.decode B.string (B.encode B.int 1000));
  raises_corrupt "unterminated varint" (fun () ->
      B.decode B.int "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff");
  raises_corrupt "ten-byte varint" (fun () ->
      (* 2^63 does not fit a native int: its ninth byte continues. *)
      B.decode B.int "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01");
  raises_corrupt "length with the top bit set" (fun () ->
      B.decode B.string "\xff\xff\xff\xff\xff\xff\xff\xff\x7f");
  Alcotest.(check (option int)) "decode_opt maps Corrupt to None" None
    (B.decode_opt B.int "\xff");
  Alcotest.(check (option int)) "decode_opt passes valid input" (Some 42)
    (B.decode_opt B.int (B.encode B.int 42))

(* ------------------------------------------------------------------ *)
(* Domain codecs over real pipeline values                             *)
(* ------------------------------------------------------------------ *)

let db = Pp.Database.create ()
let sor = Option.get (W.Registry.find "sor")
let compiled = lazy (W.Workload.compile sor)

let profiled =
  lazy
    (let r = Lazy.force compiled in
     (r.F.Compiler.modul, W.Workload.run r { label = "t"; n = 12 }))

let report =
  lazy
    (let m, out = Lazy.force profiled in
     Core.Asip_sp.run_spec db m out.Vm.Machine.profile
       ~total_cycles:out.Vm.Machine.native_cycles)

let flow_run =
  lazy
    (let m, _ = Lazy.force profiled in
     let r = Lazy.force report in
     let s = List.hd r.Core.Asip_sp.selection in
     let c = s.Ise.Select.candidate in
     let f = Option.get (Ir.Irmod.find_func m c.Ise.Candidate.func) in
     let dfg = Ir.Dfg.of_block f (Ir.Func.block f c.Ise.Candidate.block) in
     let p = Hw.Project.create db dfg c in
     (p, Cad.Flow.implement db p))

let test_codec_compiler_result () =
  let r = Lazy.force compiled in
  stable "compiler_result" Core.Codecs.compiler_result r;
  let r' = rt Core.Codecs.compiler_result r in
  (* The module survives... *)
  Alcotest.(check string) "module text survives"
    (Ir.Printer.module_to_string r.F.Compiler.modul)
    (Ir.Printer.module_to_string r'.F.Compiler.modul);
  (* ...and the stats (including the measured compile time, which is
     part of the artifact, not of the record log) survive exactly. *)
  Alcotest.(check bool) "stats survive" true
    (r.F.Compiler.stats = r'.F.Compiler.stats)

let test_codec_profile_outcomes () =
  let r = Lazy.force compiled in
  let outcomes = W.Workload.run_all r sor in
  stable "profile_outcomes" Core.Codecs.profile_outcomes outcomes;
  let outcomes' = rt Core.Codecs.profile_outcomes outcomes in
  List.iter2
    (fun (d, (o : Vm.Machine.outcome)) (d', (o' : Vm.Machine.outcome)) ->
      Alcotest.(check string) "dataset label" d.W.Workload.label
        d'.W.Workload.label;
      Alcotest.(check (float 0.0)) "native cycles" o.Vm.Machine.native_cycles
        o'.Vm.Machine.native_cycles;
      Alcotest.(check (float 0.0)) "vm cycles" o.Vm.Machine.vm_cycles
        o'.Vm.Machine.vm_cycles;
      Alcotest.(check bool) "profile entries" true
        (Vm.Profile.to_list o.Vm.Machine.profile
        = Vm.Profile.to_list o'.Vm.Machine.profile);
      Alcotest.(check int64) "executed instrs"
        o.Vm.Machine.profile.Vm.Profile.executed_instrs
        o'.Vm.Machine.profile.Vm.Profile.executed_instrs)
    outcomes outcomes'

(* The IR module codec is exact: [decode (encode m)] is [m] itself —
   printed text, every instruction id (void ones included, which the
   text format renumbers), block names and [next_reg] — and the module
   digest taken over the encoding survives the round trip.  [compare]
   rather than [=] so NaN constants compare equal to themselves. *)
let check_irmod_exact what (m : Ir.Irmod.t) =
  let m' = rt Core.Codecs.irmod m in
  Alcotest.(check string) (what ^ ": printed text")
    (Ir.Printer.module_to_string m) (Ir.Printer.module_to_string m');
  let ids (m : Ir.Irmod.t) =
    List.concat_map
      (fun (f : Ir.Func.t) ->
        f.Ir.Func.next_reg
        :: List.concat_map
             (fun (b : Ir.Block.t) ->
               List.map (fun (i : Ir.Instr.t) -> i.Ir.Instr.id)
                 b.Ir.Block.instrs)
             (Array.to_list f.Ir.Func.blocks))
      m.Ir.Irmod.funcs
  in
  Alcotest.(check (list int))
    (what ^ ": instruction ids and next_reg")
    (ids m) (ids m');
  Alcotest.(check bool) (what ^ ": structurally identical") true
    (compare m m' = 0);
  Alcotest.(check string) (what ^ ": digest survives")
    (U.Digest.to_hex (Core.Pipeline.digest_module m))
    (U.Digest.to_hex (Core.Pipeline.digest_module m'))

let test_codec_irmod_registry () =
  List.iter
    (fun (w : W.Workload.t) ->
      check_irmod_exact w.W.Workload.name
        (W.Workload.compile w).F.Compiler.modul)
    (W.Registry.all @ W.Registry.phased)

(* A binary-adapted module: the selection's candidates are rewritten to
   [ci] calls on a copy of the module. *)
let test_codec_irmod_adapted () =
  let m, _ = Lazy.force profiled in
  let adapted =
    Core.Adapt.apply m (Lazy.force report).Core.Asip_sp.selection
  in
  let is_ci (i : Ir.Instr.t) =
    match i.Ir.Instr.kind with Ir.Instr.Ci_call _ -> true | _ -> false
  in
  let has_ci =
    List.exists
      (fun (f : Ir.Func.t) ->
        Array.exists
          (fun (b : Ir.Block.t) -> List.exists is_ci b.Ir.Block.instrs)
          f.Ir.Func.blocks)
      adapted.Core.Adapt.modul.Ir.Irmod.funcs
  in
  Alcotest.(check bool) "the adapted module calls custom instructions" true
    has_ci;
  check_irmod_exact "adapted sor" adapted.Core.Adapt.modul

(* Constructs the frontend never emits: [switch], phis, a void call
   whose id is not the next free register, and float images and
   constants holding NaN, -0.0 and both infinities. *)
let test_codec_irmod_constructs () =
  let open Ir.Instr in
  let i id ty kind = { id; ty; kind } in
  let f =
    Ir.Func.create ~name:"f" ~params:[ (0, Ir.Ty.I32) ] ~ret_ty:Ir.Ty.F64
  in
  let fconst v = Const (Cfloat (v, Ir.Ty.F64)) in
  let block label name instrs term =
    { (Ir.Block.create ~label ~name ~term) with Ir.Block.instrs }
  in
  f.Ir.Func.blocks <-
    [|
      block 0 "entry"
        [ i 1 Ir.Ty.I64 (Cast (Sext, Reg 0)) ]
        (Switch (Reg 0, 3, [ (7L, 1); (Int64.min_int, 2); (-1L, 1) ]));
      block 1 "one"
        [ i 40 Ir.Ty.Void (Call ("print", [ Reg 1 ])) ]
        (Br 3);
      block 2 "two"
        [ i 2 Ir.Ty.F64 (Binop (Fmul, fconst Float.nan, fconst (-0.0))) ]
        (Br 3);
      block 3 "join"
        [
          i 3 Ir.Ty.F64
            (Phi
               [
                 (0, fconst Float.infinity);
                 (1, fconst Float.neg_infinity);
                 (2, Reg 2);
               ]);
          i 41 Ir.Ty.Void (Store (Reg 3, Const (Cint (5L, Ir.Ty.Ptr))));
        ]
        (Ret (Some (Reg 3)));
    |];
  f.Ir.Func.next_reg <- 42;
  let m = Ir.Irmod.create ~name:"constructs" in
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "fs";
      gty = Ir.Ty.F64;
      gsize = 4;
      ginit =
        Ir.Irmod.Floats
          [| Float.nan; -0.0; Float.infinity; Float.neg_infinity |];
    };
  Ir.Irmod.add_global m
    {
      Ir.Irmod.gname = "is";
      gty = Ir.Ty.I64;
      gsize = 2;
      ginit = Ir.Irmod.Ints [| Int64.max_int; Int64.min_int |];
    };
  Ir.Irmod.add_global m
    { Ir.Irmod.gname = "z"; gty = Ir.Ty.I8; gsize = 3; ginit = Ir.Irmod.Zero };
  Ir.Irmod.add_func m f;
  check_irmod_exact "constructs" m;
  let m' = rt Core.Codecs.irmod m in
  let bits = function
    | Ir.Irmod.Floats a -> Array.map Int64.bits_of_float a
    | _ -> [||]
  in
  Alcotest.(check bool) "float image bits survive" true
    (bits (List.hd m.Ir.Irmod.globals).Ir.Irmod.ginit
    = bits (List.hd m'.Ir.Irmod.globals).Ir.Irmod.ginit)

(* The wire layout of a one-instruction module, segment by segment:
   [func i32 @f(%0: i32) { bb0: %1 = add i32 %0, 1:i32; ret %1 }].
   A change here is a format change and must bump the store version. *)
let tiny_module_segments =
  [
    ("mname", "016d");
    ("globals", "00");
    ("funcs", "01");
    ("fname", "0166");
    ("params", "010003");
    ("ret_ty", "03");
    ("blocks", "01");
    ("label", "00");
    ("bname", "05656e747279");
    ("instrs", "01");
    ("id/ty", "0203");
    ("kind", "00");
    ("binop", "00");
    ("lhs", "0000");
    ("rhs", "01010000000000000003");
    ("term", "010002");
    ("next_reg", "04");
  ]

let tiny_module_hex ?(patch = []) () =
  String.concat ""
    (List.map
       (fun (seg, h) -> Option.value ~default:h (List.assoc_opt seg patch))
       tiny_module_segments)

let test_codec_irmod_golden_and_corrupt () =
  let decode h = B.decode_opt Core.Codecs.irmod (unhex h) in
  (match decode (tiny_module_hex ()) with
  | None -> Alcotest.fail "the golden module must decode"
  | Some m ->
      Alcotest.(check string) "golden bytes re-encode" (tiny_module_hex ())
        (hex (B.encode Core.Codecs.irmod m));
      Alcotest.(check string) "golden module text"
        "module m\n\n\
         func i32 @f(%0: i32) {\n\
         bb0: ; entry\n\
        \  %1 = add i32 %0, 1:i32\n\
        \  ret %1\n\
         }\n"
        (Ir.Printer.module_to_string m));
  let rejects what h =
    Alcotest.(check bool) (what ^ " decodes to None") true (decode h = None)
  in
  let patched seg h = tiny_module_hex ~patch:[ (seg, h) ] () in
  rejects "an unknown kind tag" (patched "kind" "63");
  (* label 1 on the block at index 0 *)
  rejects "a label/index mismatch" (patched "label" "02");
  rejects "trailing bytes" (tiny_module_hex () ^ "00");
  rejects "an unknown type tag" (patched "ret_ty" "09");
  rejects "an unknown operand tag" (patched "lhs" "0300");
  rejects "a truncated module"
    (let h = tiny_module_hex () in
     String.sub h 0 (String.length h - 2))

(* Store compatibility of the memory codec: a memory holding an int, a
   negative int, a float, a NaN, an address and Int64.min_int encodes
   to exactly these bytes, the format the boxed-cell memory wrote, so
   stores written before cells were unboxed stay readable.  The second
   blob holds a float in the reserved cell 0 (only a decoded memory can
   hold one there): it decodes, re-encodes byte for byte, and every
   cell reads back through [Memory.load]. *)
let golden_memory =
  "108080801008000000000000000000002a0000000000000000f9ffffffffffffff010000\
   000000000c4001010000000000f87f020600000000000000008000000000000000000001\
   016702"

let golden_memory_cell0 =
  "108080801008010000000000000080002a0000000000000000f9ffffffffffffff010000\
   000000000c4001010000000000f87f020600000000000000008000000000000000000001\
   016702"

let test_codec_memory_golden () =
  let m = Vm.Memory.create () in
  let base = Vm.Memory.alloc m 7 in
  let values =
    [
      Ir.Eval.VInt 42L;
      Ir.Eval.VInt (-7L);
      Ir.Eval.VFloat 3.5;
      Ir.Eval.VFloat Float.nan;
      Ir.Eval.VPtr 3;
      Ir.Eval.VInt Int64.min_int;
    ]
  in
  List.iteri (fun i v -> Vm.Memory.store m (base + i) v) values;
  Hashtbl.replace m.Vm.Memory.globals "g" base;
  Alcotest.(check string) "encoding" golden_memory
    (hex (B.encode Core.Codecs.memory m));
  let bits = function
    | Ir.Eval.VFloat f -> Ir.Eval.VInt (Int64.bits_of_float f)
    | v -> v
  in
  List.iter
    (fun golden ->
      let m' = B.decode Core.Codecs.memory (unhex golden) in
      Alcotest.(check string) "re-encoding" golden
        (hex (B.encode Core.Codecs.memory m'));
      List.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "cell %d" (base + i))
            true
            (bits (Vm.Memory.load m' (base + i)) = bits v))
        (values @ [ Ir.Eval.VInt 0L ]);
      Alcotest.(check int) "global" base (Vm.Memory.global_base m' "g"))
    [ golden_memory; golden_memory_cell0 ]

let test_codec_analyses () =
  let m, out = Lazy.force profiled in
  let out2 = W.Workload.run (Lazy.force compiled) { label = "t2"; n = 8 } in
  let cov =
    Jitise_analysis.Coverage.classify m
      [ out.Vm.Machine.profile; out2.Vm.Machine.profile ]
  in
  stable "coverage" Core.Codecs.coverage cov;
  let k = Jitise_analysis.Kernel.compute m out.Vm.Machine.profile in
  stable "kernel" Core.Codecs.kernel k

let test_codec_search_artifacts () =
  let m, out = Lazy.force profiled in
  let pruning =
    Ise.Prune.apply Ise.Prune.at_50p_s3l m out.Vm.Machine.profile
  in
  stable "prune_selection" Core.Codecs.prune_selection pruning;
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
  stable "candidates" Core.Codecs.candidates cands;
  let r = Lazy.force report in
  stable "scored_list" Core.Codecs.scored_list r.Core.Asip_sp.selection

let test_codec_hw_and_cad () =
  let p, run = Lazy.force flow_run in
  stable "project" Core.Codecs.project p;
  stable "flow_run" Core.Codecs.flow_run run;
  (* The bitstream checksum is carried verbatim: a well-formed one stays
     well-formed, and a corrupted one must NOT be healed by the codec. *)
  let bs = run.Cad.Flow.bitstream in
  Alcotest.(check bool) "round-tripped bitstream well-formed" true
    (Cad.Bitstream.well_formed (rt Core.Codecs.bitstream bs));
  let bad = { bs with Cad.Bitstream.checksum = bs.Cad.Bitstream.checksum + 1 } in
  Alcotest.(check bool) "corrupt bitstream stays corrupt" false
    (Cad.Bitstream.well_formed (rt Core.Codecs.bitstream bad))

(* ------------------------------------------------------------------ *)
(* Store_disk: envelope, crash-safety, defect tolerance                *)
(* ------------------------------------------------------------------ *)

let digest_hex s = U.Digest.to_hex (U.Digest.of_string s)

let test_disk_put_get () =
  with_root (fun root ->
      let digest = digest_hex "a" in
      Alcotest.(check (option (pair string string)))
        "absent entry" None
        (U.Store_disk.get ~root ~stage:"compile" ~digest);
      U.Store_disk.put ~root ~stage:"compile" ~digest ~builder:"sor"
        ~payload:"PAYLOAD\x00\xff bytes" ();
      Alcotest.(check (option (pair string string)))
        "round trip"
        (Some ("sor", "PAYLOAD\x00\xff bytes"))
        (U.Store_disk.get ~root ~stage:"compile" ~digest))

let test_disk_first_put_wins () =
  with_root (fun root ->
      let digest = digest_hex "b" in
      U.Store_disk.put ~root ~stage:"s" ~digest ~builder:"first" ~payload:"one" ();
      U.Store_disk.put ~root ~stage:"s" ~digest ~builder:"second"
        ~payload:"two" ();
      Alcotest.(check (option (pair string string)))
        "first write wins"
        (Some ("first", "one"))
        (U.Store_disk.get ~root ~stage:"s" ~digest))

let test_disk_defects_read_as_misses () =
  with_root (fun root ->
      let stage = "s" in
      let write_entry name payload =
        let digest = digest_hex name in
        U.Store_disk.put ~root ~stage ~digest ~builder:"app" ~payload ();
        (digest, U.Store_disk.entry_path ~root ~stage ~digest)
      in
      let mutate path f =
        let s = In_channel.with_open_bin path In_channel.input_all in
        let b = Bytes.of_string s in
        f b;
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc b)
      in
      let check_miss what digest =
        Alcotest.(check (option (pair string string)))
          (what ^ " reads as a miss") None
          (U.Store_disk.get ~root ~stage ~digest)
      in
      (* Truncation: a crash mid-write would leave a short file only if
         rename were not atomic; readers must still survive one. *)
      let d, path = write_entry "trunc" "some payload" in
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len / 2);
      check_miss "truncated entry" d;
      (* Empty file. *)
      let d, path = write_entry "empty" "x" in
      Unix.truncate path 0;
      check_miss "empty entry" d;
      (* Bad magic. *)
      let d, path = write_entry "magic" "payload" in
      mutate path (fun b -> Bytes.set b 0 'X');
      check_miss "bad magic" d;
      (* Unknown format version. *)
      let d, path = write_entry "version" "payload" in
      mutate path (fun b -> Bytes.set b 4 '\xf7');
      check_miss "bad version" d;
      (* A flipped payload byte fails the checksum. *)
      let d, path = write_entry "flip" "payload-payload-payload" in
      mutate path (fun b ->
          let i = Bytes.length b - 3 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41)));
      check_miss "flipped payload byte" d;
      (* Trailing garbage after the envelope. *)
      let d, path = write_entry "trail" "payload" in
      let s = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (s ^ "garbage"));
      check_miss "trailing bytes" d;
      (* And an intact neighbour is still served. *)
      let d, _ = write_entry "intact" "good" in
      Alcotest.(check (option (pair string string)))
        "intact entry unaffected"
        (Some ("app", "good"))
        (U.Store_disk.get ~root ~stage ~digest:d))

let test_disk_orphan_sweep () =
  with_root (fun root ->
      let digest = digest_hex "kept" in
      U.Store_disk.put ~root ~stage:"s" ~digest ~builder:"app" ~payload:"v" ();
      let dir = Filename.concat root "s" in
      let orphan name = Out_channel.with_open_bin
          (Filename.concat dir name)
          (fun oc -> Out_channel.output_string oc "partial")
      in
      orphan (digest ^ ".tmp.12345.0");
      orphan (digest ^ ".tmp.12345.1");
      (* Opening the backend sweeps the orphans and keeps real entries. *)
      let b = U.Store_disk.backend ~root () in
      Alcotest.(check int) "no tmp files survive" 0
        (Array.length
           (Array.of_list
              (List.filter
                 (fun n ->
                   String.length n > String.length digest)
                 (Array.to_list (Sys.readdir dir)))));
      Alcotest.(check (option (pair string string)))
        "the committed entry survives the sweep"
        (Some ("app", "v"))
        (b.U.Artifact.backend_get ~stage:"s" ~digest);
      Alcotest.(check int) "nothing left for a second sweep" 0
        (U.Store_disk.sweep_orphans ~root))

let test_disk_concurrent_first_put_wins () =
  with_root (fun root ->
      let digest = digest_hex "race" in
      (* Two writers race the same (stage, digest) with different
         payloads, many rounds: exactly one valid envelope must land and
         no temp residue may survive. *)
      let barrier = Atomic.make 0 in
      let writer payload () =
        Atomic.incr barrier;
        while Atomic.get barrier < 2 do Domain.cpu_relax () done;
        for _ = 1 to 50 do
          U.Store_disk.put ~root ~stage:"s" ~digest ~builder:payload
            ~payload ()
        done
      in
      let a = Domain.spawn (writer "one") in
      let b = Domain.spawn (writer "two") in
      Domain.join a;
      Domain.join b;
      (match U.Store_disk.get ~root ~stage:"s" ~digest with
      | Some (b, p) ->
          Alcotest.(check bool) "a complete write won" true
            ((b, p) = ("one", "one") || (b, p) = ("two", "two"))
      | None -> Alcotest.fail "no valid envelope after the race");
      let residue =
        Array.to_list (Sys.readdir (Filename.concat root "s"))
        |> List.filter (fun n -> n <> digest)
      in
      Alcotest.(check (list string)) "no temp residue" [] residue)

let test_disk_torn_write_reads_as_miss () =
  with_root (fun root ->
      let digest = digest_hex "torn" in
      let always_torn =
        { U.Chaos.none with
          U.Chaos.enabled = true;
          seed = 1;
          store_torn_rate = 1.0 }
      in
      U.Store_disk.put ~chaos:always_torn ~root ~stage:"s" ~digest
        ~builder:"app" ~payload:"value" ();
      Alcotest.(check bool) "the torn entry exists on disk" true
        (Sys.file_exists (U.Store_disk.entry_path ~root ~stage:"s" ~digest));
      Alcotest.(check (option (pair string string)))
        "a torn envelope reads as a miss" None
        (U.Store_disk.get ~root ~stage:"s" ~digest);
      (* A torn entry is not a valid one, so first-put-wins does not
         protect it: the next clean write heals the slot. *)
      U.Store_disk.put ~root ~stage:"s" ~digest ~builder:"app"
        ~payload:"value" ();
      Alcotest.(check (option (pair string string)))
        "a clean put replaces the torn entry"
        (Some ("app", "value"))
        (U.Store_disk.get ~root ~stage:"s" ~digest))

(* A defective entry must not occupy its slot forever: a probe misses,
   the stage recomputes, the put rewrites the file, and the next
   process hits.  [damage] turns the valid entry at [path] into the
   defect under test. *)
let check_defect_heals what damage =
  with_root (fun root ->
      let key = U.Artifact.key ~codec:B.string "heal-stage" in
      let digest = U.Digest.of_string what in
      let path =
        U.Store_disk.entry_path ~root ~stage:"heal-stage"
          ~digest:(U.Digest.to_hex digest)
      in
      let fresh () =
        U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) ()
      in
      U.Artifact.put (fresh ()) key ~app:"sor" ~digest "artifact";
      damage path;
      let store = fresh () in
      Alcotest.(check bool) (what ^ ": the damaged entry misses") true
        (U.Artifact.find store key ~app:"sor" ~digest = None);
      (* The recompute's put. *)
      U.Artifact.put store key ~app:"sor" ~digest "artifact";
      Alcotest.(check (option (pair string string)))
        (what ^ ": the put rewrote the entry")
        (Some ("sor", B.encode B.string "artifact"))
        (U.Store_disk.get ~root ~stage:"heal-stage"
           ~digest:(U.Digest.to_hex digest));
      match U.Artifact.find (fresh ()) key ~app:"sor" ~digest with
      | Some ("artifact", U.Artifact.Local) -> ()
      | _ -> Alcotest.failf "%s: the next run must hit" what)

let test_disk_garbage_entry_heals () =
  check_defect_heals "garbage" (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "garbage"))

(* An entry written by the previous format version: the envelope layout
   is unchanged, only the version byte after the magic differs. *)
let test_disk_old_version_entry_heals () =
  check_defect_heals "version 1" (fun path ->
      let b =
        Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
      in
      Bytes.set b 4 '\001';
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b))

let test_disk_entries () =
  with_root (fun root ->
      U.Store_disk.put ~root ~stage:"a" ~digest:(digest_hex "1")
        ~builder:"x" ~payload:"12345" ();
      U.Store_disk.put ~root ~stage:"a" ~digest:(digest_hex "2")
        ~builder:"x" ~payload:"12345" ();
      U.Store_disk.put ~root ~stage:"b" ~digest:(digest_hex "3")
        ~builder:"x" ~payload:"1" ();
      let entries = (U.Store_disk.backend ~root ()).U.Artifact.backend_entries () in
      Alcotest.(check int) "two stages" 2 (List.length entries);
      let a_stage, a_count, a_bytes = List.hd entries in
      Alcotest.(check string) "sorted by stage" "a" a_stage;
      Alcotest.(check int) "entry count" 2 a_count;
      Alcotest.(check bool) "bytes include the envelope" true
        (a_bytes > 2 * 5))

(* ------------------------------------------------------------------ *)
(* Artifact front-end over the disk backend                            *)
(* ------------------------------------------------------------------ *)

let test_artifact_warm_restart () =
  with_root (fun root ->
      let key = U.Artifact.key ~codec:B.string "warm-stage" in
      let digest = U.Digest.of_string "input" in
      let store = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      U.Artifact.put store key ~app:"sor" ~digest "the artifact";
      (* A NEW front-end over the same root: a simulated restart, so the
         hit must cross serialization and still attribute correctly. *)
      let fresh () =
        U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) ()
      in
      (match U.Artifact.find (fresh ()) key ~app:"sor" ~digest with
      | Some (v, U.Artifact.Local) ->
          Alcotest.(check string) "value survives restart" "the artifact" v
      | Some (_, U.Artifact.Shared) -> Alcotest.fail "expected Local"
      | None -> Alcotest.fail "expected a warm hit");
      (match U.Artifact.find (fresh ()) key ~app:"fft" ~digest with
      | Some (_, U.Artifact.Shared) -> ()
      | Some (_, U.Artifact.Local) ->
          Alcotest.fail "another app must see Shared"
      | None -> Alcotest.fail "expected a warm hit");
      (* Backend hits are promoted to L1: the second probe through ONE
         front-end must not re-read the disk (observable via stats — the
         promoted entry counts as an in-process entry). *)
      let store2 = fresh () in
      ignore (U.Artifact.find store2 key ~app:"sor" ~digest);
      let stats = U.Artifact.stats store2 in
      Alcotest.(check int) "promoted into L1" 1 stats.U.Artifact.total_entries)

let test_artifact_codecless_key_stays_local () =
  with_root (fun root ->
      let key = U.Artifact.key "ephemeral-stage" in
      Alcotest.(check bool) "no codec, not persistent" false
        (U.Artifact.key_persistent key);
      let digest = U.Digest.of_string "input" in
      let store = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      U.Artifact.put store key ~app:"a" ~digest 42;
      Alcotest.(check bool) "nothing persisted" true
        (U.Artifact.backend_entries store = []);
      let fresh = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      Alcotest.(check bool) "miss after restart" true
        (U.Artifact.find fresh key ~app:"a" ~digest = None))

let test_artifact_undecodable_payload_is_a_miss () =
  with_root (fun root ->
      let key = U.Artifact.key ~codec:(B.pair B.int B.string) "typed-stage" in
      let digest = U.Digest.of_string "input" in
      (* A valid envelope whose payload the codec rejects: must degrade
         to a miss at the front-end, not raise. *)
      U.Store_disk.put ~root ~stage:"typed-stage"
        ~digest:(U.Digest.to_hex digest) ~builder:"a" ~payload:"not binio" ();
      let store = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      Alcotest.(check bool) "undecodable payload misses" true
        (U.Artifact.find store key ~app:"a" ~digest = None);
      (* The recompute then overwrites nothing (first put wins at the
         byte layer) but L1 serves the fresh value from now on. *)
      U.Artifact.put store key ~app:"a" ~digest (7, "fresh");
      match U.Artifact.find store key ~app:"a" ~digest with
      | Some ((7, "fresh"), _) -> ()
      | _ -> Alcotest.fail "recomputed value must be served")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "store"
    [
      ( "binio",
        [
          Alcotest.test_case "int boundaries" `Quick test_int_boundaries;
          Alcotest.test_case "enum" `Quick test_enum_roundtrip;
          Alcotest.test_case "corrupt inputs" `Quick test_corrupt_inputs;
        ]
        @ qsuite
            [
              prop_int_roundtrip; prop_int64_roundtrip; prop_float_roundtrip;
              prop_string_roundtrip; prop_bool_roundtrip;
              prop_option_roundtrip; prop_list_roundtrip;
              prop_nested_roundtrip; prop_varint_compact;
            ] );
      ( "codecs",
        [
          Alcotest.test_case "compiler_result" `Quick
            test_codec_compiler_result;
          Alcotest.test_case "profile_outcomes" `Quick
            test_codec_profile_outcomes;
          Alcotest.test_case "irmod exact on registry modules" `Quick
            test_codec_irmod_registry;
          Alcotest.test_case "irmod exact on an adapted module" `Quick
            test_codec_irmod_adapted;
          Alcotest.test_case "irmod exact on switch/phi/float specials" `Quick
            test_codec_irmod_constructs;
          Alcotest.test_case "irmod golden bytes and corrupt inputs" `Quick
            test_codec_irmod_golden_and_corrupt;
          Alcotest.test_case "memory golden bytes" `Quick
            test_codec_memory_golden;
          Alcotest.test_case "coverage/kernel" `Quick test_codec_analyses;
          Alcotest.test_case "search artifacts" `Quick
            test_codec_search_artifacts;
          Alcotest.test_case "project/flow_run/bitstream" `Quick
            test_codec_hw_and_cad;
        ] );
      ( "disk",
        [
          Alcotest.test_case "put/get" `Quick test_disk_put_get;
          Alcotest.test_case "first put wins" `Quick test_disk_first_put_wins;
          Alcotest.test_case "defects read as misses" `Quick
            test_disk_defects_read_as_misses;
          Alcotest.test_case "entries walk" `Quick test_disk_entries;
          Alcotest.test_case "orphan sweep" `Quick test_disk_orphan_sweep;
          Alcotest.test_case "concurrent first put wins" `Quick
            test_disk_concurrent_first_put_wins;
          Alcotest.test_case "torn write reads as miss" `Quick
            test_disk_torn_write_reads_as_miss;
          Alcotest.test_case "garbage entry is rewritten" `Quick
            test_disk_garbage_entry_heals;
          Alcotest.test_case "old-version entry is rewritten" `Quick
            test_disk_old_version_entry_heals;
        ] );
      ( "front-end",
        [
          Alcotest.test_case "warm restart" `Quick test_artifact_warm_restart;
          Alcotest.test_case "codec-less key stays local" `Quick
            test_artifact_codecless_key_stays_local;
          Alcotest.test_case "undecodable payload is a miss" `Quick
            test_artifact_undecodable_payload_is_a_miss;
        ] );
    ]
