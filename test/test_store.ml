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
(* Store_disk: segments, crash-safety, defect tolerance                *)
(* ------------------------------------------------------------------ *)

let digest_hex s = U.Digest.to_hex (U.Digest.of_string s)

let disk ?chaos root = U.Store_disk.backend ?chaos ~root ()
let bget (b : U.Artifact.backend) ~stage ~digest = b.U.Artifact.backend_get ~stage ~digest

let bput (b : U.Artifact.backend) ~stage ~digest ~builder ~payload =
  b.U.Artifact.backend_put ~stage ~digest ~builder ~payload

let bflush (b : U.Artifact.backend) = b.U.Artifact.backend_flush ()

(* What a later process sees: a new backend over the same root. *)
let fresh_get root ~stage ~digest = bget (disk root) ~stage ~digest

let entry = Alcotest.(option (pair string string))

(* Overwrite the bytes of one record in place with [f record]; the
   segment's other records, index and footer stay intact. *)
let damage_record ~root ~stage ~digest f =
  match U.Store_disk.locate ~root ~stage ~digest with
  | None -> Alcotest.failf "no record for %s/%s" stage digest
  | Some (path, off, len) ->
      let s = In_channel.with_open_bin path In_channel.input_all in
      let damaged = f (String.sub s off len) in
      Alcotest.(check int) "damage keeps the record's length" len
        (String.length damaged);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub s 0 off ^ damaged
            ^ String.sub s (off + len) (String.length s - off - len)))

let set_byte i c r =
  let b = Bytes.of_string r in
  Bytes.set b i c;
  Bytes.to_string b

(* A version-3 envelope, written out by hand from the documented
   layout. *)
let envelope ~builder ~payload =
  let b = Buffer.create 64 in
  Buffer.add_string b "JTSE";
  B.w_byte b 3;
  B.w_string b builder;
  B.w_string b (digest_hex payload);
  B.w_string b payload;
  Buffer.contents b

let segments root =
  Array.to_list (Sys.readdir (Filename.concat root "seg"))
  |> List.filter (fun n -> Filename.check_suffix n ".seg")
  |> List.sort String.compare
  |> List.map (Filename.concat (Filename.concat root "seg"))

(* The [(stage, digest)] of every record a committed segment indexes,
   decoded from the documented footer and index layout. *)
let indexed_keys path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let footer = String.sub s (String.length s - 37) 37 in
  let off = Int64.to_int (String.get_int64_le footer 5) in
  let len = Int64.to_int (String.get_int64_le footer 13) in
  B.r_list
    (fun r ->
      let stage = B.r_string r in
      let digest = B.r_string r in
      ignore (B.r_int r);
      ignore (B.r_int r);
      (stage, digest))
    (B.reader (String.sub s off len))

let test_disk_put_get () =
  with_root (fun root ->
      let digest = digest_hex "a" in
      let b = disk root in
      Alcotest.(check entry) "absent entry" None (bget b ~stage:"compile" ~digest);
      bput b ~stage:"compile" ~digest ~builder:"sor" ~payload:"PAYLOAD\x00\xff bytes";
      Alcotest.(check entry) "served by its own backend before the flush"
        (Some ("sor", "PAYLOAD\x00\xff bytes"))
        (bget b ~stage:"compile" ~digest);
      Alcotest.(check entry) "invisible to others before the flush" None
        (fresh_get root ~stage:"compile" ~digest);
      bflush b;
      Alcotest.(check entry) "round trip through a committed segment"
        (Some ("sor", "PAYLOAD\x00\xff bytes"))
        (fresh_get root ~stage:"compile" ~digest);
      Alcotest.(check entry) "and through the writer after its flush"
        (Some ("sor", "PAYLOAD\x00\xff bytes"))
        (bget b ~stage:"compile" ~digest);
      Alcotest.(check int) "one committed segment" 1 (List.length (segments root));
      Alcotest.(check int) "no temp segment left" 0 (U.Store_disk.temp_segments ~root))

let test_disk_first_put_wins () =
  with_root (fun root ->
      let digest = digest_hex "b" in
      let b = disk root in
      bput b ~stage:"s" ~digest ~builder:"first" ~payload:"one";
      bput b ~stage:"s" ~digest ~builder:"second" ~payload:"two";
      bflush b;
      Alcotest.(check entry) "first write wins" (Some ("first", "one"))
        (fresh_get root ~stage:"s" ~digest);
      (* A later backend that sees the valid record writes nothing. *)
      let later = disk root in
      bput later ~stage:"s" ~digest ~builder:"third" ~payload:"three";
      bflush later;
      Alcotest.(check int) "no second segment" 1 (List.length (segments root)))

(* Two segments hold the same key: the first record that validates is
   served, so damage to the first one heals through the second. *)
let test_disk_first_valid_record_across_segments () =
  with_root (fun root ->
      let digest = digest_hex "dup" in
      let a = disk root and b = disk root in
      bput a ~stage:"s" ~digest ~builder:"a" ~payload:"one";
      bput b ~stage:"s" ~digest ~builder:"b" ~payload:"two";
      bflush a;
      bflush b;
      Alcotest.(check int) "two segments" 2 (List.length (segments root));
      Alcotest.(check entry) "the first committed record wins" (Some ("a", "one"))
        (fresh_get root ~stage:"s" ~digest);
      damage_record ~root ~stage:"s" ~digest (set_byte 0 'X');
      Alcotest.(check entry) "a defective first record is skipped"
        (Some ("b", "two"))
        (fresh_get root ~stage:"s" ~digest))

let test_disk_defects_read_as_misses () =
  with_root (fun root ->
      let stage = "s" in
      let b = disk root in
      let cases =
        [
          (* The second half of the record lost. *)
          ( "truncated record",
            "some payload",
            fun r ->
              let h = String.length r / 2 in
              String.sub r 0 h ^ String.make (String.length r - h) '\000' );
          ("empty record", "x", fun r -> String.make (String.length r) '\000');
          ("bad magic", "payload", set_byte 0 'X');
          ("bad version", "payload", set_byte 4 '\xf7');
          (* The envelope of version 2, the per-entry file format. *)
          ("old-version record", "payload", set_byte 4 '\002');
          ( "flipped payload byte",
            "payload-payload-payload",
            fun r ->
              let i = String.length r - 3 in
              set_byte i (Char.chr (Char.code r.[i] lxor 0x41)) r );
          (* A valid envelope one byte short of the record. *)
          ( "trailing bytes",
            "payload",
            fun _ -> envelope ~builder:"app" ~payload:"payloa" ^ "!" );
        ]
      in
      List.iter
        (fun (name, payload, _) ->
          bput b ~stage ~digest:(digest_hex name) ~builder:"app" ~payload)
        cases;
      bput b ~stage ~digest:(digest_hex "intact") ~builder:"app" ~payload:"good";
      bflush b;
      Alcotest.(check int) "one segment holds every record" 1
        (List.length (segments root));
      List.iter
        (fun (name, _, f) -> damage_record ~root ~stage ~digest:(digest_hex name) f)
        cases;
      let reader = disk root in
      List.iter
        (fun (name, _, _) ->
          Alcotest.(check entry) (name ^ " reads as a miss") None
            (bget reader ~stage ~digest:(digest_hex name)))
        cases;
      Alcotest.(check entry) "the intact neighbour is still served"
        (Some ("app", "good"))
        (bget reader ~stage ~digest:(digest_hex "intact")))

(* A torn footer or index loses that segment only. *)
let test_disk_torn_footer_or_index () =
  with_root (fun root ->
      let put_flushed name =
        let b = disk root in
        bput b ~stage:"s" ~digest:(digest_hex name) ~builder:"app" ~payload:name;
        bflush b
      in
      put_flushed "a";
      put_flushed "b";
      put_flushed "c";
      let flip path at =
        let s = In_channel.with_open_bin path In_channel.input_all in
        let i = at (String.length s) in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (set_byte i (Char.chr (Char.code s.[i] lxor 0x01)) s))
      in
      (match segments root with
      | [ sa; sb; _ ] ->
          (* the last byte of the footer's index digest *)
          flip sa (fun n -> n - 1);
          (* the last byte of the index, just before the footer *)
          flip sb (fun n -> n - 38)
      | l -> Alcotest.failf "expected 3 segments, got %d" (List.length l));
      let r = disk root in
      let get name = bget r ~stage:"s" ~digest:(digest_hex name) in
      Alcotest.(check entry) "a torn footer misses" None (get "a");
      Alcotest.(check entry) "a torn index misses" None (get "b");
      Alcotest.(check entry) "other segments are served" (Some ("app", "c")) (get "c");
      (* A cut-off segment (no footer at all) misses too. *)
      let sc = List.nth (segments root) 2 in
      Unix.truncate sc ((Unix.stat sc).Unix.st_size - 10);
      Alcotest.(check entry) "a truncated segment misses" None
        (fresh_get root ~stage:"s" ~digest:(digest_hex "c")))

let dead_pid =
  (* Above Linux's PID_MAX_LIMIT (2^22): no process can have it. *)
  (1 lsl 22) + 7

let test_disk_orphan_sweep () =
  with_root (fun root ->
      let digest = digest_hex "kept" in
      let b = disk root in
      bput b ~stage:"s" ~digest ~builder:"app" ~payload:"v";
      bflush b;
      let dir = Filename.concat root "seg" in
      let orphan name =
        Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
            Out_channel.output_string oc "partial")
      in
      orphan (Printf.sprintf "%d-0.tmp" dead_pid);
      orphan (Printf.sprintf "%d-1.tmp" dead_pid);
      (* A live writer in this process: its unflushed segment reads as
         a miss and survives the sweep. *)
      let writer = disk root in
      let pending = digest_hex "pending" in
      bput writer ~stage:"s" ~digest:pending ~builder:"app" ~payload:"p";
      let b = disk root in
      Alcotest.(check int) "the dead writers' segments are swept, the live one kept" 1
        (U.Store_disk.temp_segments ~root);
      Alcotest.(check entry) "an unflushed segment reads as a miss" None
        (bget b ~stage:"s" ~digest:pending);
      Alcotest.(check entry) "the committed entry survives the sweep"
        (Some ("app", "v"))
        (bget b ~stage:"s" ~digest);
      Alcotest.(check int) "a live writer is never swept" 0
        (U.Store_disk.sweep_orphans ~root);
      bflush writer;
      Alcotest.(check entry) "the live writer's flush commits" (Some ("app", "p"))
        (bget b ~stage:"s" ~digest:pending);
      Alcotest.(check int) "nothing left to sweep" 0 (U.Store_disk.temp_segments ~root))

let test_disk_concurrent_first_put_wins () =
  with_root (fun root ->
      let digest = digest_hex "race" in
      (* Two writers race the same keys with different payloads, first
         through one shared backend and then through one backend each:
         every reader must agree on one complete write, and no temp
         residue may survive.  Each writer puts every key three times
         in step with the other, so each key is a fresh race. *)
      let keys = digest :: List.init 199 (fun i -> digest_hex (Printf.sprintf "race-%d" i)) in
      let race backends =
        let barrier = Atomic.make 0 in
        let writer (b, payload) () =
          Atomic.incr barrier;
          while Atomic.get barrier < 2 do Domain.cpu_relax () done;
          List.iteri
            (fun i digest ->
              (* Both writers start each key together. *)
              Atomic.incr barrier;
              while Atomic.get barrier < 2 * (i + 2) do Domain.cpu_relax () done;
              for _ = 1 to 3 do
                bput b ~stage:"s" ~digest ~builder:payload ~payload
              done)
            keys;
          bflush b
        in
        let ds = List.map (fun w -> Domain.spawn (writer w)) backends in
        List.iter Domain.join ds
      in
      let shared = disk root in
      race [ (shared, "one"); (shared, "two") ];
      Alcotest.(check int) "one record per key through a shared backend"
        (List.length keys)
        (List.length (List.concat_map indexed_keys (segments root)));
      let winner = fresh_get root ~stage:"s" ~digest in
      Alcotest.(check bool) "a complete write won" true
        (winner = Some ("one", "one") || winner = Some ("two", "two"));
      let root2 = root ^ "-2" in
      Fun.protect ~finally:(fun () -> rm_rf root2) (fun () ->
          race [ (disk root2, "one"); (disk root2, "two") ];
          let readers = List.init 3 (fun _ -> fresh_get root2 ~stage:"s" ~digest) in
          Alcotest.(check bool) "every reader agrees on a complete write" true
            (List.for_all (fun r -> r = List.hd readers) readers
            && (List.hd readers = Some ("one", "one")
               || List.hd readers = Some ("two", "two")));
          Alcotest.(check int) "no temp residue" 0
            (U.Store_disk.temp_segments ~root:root2)))

(* A segment committed by one backend becomes visible at another's next
   miss. *)
let test_disk_cross_backend_visibility () =
  with_root (fun root ->
      let a = disk root and b = disk root in
      let visible name =
        let digest = digest_hex name in
        Alcotest.(check entry) (name ^ ": a miss before the flush") None
          (bget b ~stage:"s" ~digest);
        bput a ~stage:"s" ~digest ~builder:"a" ~payload:name;
        bflush a;
        Alcotest.(check entry) (name ^ ": visible at the next miss")
          (Some ("a", name)) (bget b ~stage:"s" ~digest)
      in
      visible "first";
      visible "second")

(* Every flush adds a segment; past eight, a flush merges the smallest
   into one.  The merge keeps each key's first valid record and drops
   defective ones, and a backend that indexed a merged-away segment
   finds its keys again at the next miss. *)
let test_disk_compaction () =
  with_root (fun root ->
      (* Key [i]'s payload grows with [i], so the merges pick the lowest
         keys first; "big" is the largest segment. *)
      let payload name =
        if name = "big" then String.make 4096 'b' else String.make (10 * int_of_string name) 'x'
      in
      let put_flushed name =
        let b = disk root in
        bput b ~stage:"s" ~digest:(digest_hex name) ~builder:"app" ~payload:(payload name);
        bflush b
      in
      let check_all what b names =
        List.iter
          (fun name ->
            Alcotest.(check entry) (what ^ ": key " ^ name)
              (Some ("app", payload name))
              (bget b ~stage:"s" ~digest:(digest_hex name)))
          names
      in
      let keys n = "big" :: List.init n (fun i -> string_of_int (i + 1)) in
      put_flushed "big";
      let early = disk root in
      for i = 1 to 7 do
        put_flushed (string_of_int i)
      done;
      Alcotest.(check int) "eight segments, no merge yet" 8 (List.length (segments root));
      damage_record ~root ~stage:"s" ~digest:(digest_hex "1") (set_byte 0 'X');
      (* The recompute after the miss appends a valid record for key 1;
         its segment and key 1's damaged one are among the five
         smallest, which this ninth flush merges. *)
      put_flushed "1";
      let after = segments root in
      Alcotest.(check int) "the ninth flush merges down to five segments" 5
        (List.length after);
      Alcotest.(check int) "no temp segment left" 0 (U.Store_disk.temp_segments ~root);
      Alcotest.(check bool) "the largest segment is kept" true
        (List.exists (fun p -> indexed_keys p = [ ("s", digest_hex "big") ]) after);
      Alcotest.(check int) "each key once: the defective record dropped" 8
        (List.length (List.concat_map indexed_keys after));
      check_all "a fresh backend" (disk root) (keys 7);
      check_all "a backend opened before the merge" early (keys 7);
      (* Twenty more flushes: the count never passes the bound. *)
      for i = 8 to 27 do
        put_flushed (string_of_int i);
        Alcotest.(check bool) "at most nine segments" true (List.length (segments root) <= 9)
      done;
      check_all "after twenty more flushes" early (keys 27))

let test_disk_torn_write_reads_as_miss () =
  with_root (fun root ->
      let chaos =
        { U.Chaos.none with U.Chaos.enabled = true; seed = 1; store_torn_rate = 0.5 }
      in
      let torn d = U.Chaos.store_torn chaos ~site:("s/" ^ d) in
      let digests = List.init 64 (fun i -> digest_hex (string_of_int i)) in
      let clean = List.filter (fun d -> not (torn d)) digests in
      let victim =
        match List.find_opt torn digests with
        | Some d -> d
        | None -> Alcotest.fail "no torn site among 64"
      in
      let before, after =
        match clean with
        | x :: y :: _ -> (x, y)
        | _ -> Alcotest.fail "fewer than two clean sites among 64"
      in
      let b = disk ~chaos root in
      List.iter
        (fun d -> bput b ~stage:"s" ~digest:d ~builder:"app" ~payload:("value-" ^ d))
        [ before; victim; after ];
      bflush b;
      Alcotest.(check bool) "the torn record is indexed" true
        (U.Store_disk.locate ~root ~stage:"s" ~digest:victim <> None);
      Alcotest.(check entry) "a torn record reads as a miss" None
        (fresh_get root ~stage:"s" ~digest:victim);
      List.iter
        (fun d ->
          Alcotest.(check entry) "its neighbours are served"
            (Some ("app", "value-" ^ d))
            (fresh_get root ~stage:"s" ~digest:d))
        [ before; after ];
      (* A torn record is not a valid one, so first-put-wins does not
         protect it: the next clean write heals the key. *)
      let healer = disk root in
      bput healer ~stage:"s" ~digest:victim ~builder:"app" ~payload:"value";
      bflush healer;
      Alcotest.(check entry) "a clean put heals the torn key"
        (Some ("app", "value"))
        (fresh_get root ~stage:"s" ~digest:victim))

(* A defective record must not shadow its key forever: a probe misses,
   the stage recomputes, the put appends a valid record, and the next
   process hits.  [damage] turns the valid record into the defect under
   test. *)
let check_defect_heals what damage =
  with_root (fun root ->
      let key = U.Artifact.key ~codec:B.string "heal-stage" in
      let digest = U.Digest.of_string what in
      let hex = U.Digest.to_hex digest in
      let fresh () = U.Artifact.create ~backend:(disk root) () in
      let first = fresh () in
      U.Artifact.put first key ~app:"sor" ~digest "artifact";
      U.Artifact.flush first;
      damage_record ~root ~stage:"heal-stage" ~digest:hex damage;
      let store = fresh () in
      Alcotest.(check bool) (what ^ ": the damaged record misses") true
        (U.Artifact.find store key ~app:"sor" ~digest = None);
      (* The recompute's put. *)
      U.Artifact.put store key ~app:"sor" ~digest "artifact";
      U.Artifact.flush store;
      Alcotest.(check entry)
        (what ^ ": the put appended a valid record")
        (Some ("sor", B.encode B.string "artifact"))
        (fresh_get root ~stage:"heal-stage" ~digest:hex);
      match U.Artifact.find (fresh ()) key ~app:"sor" ~digest with
      | Some ("artifact", U.Artifact.Local) -> ()
      | _ -> Alcotest.failf "%s: the next run must hit" what)

let test_disk_garbage_entry_heals () =
  check_defect_heals "garbage" (fun r -> String.make (String.length r) 'g')

(* A record written by the previous format version: the envelope layout
   is unchanged, only the version byte after the magic differs. *)
let test_disk_old_version_entry_heals () =
  check_defect_heals "version 2" (set_byte 4 '\002')

let test_disk_entries () =
  with_root (fun root ->
      let b = disk root in
      bput b ~stage:"a" ~digest:(digest_hex "1") ~builder:"x" ~payload:"12345";
      bput b ~stage:"a" ~digest:(digest_hex "2") ~builder:"x" ~payload:"12345";
      bput b ~stage:"b" ~digest:(digest_hex "3") ~builder:"x" ~payload:"1";
      bflush b;
      let entries = (disk root).U.Artifact.backend_entries () in
      Alcotest.(check (list (triple string int int)))
        "entries and envelope bytes per stage, sorted by stage"
        [
          ("a", 2, 2 * String.length (envelope ~builder:"x" ~payload:"12345"));
          ("b", 1, String.length (envelope ~builder:"x" ~payload:"1"));
        ]
        entries)

(* ------------------------------------------------------------------ *)
(* Artifact front-end over the disk backend                            *)
(* ------------------------------------------------------------------ *)

let test_artifact_warm_restart () =
  with_root (fun root ->
      let key = U.Artifact.key ~codec:B.string "warm-stage" in
      let digest = U.Digest.of_string "input" in
      let store = U.Artifact.create ~backend:(U.Store_disk.backend ~root ()) () in
      U.Artifact.put store key ~app:"sor" ~digest "the artifact";
      U.Artifact.flush store;
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
      let b = disk root in
      bput b ~stage:"typed-stage" ~digest:(U.Digest.to_hex digest) ~builder:"a"
        ~payload:"not binio";
      bflush b;
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
          Alcotest.test_case "first valid record across segments" `Quick
            test_disk_first_valid_record_across_segments;
          Alcotest.test_case "torn footer or index misses one segment" `Quick
            test_disk_torn_footer_or_index;
          Alcotest.test_case "compaction bounds the segment count" `Quick
            test_disk_compaction;
          Alcotest.test_case "flushed segment visible at the next miss" `Quick
            test_disk_cross_backend_visibility;
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
