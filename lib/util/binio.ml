(** Compact length-prefixed binary serialization.

    [Binio] is the byte format used by the persistent artifact-store
    backend ({!Store_disk}).  It is deliberately small: a handful of
    primitive writers/readers plus combinators that compose them into
    {!type:codec} values, one per stored stage artifact (see
    [Core.Codecs]).

    Design points:

    - Variable-length integers (LEB128 with zigzag for signed values)
      keep small counts and lengths at one byte.
    - [int64] and [float] are fixed 8-byte little-endian (floats as
      IEEE-754 bits), so round-trips are exact including NaN payloads.
    - Strings and lists are length-prefixed; there is no terminator
      scanning and no escaping.
    - Readers are bounds-checked.  Any malformed input — short reads,
      varint overflow, bad tags, trailing bytes — raises {!Corrupt},
      which the store layer maps to a cache miss (recompute), never an
      error. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let remaining r = String.length r.src - r.pos

let need r n =
  if n < 0 || remaining r < n then
    corrupt "short read: need %d bytes at %d/%d" n r.pos (String.length r.src)

(* ------------------------------------------------------------------ *)
(* Primitive writers (into a Buffer) and readers.                     *)
(* ------------------------------------------------------------------ *)

let w_byte b n = Buffer.add_char b (Char.chr (n land 0xff))

let r_byte r =
  need r 1;
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* Varints are unsigned LEB128 over the 63 bits of a native int, read
   as unsigned: at most 9 bytes, the ninth carrying bits 56-62 and no
   continuation. *)
let w_uvarint b n =
  let n = ref n in
  while !n lsr 7 <> 0 do
    Buffer.add_char b (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !n)

let rec uvarint_from r pos acc shift =
  if pos >= String.length r.src then corrupt "short read: varint at %d" r.pos
  else
    let byte = Char.code (String.unsafe_get r.src pos) in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then begin
      r.pos <- pos + 1;
      acc
    end
    else if shift >= 56 then corrupt "varint too long at %d" r.pos
    else uvarint_from r (pos + 1) acc (shift + 7)

let r_uvarint r = uvarint_from r r.pos 0 0

(* Zigzag maps every native int, [min_int] to [max_int], onto the 63-bit
   unsigned range: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ... *)
let w_int b n = w_uvarint b ((n lsl 1) lxor (n asr 62))

let r_int r =
  let z = r_uvarint r in
  (z lsr 1) lxor -(z land 1)

let w_int64 b (n : int64) = Buffer.add_int64_le b n

let r_int64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let w_float b f = w_int64 b (Int64.bits_of_float f)
let r_float r = Int64.float_of_bits (r_int64 r)

let w_bool b v = w_byte b (if v then 1 else 0)

let r_bool r =
  match r_byte r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool tag %d" n

let w_len b n =
  if n < 0 then invalid_arg "Binio.w_len: negative length";
  w_uvarint b n

let r_len r =
  let n = r_uvarint r in
  (* [n < 0]: a length with the top bit set, beyond any input. *)
  if n < 0 || n > remaining r then
    corrupt "length %d exceeds remaining input" n
  else n

let w_string b s =
  w_len b (String.length s);
  Buffer.add_string b s

let r_string r =
  let n = r_len r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let w_option w b = function
  | None -> w_byte b 0
  | Some v ->
      w_byte b 1;
      w b v

let r_option rd r =
  match r_byte r with
  | 0 -> None
  | 1 -> Some (rd r)
  | n -> corrupt "bad option tag %d" n

let w_list w b xs =
  w_len b (List.length xs);
  List.iter (w b) xs

let r_list rd r =
  let n = r_len r in
  List.init n (fun _ -> rd r)

(* ------------------------------------------------------------------ *)
(* Codecs.                                                            *)
(* ------------------------------------------------------------------ *)

type 'a codec = { enc : Buffer.t -> 'a -> unit; dec : reader -> 'a }

let codec enc dec = { enc; dec }

let int = { enc = w_int; dec = r_int }
let int64 = { enc = w_int64; dec = r_int64 }
let float = { enc = w_float; dec = r_float }
let bool = { enc = w_bool; dec = r_bool }
let string = { enc = w_string; dec = r_string }

let option c = { enc = w_option c.enc; dec = r_option c.dec }
let list c = { enc = w_list c.enc; dec = r_list c.dec }

let pair a b =
  {
    enc =
      (fun buf (x, y) ->
        a.enc buf x;
        b.enc buf y);
    dec =
      (fun r ->
        let x = a.dec r in
        let y = b.dec r in
        (x, y));
  }

let triple a b c =
  {
    enc =
      (fun buf (x, y, z) ->
        a.enc buf x;
        b.enc buf y;
        c.enc buf z);
    dec =
      (fun r ->
        let x = a.dec r in
        let y = b.dec r in
        let z = c.dec r in
        (x, y, z));
  }

(** Map a codec through a bijection, e.g. to (de)construct records or
    variants from tuples. *)
let map ~enc ~dec c =
  { enc = (fun buf v -> c.enc buf (enc v)); dec = (fun r -> dec (c.dec r)) }

(** Codec for a finite enumeration given its exhaustive value list.
    Values are encoded as their index in the list. *)
let rec index_phys arr v i =
  if i >= Array.length arr then -1
  else if Array.unsafe_get arr i == v then i
  else index_phys arr v (i + 1)

let rec index_struct arr v i =
  if i >= Array.length arr then -1
  else if Array.unsafe_get arr i = v then i
  else index_struct arr v (i + 1)

let enum ~name values =
  let arr = Array.of_list values in
  {
    enc =
      (fun buf v ->
        (* Physical equality first: constant constructors are immediates,
           so they never reach polymorphic compare. *)
        let i =
          match index_phys arr v 0 with -1 -> index_struct arr v 0 | i -> i
        in
        if i < 0 then
          invalid_arg (Printf.sprintf "Binio.enum %s: unknown value" name);
        w_uvarint buf i);
    dec =
      (fun r ->
        (* NOT [r_len]: its remaining-input bound is for byte lengths,
           and an enum tag consumes no further bytes — a tag at the very
           end of the input is perfectly valid. *)
        let i = r_uvarint r in
        if i < 0 || i >= Array.length arr then
          corrupt "enum %s: bad tag %d" name i
        else arr.(i));
  }

let encode c v =
  let b = Buffer.create 256 in
  c.enc b v;
  Buffer.contents b

let decode c s =
  let r = reader s in
  let v = c.dec r in
  if r.pos <> String.length s then
    corrupt "trailing bytes: %d of %d consumed" r.pos (String.length s);
  v

let decode_opt c s = try Some (decode c s) with Corrupt _ -> None
