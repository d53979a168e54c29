(* FNV-1a 64-bit with type tags and length prefixes.  Self-contained on
   purpose: Hashtbl.hash truncates to 30 bits and traverses lazily, Marshal
   output is not canonical across versions, and stdlib Digest (MD5) would
   force every caller to build intermediate strings.  Collisions at 64 bits
   are acceptable for a memoization key space of a few thousand entries. *)

type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

type ctx = { mutable h : int64 }

let create () = { h = fnv_offset }

(* Every feeder loads the running hash into a local, mixes its bytes
   there and stores it back once: a local [int64] stays unboxed, while
   each write to the mutable field allocates a fresh box. *)
let[@inline] step h byte =
  Int64.mul (Int64.logxor h (Int64.of_int byte)) fnv_prime

let[@inline] byte_of x i =
  Int64.to_int (Int64.shift_right_logical x (8 * i)) land 0xff

(* The eight bytes of [x], least significant first. *)
let[@inline] mix_word h x =
  let h = step h (byte_of x 0) in
  let h = step h (byte_of x 1) in
  let h = step h (byte_of x 2) in
  let h = step h (byte_of x 3) in
  let h = step h (byte_of x 4) in
  let h = step h (byte_of x 5) in
  let h = step h (byte_of x 6) in
  step h (byte_of x 7)

(* One tag byte per value keeps adjacent fields from sliding into each
   other: add_string "ab"; add_string "" must differ from add_string "a";
   add_string "b" even before length prefixes are considered. *)
let tag c ch = c.h <- step c.h (Char.code ch)

let tagged_word c ch x = c.h <- mix_word (step c.h (Char.code ch)) x

let add_int64 c x = tagged_word c 'I' x
let add_int c x = tagged_word c 'i' (Int64.of_int x)

let add_string c s =
  let len = String.length s in
  let h = ref (mix_word (step c.h (Char.code 'S')) (Int64.of_int len)) in
  for i = 0 to len - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  c.h <- !h

let add_float c x = tagged_word c 'F' (Int64.bits_of_float x)

let add_bool c b = c.h <- step (step c.h (Char.code 'B')) (if b then 1 else 0)

let add_option c f = function
  | None -> tag c 'n'
  | Some x ->
      tag c 's';
      f x

let add_list c f xs =
  tagged_word c 'L' (Int64.of_int (List.length xs));
  List.iter f xs

let finish c = c.h

let add_digest c (d : t) = tagged_word c 'D' d

let of_string s =
  let c = create () in
  add_string c s;
  finish c

let to_hex (d : t) = Printf.sprintf "%016Lx" d
let equal = Int64.equal
let compare = Int64.compare
let pp ppf d = Format.pp_print_string ppf (to_hex d)
