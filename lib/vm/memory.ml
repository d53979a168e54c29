(** Cell-addressed VM memory.

    Memory is a flat, growable array of scalar cells.  The loader lays
    out module globals from address 1 upward (address 0 is reserved so
    that a null pointer never aliases a global); the stack for allocas
    grows above the globals.  One cell holds one scalar regardless of
    width — address arithmetic in the IR is in cells, which keeps the
    model simple without affecting anything the ISE study measures.

    A cell is stored unboxed: one tag byte in [tags] and an 8-byte
    payload in [data].  The payload of an int is the int64 itself, of a
    float its IEEE bit pattern, of an address the address as int64. *)

module Ir = Jitise_ir

type t = {
  mutable tags : Bytes.t;
  mutable data : Bytes.t;
  mutable stack_pointer : int;  (** next free cell *)
  globals : (string, int) Hashtbl.t;  (** global name -> base address *)
  limit : int;  (** hard cap on memory growth, in cells *)
}

exception Out_of_memory
exception Bad_address of int

let tag_int = '\000'
let tag_float = '\001'
let tag_ptr = '\002'

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let default_limit = 1 lsl 24  (* 16 M cells *)

(* All-zero bytes are [VInt 0L] cells. *)
let make_cells n = (Bytes.make n tag_int, Bytes.make (8 * n) '\000')

let create ?(limit = default_limit) () =
  let tags, data = make_cells 1024 in
  { tags; data; stack_pointer = 1; globals = Hashtbl.create 16; limit }

let capacity t = Bytes.length t.tags

let ensure t addr =
  if addr < 0 then raise (Bad_address addr);
  let cap = capacity t in
  if addr >= cap then begin
    if addr >= t.limit then raise Out_of_memory;
    let tags, data = make_cells (min t.limit (max (addr + 1) (2 * cap))) in
    Bytes.blit t.tags 0 tags 0 cap;
    Bytes.blit t.data 0 data 0 (8 * cap);
    t.tags <- tags;
    t.data <- data
  end

(* Unchecked cell access, [addr < capacity t]. *)
let get_cell t addr : Ir.Eval.value =
  let bits = get64 t.data (8 * addr) in
  match Bytes.unsafe_get t.tags addr with
  | '\001' -> Ir.Eval.VFloat (Int64.float_of_bits bits)
  | '\002' -> Ir.Eval.VPtr (Int64.to_int bits)
  | _ -> Ir.Eval.VInt bits

let set_cell t addr (v : Ir.Eval.value) =
  match v with
  | Ir.Eval.VInt i ->
      Bytes.unsafe_set t.tags addr tag_int;
      set64 t.data (8 * addr) i
  | Ir.Eval.VFloat f ->
      Bytes.unsafe_set t.tags addr tag_float;
      set64 t.data (8 * addr) (Int64.bits_of_float f)
  | Ir.Eval.VPtr p ->
      Bytes.unsafe_set t.tags addr tag_ptr;
      set64 t.data (8 * addr) (Int64.of_int p)

(* The address has already been validated against [stack_pointer] (and
   0); [alloc] always [ensure]s up to the stack pointer, so the slow
   store path only exists for robustness against future layout
   changes. *)

let load t addr =
  if addr <= 0 || addr >= t.stack_pointer then raise (Bad_address addr);
  if addr < capacity t then get_cell t addr else Ir.Eval.VInt 0L

let store t addr v =
  if addr <= 0 || addr >= t.stack_pointer then raise (Bad_address addr);
  ensure t addr;
  set_cell t addr v

(** Reserve [n] cells and return their base address. *)
let alloc t n =
  if n <= 0 then invalid_arg "Memory.alloc: non-positive size";
  let base = t.stack_pointer in
  t.stack_pointer <- base + n;
  ensure t (t.stack_pointer - 1);
  base

(** Current stack mark, for frame save/restore. *)
let mark t = t.stack_pointer

(** Pop the stack back to a previous {!mark}. *)
let release t m = t.stack_pointer <- m

let zero_value (ty : Ir.Ty.t) =
  if Ir.Ty.is_float ty then Ir.Eval.VFloat 0.0 else Ir.Eval.VInt 0L

(** Lay out and initialize all globals of a module. *)
let load_globals t (m : Ir.Irmod.t) =
  List.iter
    (fun (g : Ir.Irmod.global) ->
      let base = alloc t g.Ir.Irmod.gsize in
      Hashtbl.replace t.globals g.Ir.Irmod.gname base;
      match g.Ir.Irmod.ginit with
      | Ir.Irmod.Zero ->
          for i = 0 to g.Ir.Irmod.gsize - 1 do
            set_cell t (base + i) (zero_value g.Ir.Irmod.gty)
          done
      | Ir.Irmod.Ints a ->
          for i = 0 to g.Ir.Irmod.gsize - 1 do
            let v = if i < Array.length a then a.(i) else 0L in
            set_cell t (base + i)
              (Ir.Eval.VInt (Ir.Eval.normalize g.Ir.Irmod.gty v))
          done
      | Ir.Irmod.Floats a ->
          for i = 0 to g.Ir.Irmod.gsize - 1 do
            let v = if i < Array.length a then a.(i) else 0.0 in
            set_cell t (base + i)
              (Ir.Eval.VFloat (Ir.Eval.round_float g.Ir.Irmod.gty v))
          done)
    m.Ir.Irmod.globals

let global_base t name =
  match Hashtbl.find_opt t.globals name with
  | Some base -> base
  | None -> invalid_arg (Printf.sprintf "Memory.global_base: unknown global %s" name)

(** Read [len] cells of a global as floats (for checksumming results in
    tests and workload validation). *)
let read_global_floats t name len =
  let base = global_base t name in
  Array.init len (fun i ->
      match load t (base + i) with
      | Ir.Eval.VFloat v -> v
      | Ir.Eval.VInt v -> Int64.to_float v
      | Ir.Eval.VPtr p -> float_of_int p)

(** Read [len] cells of a global as ints. *)
let read_global_ints t name len =
  let base = global_base t name in
  Array.init len (fun i ->
      match load t (base + i) with
      | Ir.Eval.VInt v -> v
      | Ir.Eval.VFloat v -> Int64.of_float v
      | Ir.Eval.VPtr p -> Int64.of_int p)

(** Overwrite a global's cells with integer data (workload dataset
    injection). *)
let write_global_ints t name data =
  let base = global_base t name in
  Array.iteri (fun i v -> store t (base + i) (Ir.Eval.VInt v)) data

(** Overwrite a global's cells with float data. *)
let write_global_floats t name data =
  let base = global_base t name in
  Array.iteri (fun i v -> store t (base + i) (Ir.Eval.VFloat v)) data
