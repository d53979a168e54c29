(** Cell-addressed VM memory.

    Memory is a flat, growable array of scalar cells.  The loader lays
    out module globals from address 1 upward (address 0 is reserved so
    that a null pointer never aliases a global); the stack for allocas
    grows above the globals.  One cell holds one scalar regardless of
    width — address arithmetic in the IR is in cells, which keeps the
    model simple without affecting anything the ISE study measures.

    Every error is a named exception (or a named [Invalid_argument]
    message for programming errors), never a bare [failwith]:

    - {!Bad_address} — a load or store outside the live range
      [(0, stack_pointer)];
    - {!Out_of_memory} — growth past the [limit] cap;
    - [Invalid_argument _] — {!alloc} of a non-positive size, or
      {!global_base} of an unknown global. *)

(** The memory state.  The representation is concrete on purpose: the
    outcome codecs serialize and rebuild it field by field, and the
    threaded engine reads and writes cells without boxing.

    Cell [i] is unboxed: its tag is byte [i] of [tags] ({!tag_int},
    {!tag_float} or {!tag_ptr}) and its payload the native-endian int64
    at byte [8 * i] of [data] — the integer, the IEEE bits of the float,
    or the address.  All-zero bytes read as [VInt 0L], so a fresh cell
    is an int zero.  Both buffers always hold {!capacity} cells. *)
type t = {
  mutable tags : Bytes.t;
  mutable data : Bytes.t;
  mutable stack_pointer : int;  (** next free cell *)
  globals : (string, int) Hashtbl.t;  (** global name -> base address *)
  limit : int;  (** hard cap on memory growth, in cells *)
}

exception Out_of_memory
exception Bad_address of int

val tag_int : char
val tag_float : char
val tag_ptr : char

(** Fresh memory with an empty global table and the stack at address 1.
    @param limit growth cap in cells (default 16 M) *)
val create : ?limit:int -> unit -> t

(** Number of cells the buffers hold. *)
val capacity : t -> int

(** Read one cell.
    @raise Bad_address outside [(0, stack_pointer)]. *)
val load : t -> int -> Jitise_ir.Eval.value

(** Write one cell.
    @raise Bad_address outside [(0, stack_pointer)].
    @raise Out_of_memory if backing growth would exceed the limit. *)
val store : t -> int -> Jitise_ir.Eval.value -> unit

(** Reserve [n] cells and return their base address.
    @raise Invalid_argument if [n <= 0].
    @raise Out_of_memory past the growth cap. *)
val alloc : t -> int -> int

(** Current stack mark, for frame save/restore. *)
val mark : t -> int

(** Pop the stack back to a previous {!mark}. *)
val release : t -> int -> unit

(** Lay out and initialize all globals of a module. *)
val load_globals : t -> Jitise_ir.Irmod.t -> unit

(** Base address of a named global.
    @raise Invalid_argument for an unknown global. *)
val global_base : t -> string -> int

(** Read [len] cells of a global as floats (for checksumming results in
    tests and workload validation). *)
val read_global_floats : t -> string -> int -> float array

(** Read [len] cells of a global as ints. *)
val read_global_ints : t -> string -> int -> int64 array

(** Overwrite a global's cells with integer data (workload dataset
    injection). *)
val write_global_ints : t -> string -> int64 array -> unit

(** Overwrite a global's cells with float data. *)
val write_global_floats : t -> string -> float array -> unit
