(** A JSON value and its printer, for the machine-readable reports
    ([BENCH_*.json]) and the trace exporter's string escaping.

    Numbers carry their own rendering: a report that prints a ratio
    with four decimals and a count with none says so in the value, so
    the printer needs no format strings.  A non-finite float (NaN,
    [±infinity]) prints as [null], since JSON has no spelling for it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** the shortest text that reads back as the same float *)
  | Fixed of int * float  (** [Fixed (d, x)]: [x] with [d] decimals, as [%.*f] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    quote, backslash and control characters escaped. *)

val to_string : t -> string
(** Render with two-space indentation.  A list or object whose elements
    are all scalars (or empty containers) stays on one line; any other
    puts one element per line. *)

val write : string -> t -> unit
(** [write path v] writes [to_string v] and a final newline to [path]. *)
