type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_text x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let is_scalar = function List (_ :: _) | Obj (_ :: _) -> false | _ -> true

let to_string v =
  let b = Buffer.create 4096 in
  let rec value indent = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | (Float x | Fixed (_, x)) when not (Float.is_finite x) ->
        Buffer.add_string b "null"
    | Float x -> Buffer.add_string b (float_text x)
    | Fixed (d, x) -> Printf.bprintf b "%.*f" d x
    | String s -> Printf.bprintf b "\"%s\"" (escape s)
    | List items ->
        container indent '[' ']' (List.map (fun v -> (None, v)) items)
    | Obj fields ->
        container indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) fields)
  and container indent op cl items =
    let one_line = List.for_all (fun (_, v) -> is_scalar v) items in
    let inner = indent ^ "  " in
    Buffer.add_char b op;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char b ',';
        if one_line then (if i > 0 then Buffer.add_char b ' ')
        else (
          Buffer.add_char b '\n';
          Buffer.add_string b inner);
        Option.iter (fun k -> Printf.bprintf b "\"%s\": " (escape k)) key;
        value inner v)
      items;
    if not one_line then (
      Buffer.add_char b '\n';
      Buffer.add_string b indent);
    Buffer.add_char b cl
  in
  value "" v;
  Buffer.contents b

let write path v =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string v);
      Out_channel.output_char oc '\n')
