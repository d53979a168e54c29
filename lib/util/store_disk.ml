(** Persistent content-addressed artifact backend.

    On-disk layout (format version 3): append-only segment files

    {v <root>/seg/<time>-<pid>-<seq>.seg       committed segments
       <root>/seg/<pid>-<seq>.tmp              a writer's open segment v}

    A segment is a run of records followed by a trailing index and a
    fixed-size footer:

    {v record* | index | footer v}

    Each record is the envelope of one artifact:

    {v "JTSE" magic | version byte | builder string | payload digest
       (hex, for integrity) | payload bytes v}

    with the three fields after the version Binio-framed.  The index is
    a Binio list of [(stage, digest-hex, offset, length)], one per
    record in append order; the footer is

    {v "JTSF" | version byte | index offset (8 bytes LE)
       | index length (8 bytes LE) | index digest (16 hex chars) v}

    Writers: each backend streams every put's envelope into at most one
    open temporary segment.  {!flush} writes the index and the footer
    and then renames the segment to a fresh committed name, which never
    replaces another file; readers only ever open committed segments,
    and only through their footer and index.  A segment torn by a crash
    has no valid footer and reads as absent, so every defect degrades
    to a recompute.

    Readers load the indexes of the committed segments when the backend
    opens and list [seg/] again on every miss, so segments committed by
    other backends and processes become visible at the next miss.  A
    lookup serves the key's first record (in load order) whose envelope
    validates — bad magic or version, framing errors, checksum mismatch
    or trailing bytes skip the record — so a put after a miss on a
    defective record appends a valid one and the key heals.  Bumping
    [version] invalidates old records the same way; version 2 per-entry
    files under [<root>/<stage>/] are never read.

    A flush that leaves more than [max_segments] committed segments
    merges the smallest of them into one (see [compact_locked]), so the
    segment count, and with it the cost of opening a backend, stays
    bounded however many runs have written to the store. *)

let magic = "JTSE"

(* 3: records live in append-only segment files with a trailing index;
   the envelope itself is unchanged from version 2. *)
let version = 3

let footer_magic = "JTSF"

(* magic, version byte, two 8-byte offsets, 16 hex digits *)
let footer_size = 4 + 1 + 8 + 8 + 16

(* Unique temp and segment names within one process; the pid
   namespaces concurrent processes sharing a store root. *)
let seq = Atomic.make 0

let mkdir_p dir =
  let rec mk d =
    if not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let seg_dir root = Filename.concat root "seg"

let encode_envelope ~builder ~payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b magic;
  Binio.w_byte b version;
  Binio.w_string b builder;
  Binio.w_string b Digest.(to_hex (of_string payload));
  Binio.w_string b payload;
  Buffer.contents b

(* Returns [(builder, payload)], raising [Binio.Corrupt] on any defect. *)
let decode_envelope bytes =
  let r = Binio.reader bytes in
  let m = try String.sub bytes 0 (String.length magic) with Invalid_argument _ ->
    Binio.corrupt "store entry shorter than magic"
  in
  if not (String.equal m magic) then Binio.corrupt "bad store magic";
  for _ = 1 to String.length magic do
    ignore (Binio.r_byte r)
  done;
  let v = Binio.r_byte r in
  if v <> version then Binio.corrupt "unsupported store version %d" v;
  let builder = Binio.r_string r in
  let checksum = Binio.r_string r in
  let payload = Binio.r_string r in
  if Binio.remaining r <> 0 then Binio.corrupt "trailing bytes in store entry";
  if not (String.equal checksum Digest.(to_hex (of_string payload))) then
    Binio.corrupt "store entry checksum mismatch";
  (builder, payload)

let valid record =
  match decode_envelope record with _ -> true | exception Binio.Corrupt _ -> false

(* [len] bytes of [path] at [off], or [None] on any IO error or short
   file. *)
let read_at path off len =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          try
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            let buf = Bytes.create len in
            let rec fill pos =
              if pos = len then Some (Bytes.unsafe_to_string buf)
              else
                match Unix.read fd buf pos (len - pos) with
                | 0 -> None
                | n -> fill (pos + n)
            in
            fill 0
          with Unix.Unix_error _ -> None)

let file_size path =
  try Some (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> None

let index_digest s = Digest.(to_hex (of_string s))

let encode_index records =
  let b = Buffer.create 4096 in
  Binio.w_list
    (fun b (stage, digest, off, len) ->
      Binio.w_string b stage;
      Binio.w_string b digest;
      Binio.w_int b off;
      Binio.w_int b len)
    b records;
  Buffer.contents b

let encode_footer ~index_off index =
  let b = Bytes.create footer_size in
  Bytes.blit_string footer_magic 0 b 0 4;
  Bytes.set_uint8 b 4 version;
  Bytes.set_int64_le b 5 (Int64.of_int index_off);
  Bytes.set_int64_le b 13 (Int64.of_int (String.length index));
  Bytes.blit_string (index_digest index) 0 b 21 16;
  Bytes.unsafe_to_string b

(* [(index offset, records)] of a committed segment: its records in
   append order, all of them below the index offset.  [None] when its
   footer or index is missing, torn or foreign. *)
let read_segment path =
  match file_size path with
  | None -> None
  | Some size when size < footer_size -> None
  | Some size -> (
      match read_at path (size - footer_size) footer_size with
      | None -> None
      | Some f ->
          let index_off = Int64.to_int (String.get_int64_le f 5) in
          let index_len = Int64.to_int (String.get_int64_le f 13) in
          if
            (not (String.equal (String.sub f 0 4) footer_magic))
            || String.get_uint8 f 4 <> version
            || index_off < 0 || index_len < 0
            || index_off + index_len + footer_size <> size
          then None
          else
            match read_at path index_off index_len with
            | None -> None
            | Some index -> (
                if not (String.equal (index_digest index) (String.sub f 21 16))
                then None
                else
                  let r = Binio.reader index in
                  match
                    Binio.r_list
                      (fun r ->
                        let stage = Binio.r_string r in
                        let digest = Binio.r_string r in
                        let off = Binio.r_int r in
                        let len = Binio.r_int r in
                        if off < 0 || len < 0 || off + len > index_off then
                          Binio.corrupt "record outside the segment";
                        (stage, digest, off, len))
                      r
                  with
                  | records when Binio.remaining r = 0 -> Some (index_off, records)
                  | _ -> None
                  | exception Binio.Corrupt _ -> None))

let is_segment_name n = Filename.check_suffix n ".seg"
let is_temp_name n = Filename.check_suffix n ".tmp"

let segment_names root =
  match Sys.readdir (seg_dir root) with
  | exception Sys_error _ -> []
  | names -> List.sort String.compare (List.filter is_segment_name (Array.to_list names))

(* Where one record lives.  [path] moves from the temp name to the
   committed one when the writer's segment is flushed. *)
type loc = { mutable path : string; off : int; len : int }

type writer = {
  tmp : string;
  oc : out_channel;
  mutable pos : int;
  mutable pending : (string * string * loc) list;  (** newest first *)
}

type t = {
  root : string;
  chaos : Chaos.config;
  lock : Mutex.t;
  (* Every known record of a key, in load order; records found
     defective are dropped. *)
  index : (string * string, loc list) Hashtbl.t;
  loaded : (string, unit) Hashtbl.t;  (** committed segment names seen *)
  mutable writer : writer option;
}

let add_record t stage digest loc =
  let k = (stage, digest) in
  let locs = Option.value ~default:[] (Hashtbl.find_opt t.index k) in
  Hashtbl.replace t.index k (locs @ [ loc ])

let drop_record t stage digest loc =
  let k = (stage, digest) in
  match Hashtbl.find_opt t.index k with
  | None -> ()
  | Some locs -> (
      match List.filter (fun l -> l != loc) locs with
      | [] -> Hashtbl.remove t.index k
      | locs -> Hashtbl.replace t.index k locs)

(* List [seg/] and load the indexes of the segments not seen yet; the
   caller holds the lock.  Returns whether there was any. *)
let refresh_locked t =
  let dir = seg_dir t.root in
  List.fold_left
    (fun fresh name ->
      if Hashtbl.mem t.loaded name then fresh
      else begin
        Hashtbl.replace t.loaded name ();
        let path = Filename.concat dir name in
        (match read_segment path with
        | None -> ()
        | Some (_, records) ->
            List.iter
              (fun (stage, digest, off, len) -> add_record t stage digest { path; off; len })
              records);
        true
      end)
    false (segment_names t.root)

(* A failed write loses the whole open segment: its records are
   forgotten and the file removed. *)
let abandon_locked t w =
  t.writer <- None;
  List.iter (fun (stage, digest, loc) -> drop_record t stage digest loc) w.pending;
  close_out_noerr w.oc;
  try Sys.remove w.tmp with Sys_error _ -> ()

(* The first record of [(stage, digest)] that validates.  Committed
   segments are read outside the lock; a record still in this
   backend's open segment is read under it, after pushing the channel's
   buffer to the file.  A miss lists [seg/] again and, if that found
   new segments — committed by another backend or process, or merged
   from segments this one had indexed — looks once more. *)
let get t ~stage ~digest =
  let locs () =
    Mutex.protect t.lock (fun () ->
        Option.value ~default:[] (Hashtbl.find_opt t.index (stage, digest)))
  in
  let read loc =
    let pending =
      Mutex.protect t.lock (fun () ->
          match t.writer with
          | Some w when String.equal w.tmp loc.path -> (
              try
                Out_channel.flush w.oc;
                Some (read_at loc.path loc.off loc.len)
              with Sys_error _ ->
                abandon_locked t w;
                Some None)
          | _ -> None)
    in
    match pending with Some b -> b | None -> read_at loc.path loc.off loc.len
  in
  let rec first = function
    | [] -> None
    | loc :: rest -> (
        match Option.map decode_envelope (read loc) with
        | Some v -> Some v
        | None | (exception Binio.Corrupt _) ->
            Mutex.protect t.lock (fun () -> drop_record t stage digest loc);
            first rest)
  in
  match first (locs ()) with
  | Some _ as hit -> hit
  | None -> if Mutex.protect t.lock (fun () -> refresh_locked t) then first (locs ()) else None

(* A fresh temporary segment in [dir], named after this process. *)
let create_writer dir =
  (try mkdir_p dir with Unix.Unix_error _ -> ());
  let rec create tries =
    let tmp =
      Filename.concat dir
        (Printf.sprintf "%d-%d.tmp" (Unix.getpid ()) (Atomic.fetch_and_add seq 1))
    in
    match
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ] 0o644
    with
    | fd -> Some { tmp; oc = Unix.out_channel_of_descr fd; pos = 0; pending = [] }
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries > 0 -> create (tries - 1)
    | exception Unix.Unix_error _ -> None
  in
  create 16

(* Append one envelope to [w] and return where it landed. *)
let write_record w ~stage ~digest envelope =
  Out_channel.output_string w.oc envelope;
  let loc = { path = w.tmp; off = w.pos; len = String.length envelope } in
  w.pos <- w.pos + loc.len;
  w.pending <- (stage, digest, loc) :: w.pending;
  loc

(* Write [w]'s index and footer and rename it to a fresh committed name
   (unique per clock, process and sequence number, so it replaces
   nothing).  Returns the name; raises [Sys_error] on an IO failure. *)
let seal dir w =
  let records =
    List.rev_map (fun (stage, digest, loc) -> (stage, digest, loc.off, loc.len)) w.pending
  in
  let index = encode_index records in
  Out_channel.output_string w.oc index;
  Out_channel.output_string w.oc (encode_footer ~index_off:w.pos index);
  Out_channel.close w.oc;
  let name =
    Printf.sprintf "%016x-%010d-%010d.seg"
      (int_of_float (Unix.gettimeofday () *. 1e6))
      (Unix.getpid ()) (Atomic.fetch_and_add seq 1)
  in
  let path = Filename.concat dir name in
  Sys.rename w.tmp path;
  List.iter (fun (_, _, loc) -> loc.path <- path) w.pending;
  name

(* Append one envelope to the open segment, unless a record of the key
   appeared meanwhile.  The torn-write fault plane truncates the
   envelope bytes at rest — below the payload checksum — and indexes
   only what was written, so that record reads as a miss while its
   neighbours are served.  Keyed per (stage, digest): under one chaos
   seed a site is either always or never torn, whatever the
   scheduling. *)
let append t ~stage ~digest ~builder ~payload =
  let envelope = encode_envelope ~builder ~payload in
  let site = stage ^ "/" ^ digest in
  let envelope =
    if Chaos.store_torn t.chaos ~site then
      String.sub envelope 0 (Chaos.torn_length t.chaos ~site ~len:(String.length envelope))
    else envelope
  in
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.index (stage, digest)) then begin
        if t.writer = None then t.writer <- create_writer (seg_dir t.root);
        match t.writer with
        | None -> ()
        | Some w -> (
            (* Best effort: a full disk or permission problem degrades
               the store to pass-through rather than failing the
               pipeline. *)
            try add_record t stage digest (write_record w ~stage ~digest envelope)
            with Sys_error _ -> abandon_locked t w)
      end)

(* A key with a valid record is never written again (first put wins); a
   missing or defective one — garbage, a tear, an older version — gets
   a new record, so a damaged store heals on the next recompute
   instead of missing forever.  A [get] that finds no valid record has
   dropped every defective one, so [append]'s check under the lock lets
   exactly one racing put through. *)
let put t ~stage ~digest ~builder ~payload =
  let known = Mutex.protect t.lock (fun () -> Hashtbl.mem t.index (stage, digest)) in
  if (not known) || Option.is_none (get t ~stage ~digest) then
    append t ~stage ~digest ~builder ~payload

(* Committed segments past this count trigger a merge at the next
   flush. *)
let max_segments = 8

(* Merge the [n - max_segments / 2] smallest committed segments into
   one, so that at most [max_segments / 2 + 1] remain: each key's first
   valid record among them (in commit order) is copied, defective and
   duplicate records are dropped.  The merged segment is committed
   before any source is removed, so a crash at any point loses
   nothing; a source that cannot be read whole is kept.  Picking the
   smallest keeps the cost per merge at the size of the recent writes
   rather than of the whole store.  Other backends that indexed a
   removed source miss on it, list [seg/] again and find the merged
   segment. *)
let compact_locked t =
  let dir = seg_dir t.root in
  let sized =
    List.filter_map
      (fun name -> Option.map (fun size -> (size, name)) (file_size (Filename.concat dir name)))
      (segment_names t.root)
  in
  let n = List.length sized in
  if n > max_segments then
    match create_writer dir with
    | None -> ()
    | Some w -> (
        let sources =
          List.sort compare sized
          |> List.filteri (fun i _ -> i < n - (max_segments / 2))
          |> List.map snd |> List.sort String.compare
        in
        let copied = Hashtbl.create 1024 in
        let copy name =
          let path = Filename.concat dir name in
          match read_segment path with
          | None -> false
          | Some (index_off, records) -> (
              match read_at path 0 index_off with
              | None -> false
              | Some body ->
                  List.iter
                    (fun (stage, digest, off, len) ->
                      let record = String.sub body off len in
                      if
                        (not (Hashtbl.mem copied (stage, digest)))
                        && valid record
                      then begin
                        Hashtbl.replace copied (stage, digest) ();
                        ignore (write_record w ~stage ~digest record)
                      end)
                    records;
                  true)
        in
        let discard () =
          close_out_noerr w.oc;
          try Sys.remove w.tmp with Sys_error _ -> ()
        in
        try
          match List.filter copy sources with
          | [] -> discard ()
          | merged ->
              let name = seal dir w in
              Hashtbl.replace t.loaded name ();
              let gone = List.map (Filename.concat dir) merged in
              List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) gone;
              Hashtbl.filter_map_inplace
                (fun _ locs ->
                  match List.filter (fun l -> not (List.mem l.path gone)) locs with
                  | [] -> None
                  | locs -> Some locs)
                t.index;
              List.iter
                (fun (stage, digest, loc) -> add_record t stage digest loc)
                (List.rev w.pending)
        with Sys_error _ | Unix.Unix_error _ -> discard ())

let flush t =
  Mutex.protect t.lock (fun () ->
      match t.writer with
      | None -> ()
      | Some w -> (
          match seal (seg_dir t.root) w with
          | name ->
              t.writer <- None;
              Hashtbl.replace t.loaded name ();
              compact_locked t
          | exception (Sys_error _ | Unix.Unix_error _) -> abandon_locked t w))

let entries t () =
  Mutex.protect t.lock (fun () ->
      ignore (refresh_locked t);
      let per = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (stage, _) locs ->
          match locs with
          | [] -> ()
          | loc :: _ ->
              let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt per stage) in
              Hashtbl.replace per stage (n + 1, b + loc.len))
        t.index;
      Hashtbl.fold (fun s (n, b) acc -> (s, n, b) :: acc) per []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b))

let locate ~root ~stage ~digest =
  List.find_map
    (fun name ->
      let path = Filename.concat (seg_dir root) name in
      Option.bind (read_segment path) (fun (_, records) ->
          List.find_map
            (fun (s, d, off, len) ->
              if String.equal s stage && String.equal d digest then Some (path, off, len)
              else None)
            records))
    (segment_names root)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
  | exception Unix.Unix_error _ -> false

let temp_pid name =
  match String.index_opt name '-' with
  | None -> None
  | Some i -> int_of_string_opt (String.sub name 0 i)

(* A writer that crashed before its flush leaks its temp segment;
   nothing ever reads it, so without this sweep orphans accumulate
   forever.  Only segments whose writing process is gone are removed:
   this process's own and other live writers' segments are kept. *)
let sweep_orphans ~root =
  let dir = seg_dir root in
  let me = Unix.getpid () in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun removed n ->
          match temp_pid n with
          | Some pid when is_temp_name n && pid > 0 && pid <> me && not (pid_alive pid) -> (
              try
                Sys.remove (Filename.concat dir n);
                removed + 1
              with Sys_error _ -> removed)
          | _ -> removed)
        0 names

let temp_segments ~root =
  match Sys.readdir (seg_dir root) with
  | exception Sys_error _ -> 0
  | names -> Array.fold_left (fun n name -> if is_temp_name name then n + 1 else n) 0 names

let backend ?(chaos = Chaos.none) ~root () : Artifact.backend =
  mkdir_p (seg_dir root);
  ignore (sweep_orphans ~root);
  let t =
    {
      root;
      chaos;
      lock = Mutex.create ();
      index = Hashtbl.create 1024;
      loaded = Hashtbl.create 16;
      writer = None;
    }
  in
  Mutex.protect t.lock (fun () -> ignore (refresh_locked t));
  {
    Artifact.backend_kind = "disk:" ^ root;
    backend_get = (fun ~stage ~digest -> get t ~stage ~digest);
    backend_put =
      (fun ~stage ~digest ~builder ~payload -> put t ~stage ~digest ~builder ~payload);
    backend_entries = entries t;
    backend_flush = (fun () -> flush t);
  }
