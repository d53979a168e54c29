(** Lightweight span tracer with a Chrome-trace exporter.

    Every pipeline stage (compile, profile, prune, MAXMISO, estimate,
    select, VHDL generation, each CAD stage) can be wrapped in a span;
    the collected spans export as Chrome's
    {{:https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU}
    trace-event JSON} and load directly into [chrome://tracing] or
    Perfetto.

    The recorder is thread-safe: spans may be emitted concurrently from
    every domain of a {!Pool}-driven sweep; each event carries the
    domain id as its [tid] so parallel lanes render side by side.

    Two kinds of spans coexist:
    - {b wall-clock spans} ({!span}) measure real elapsed time of the
      live pipeline stages;
    - {b synthetic spans} ({!add}) carry externally supplied
      timestamps/durations — used for the {e simulated} CAD stages,
      whose minutes-long durations are modelled, not lived.

    The export puts the two clocks in separate trace processes: pid 1
    holds wall-clock spans, pid 2 the spans added with [~simulated:true],
    so minutes of modelled CAD time do not stretch the wall timeline. *)

type event = {
  name : string;
  cat : string;
  ts : float;   (** seconds since the Unix epoch *)
  dur : float;  (** seconds *)
  tid : int;
  args : (string * string) list;
  simulated : bool;  (** on the simulated-time timeline, not wall clock *)
}

type t = { mutable events : event list; lock : Mutex.t }

let create () = { events = []; lock = Mutex.create () }

let now = Unix.gettimeofday

(** Record a fully specified event.  [~simulated:true] puts it on the
    simulated-time timeline (the modelled CAD stages). *)
let add (t : t) ?(cat = "pipeline") ?(args = []) ?tid ?(simulated = false)
    ~name ~ts ~dur () =
  let tid = match tid with Some i -> i | None -> (Domain.self () :> int) in
  let e = { name; cat; ts; dur; tid; args; simulated } in
  Mutex.protect t.lock (fun () -> t.events <- e :: t.events)

(** [span tracer name f] runs [f ()], recording its wall-clock duration
    when a tracer is present.  [None] makes the span free, so call
    sites can trace unconditionally.  The span is recorded even when
    [f] raises. *)
let span (t : t option) ?cat ?args name (f : unit -> 'a) : 'a =
  match t with
  | None -> f ()
  | Some t -> (
      let ts = now () in
      let finish () = add t ?cat ?args ~name ~ts ~dur:(now () -. ts) () in
      match f () with
      | r ->
          finish ();
          r
      | exception exn ->
          finish ();
          raise exn)

(** All recorded events, oldest first. *)
let events (t : t) : event list =
  let es = Mutex.protect t.lock (fun () -> t.events) in
  List.sort (fun a b -> compare (a.ts, a.name) (b.ts, b.name)) es

let wall_pid = 1
let simulated_pid = 2

let event_to_json (e : event) =
  let args =
    match e.args with
    | [] -> ""
    | args ->
        let fields =
          List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
            args
        in
        Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":%d,\"tid\":%d%s}"
    (Json.escape e.name) (Json.escape e.cat)
    (e.ts *. 1e6) (e.dur *. 1e6)
    (if e.simulated then simulated_pid else wall_pid)
    e.tid args

let process_name pid name =
  Printf.sprintf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
    pid name

(** Export as a Chrome trace-event JSON document. *)
let to_json (t : t) : string =
  let body =
    String.concat ",\n  "
      (process_name wall_pid "wall clock"
      :: process_name simulated_pid "simulated CAD time"
      :: List.map event_to_json (events t))
  in
  Printf.sprintf
    "{\"traceEvents\":[\n  %s\n],\"displayTimeUnit\":\"ms\"}\n" body

(** Write the Chrome trace to [path]. *)
let write (t : t) (path : string) : unit =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json t))
