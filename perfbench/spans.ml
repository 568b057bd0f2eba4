(* Span recorder for the traced run.  Spans are taken around calls into
   the library's public functions, never inside them: name, start, end,
   parent span and point id, kept in memory and written out at the end.
   The traced composition is serial, so one stack suffices.  With
   recording off, [span] is a plain call. *)

type span = {
  name : string;
  parent : int;
  point : int;
  start : float;
  mutable stop : float;
}

let on = ref false
let spans : span array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []
let point = ref (-1)

let reset () =
  spans := [||];
  count := 0;
  stack := [];
  point := -1

let push s =
  if !count = Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 grown 0 !count;
    spans := grown
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = push { name; parent; point = !point; start = Samples.now (); stop = nan } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        !spans.(id).stop <- Samples.now ();
        stack := List.tl !stack)
      f
  end

let with_point id f =
  point := id;
  f ()

type stats = {
  calls : int;
  self_s : float;  (** summed self time *)
  total_s : float;  (** summed duration, children included *)
  self_samples : float list;  (** per-call self times, seconds *)
}

(* Self time of a span is its duration minus the durations of its
   direct children; per-name totals follow. *)
let by_name () =
  let n = !count in
  let child = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start)
  done;
  let tbl : (string, stats) Hashtbl.t = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    let dur = s.stop -. s.start in
    let self = dur -. child.(i) in
    let prev =
      Option.value (Hashtbl.find_opt tbl s.name)
        ~default:{ calls = 0; self_s = 0.0; total_s = 0.0; self_samples = [] }
    in
    Hashtbl.replace tbl s.name
      {
        calls = prev.calls + 1;
        self_s = prev.self_s +. self;
        total_s = prev.total_s +. dur;
        self_samples = self :: prev.self_samples;
      }
  done;
  fun name ->
    Option.value (Hashtbl.find_opt tbl name)
      ~default:{ calls = 0; self_s = 0.0; total_s = 0.0; self_samples = [] }

(* Chrome-trace-like dump, one complete event per span.  Returns the
   path written. *)
let dump ~path =
  let module Json = Ncdrf_telemetry.Json in
  let t0 = if !count = 0 then 0.0 else !spans.(0).start in
  let us t = Json.Float (Float.round ((t -. t0) *. 1e7) /. 10.0) in
  let event i =
    let s = !spans.(i) in
    Json.Obj
      [
        ("name", Json.String s.name);
        ("id", Json.Int i);
        ("parent", Json.Int s.parent);
        ("point", Json.Int s.point);
        ("start_us", us s.start);
        ("end_us", us s.stop);
      ]
  in
  let body = Json.Obj [ ("spans", Json.List (List.init !count event)) ] in
  let oc = open_out path in
  output_string oc (Json.to_compact body);
  close_out oc;
  path
