external now_ns : unit -> (int[@untagged])
  = "ncdrf_monotonic_ns" "ncdrf_monotonic_ns_untagged"
[@@noalloc]

type event = {
  name : string;
  phase : char;
  ts_ns : int;
  track : int;
  request : string;
  loop : string;
  config : string;
  ii : int;
}

type acc = {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable max_ns : int;
  samples : float Ring.t;
}

(* The per-point record and the ledger line: stamped by the pipeline
   while installed as a shard's ambient context, then stored as is. *)
type point = {
  label : string;
  request : string;
  loop : string;
  config : string;
  fp : string;
  models : string;
  capacity : int option;
  mutable clusters : int option;
  mutable mii : int option;
  mutable ii : int option;
  mutable rounds : int option;
  mutable spilled : int option;
  mutable requirement : int option;
  mutable maxlive : int option;
  mutable spill_full : int option;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable stages : (string * int) list;
  mutable total_ns : int;
  mutable ok : bool;
  mutable error : string option;
}

(* One shard per (domain, thread): the event ring, the ambient point
   context and request id, and the stage record — the stack of open
   {!stage} frames ([open_child.(i)] is the inclusive time of the
   children that frame [i] has seen so far) and the per-name
   accumulators fed when frames close.  A shard is only ever written by
   its owning thread; readers run after workers and connection handlers
   have quiesced. *)
type shard = {
  mutable track : int;
  mutable ring : event Ring.t;
  mutable ctx : point option;
  mutable request : string;
  mutable open_child : int array;
  mutable depth : int;
  accs : (string, acc) Hashtbl.t;
}

let events_on = Atomic.make false
let ledger_armed = Atomic.make false
let ring_capacity = 65536
let sample_cap = 65536

(* The registry is keyed by (domain id, thread id), the same composite
   key Ncdrf_error.Deadline uses: connection-handler systhreads in the
   serving daemon all run on domain 0 and would trample a Domain.DLS
   slot, while pool workers are separate domains — the composite key
   isolates both.  Keys are never reused (domain and thread ids are
   monotonic), so a shard, once registered, is owned by exactly one
   thread forever. *)
let registry_lock = Mutex.create ()
let table : (int * int, shard) Hashtbl.t = Hashtbl.create 16
let shards : shard list ref = ref []

(* Track assignment: the first thread of a domain gets the domain id
   (so batch runs keep their historical domain-numbered tracks, and
   pool workers overwrite theirs with the slot id via [set_track]);
   additional systhreads on an already-tracked domain — the daemon's
   connection handlers — get tracks from [aux_track_base] up, in
   registration order. *)
let aux_track_base = 1000
let domain_tracked : (int, unit) Hashtbl.t = Hashtbl.create 16
let next_aux_track = ref aux_track_base

let key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let dummy_event =
  { name = ""; phase = '?'; ts_ns = 0; track = 0; request = ""; loop = ""; config = "";
    ii = -1 }

let new_ring () = Ring.create ~cap:ring_capacity dummy_event

let my () =
  let (dom, _) as k = key () in
  Mutex.lock registry_lock;
  let s =
    match Hashtbl.find_opt table k with
    | Some s -> s
    | None ->
      let track =
        if Hashtbl.mem domain_tracked dom then begin
          let t = !next_aux_track in
          incr next_aux_track;
          t
        end
        else begin
          Hashtbl.add domain_tracked dom ();
          dom
        end
      in
      let s =
        { track; ring = new_ring (); ctx = None; request = ""; open_child = Array.make 8 0;
          depth = 0; accs = Hashtbl.create 8 }
      in
      Hashtbl.add table k s;
      shards := s :: !shards;
      s
  in
  Mutex.unlock registry_lock;
  s

let enable b = Atomic.set events_on b
let active () = Atomic.get events_on || Atomic.get ledger_armed
let set_track id = (my ()).track <- id

let all_shards () =
  Mutex.lock registry_lock;
  let l = !shards in
  Mutex.unlock registry_lock;
  l

(* ------------------------------------------------------------------ *)
(* Request scope                                                       *)
(* ------------------------------------------------------------------ *)

(* The ambient request id is installed unconditionally (not gated on
   [active]): it costs one registry lookup at scope entry, is only
   entered by the serving daemon, and the id must be visible to the
   ledger even when the event trace itself is off. *)
let with_request ~id f =
  let s = my () in
  let saved = s.request in
  s.request <- id;
  Fun.protect ~finally:(fun () -> s.request <- saved) f

(* Read-only: never registers a shard, so callers that run whether or
   not anything is armed (every pool submission) do not grow the
   registry. *)
let current_request () =
  let k = key () in
  Mutex.lock registry_lock;
  let r =
    match Hashtbl.find_opt table k with Some s -> s.request | None -> ""
  in
  Mutex.unlock registry_lock;
  r

let inherit_request () =
  match current_request () with
  | "" -> fun f -> f ()
  | id -> fun f -> with_request ~id f

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let emit s ~name ~phase =
  let loop, config, ii =
    match s.ctx with
    | Some p -> (p.loop, p.config, Option.value p.ii ~default:(-1))
    | None -> ("", "", -1)
  in
  Ring.add s.ring
    { name; phase; ts_ns = now_ns (); track = s.track; request = s.request; loop;
      config; ii }

let begin_span name = if Atomic.get events_on then emit (my ()) ~name ~phase:'B'
let end_span name = if Atomic.get events_on then emit (my ()) ~name ~phase:'E'
let instant name = if Atomic.get events_on then emit (my ()) ~name ~phase:'i'

let with_context p f =
  let s = my () in
  let saved = s.ctx in
  s.ctx <- Some p;
  Fun.protect ~finally:(fun () -> s.ctx <- saved) f

let current () = if active () then (my ()).ctx else None
let update f = match current () with Some p -> f p | None -> ()

let note_cache ~hit =
  match current () with
  | Some p ->
    if hit then p.cache_hits <- p.cache_hits + 1 else p.cache_misses <- p.cache_misses + 1
  | None -> ()

let note_disk ~hit =
  match current () with
  | Some p ->
    if hit then p.disk_hits <- p.disk_hits + 1 else p.disk_misses <- p.disk_misses + 1
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Stage record                                                        *)
(* ------------------------------------------------------------------ *)

(* Stages stay name-sorted, the order the ledger writes them in. *)
let rec add_stage name ns = function
  | [] -> [ (name, ns) ]
  | ((n, v) as st) :: rest ->
    let c = String.compare n name in
    if c = 0 then (n, v + ns) :: rest
    else if c > 0 then (name, ns) :: st :: rest
    else st :: add_stage name ns rest

let record s name ~dur ~self =
  let a =
    match Hashtbl.find_opt s.accs name with
    | Some a -> a
    | None ->
      let a =
        { count = 0; total_ns = 0; self_ns = 0; max_ns = 0;
          samples = Ring.create ~cap:sample_cap 0.0 }
      in
      Hashtbl.add s.accs name a;
      a
  in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + self;
  if dur > a.max_ns then a.max_ns <- dur;
  Ring.add a.samples (float_of_int dur /. 1e9)

(* One frame per call: self time is the frame's duration minus the
   inclusive durations of the frames nested in it on this thread, so
   the self times of a point's stages are disjoint and sum to at most
   the point's wall time. *)
let stage ~metrics name f =
  let s = my () in
  let d = s.depth in
  if d = Array.length s.open_child then begin
    let grown = Array.make (2 * d) 0 in
    Array.blit s.open_child 0 grown 0 d;
    s.open_child <- grown
  end;
  s.open_child.(d) <- 0;
  s.depth <- d + 1;
  if Atomic.get events_on then emit s ~name ~phase:'B';
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dur = now_ns () - t0 in
      let self = dur - s.open_child.(d) in
      s.depth <- d;
      if d > 0 then s.open_child.(d - 1) <- s.open_child.(d - 1) + dur;
      if metrics then record s name ~dur ~self;
      (match s.ctx with Some p -> p.stages <- add_stage name self p.stages | None -> ());
      if Atomic.get events_on then emit s ~name ~phase:'E')
    f

let accs () =
  List.concat_map
    (fun s -> Hashtbl.fold (fun name a acc -> (name, a) :: acc) s.accs [])
    (all_shards ())

let reset_accs () = List.iter (fun s -> Hashtbl.reset s.accs) (all_shards ())

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

(* Shards sort by (track id, first timestamp): track ids repeat across
   pool generations (every pool numbers its workers 1..n-1), and a
   stable chronological order within one track keeps per-track event
   streams monotonic for trace viewers. *)
let events () =
  all_shards ()
  |> List.map (fun s -> (s, Ring.to_list s.ring))
  |> List.filter (fun (_, evs) -> evs <> [])
  |> List.sort (fun (a, ae) (b, be) ->
         match compare a.track b.track with
         | 0 -> Int.compare (List.hd ae).ts_ns (List.hd be).ts_ns
         | c -> c)
  |> List.concat_map snd

let dropped () = List.fold_left (fun acc s -> acc + Ring.dropped s.ring) 0 (all_shards ())
let reset () = List.iter (fun s -> s.ring <- new_ring ()) (all_shards ())

let to_chrome () =
  let evs = events () in
  let t0 =
    List.fold_left
      (fun acc e -> Int.min e.ts_ns acc)
      (match evs with [] -> 0 | e :: _ -> e.ts_ns)
      evs
  in
  let tids =
    List.sort_uniq compare (List.map (fun (e : event) -> e.track) evs)
  in
  let track_name tid =
    if tid >= aux_track_base then Printf.sprintf "conn-%d" (tid - aux_track_base)
    else Printf.sprintf "domain-%d" tid
  in
  let thread_meta tid =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String (track_name tid)) ]);
      ]
  in
  let event_json (e : event) =
    let args =
      (if e.request = "" then [] else [ ("request", Json.String e.request) ])
      @ (if e.loop = "" then [] else [ ("loop", Json.String e.loop) ])
      @ (if e.config = "" then [] else [ ("config", Json.String e.config) ])
      @ if e.ii < 0 then [] else [ ("ii", Json.Int e.ii) ]
    in
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("cat", Json.String "stage");
         ("ph", Json.String (String.make 1 e.phase));
         ("pid", Json.Int 1);
         ("tid", Json.Int e.track);
         ("ts", Json.Float (float_of_int (e.ts_ns - t0) /. 1000.0));
       ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (List.map thread_meta tids @ List.map event_json evs) );
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome ~path = Json.write_file ~prefix:".trace" ~path (Json.to_string (to_chrome ()) ^ "\n")
