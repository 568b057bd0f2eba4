module Json = Json

let now_ns = Trace.now_ns
let now () = float_of_int (now_ns ()) *. 1e-9

type span = {
  total_s : float;
  self_s : float;
  count : int;
  max_s : float;
}

(* Counters are Atomic cells in one global table, created under the
   lock (creation is rare, increments are lock-free).  Span records
   live in the per-thread Trace shards (Trace.stage), merged by name at
   read time. *)
let on = Atomic.make false
let lock = Mutex.create ()
let counter_tbl : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16

let enable b = Atomic.set on b

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter_cell name =
  match Hashtbl.find_opt counter_tbl name with
  | Some c -> c
  | None ->
    with_lock (fun () ->
        match Hashtbl.find_opt counter_tbl name with
        | Some c -> c
        | None ->
          let c = Atomic.make 0 in
          Hashtbl.add counter_tbl name c;
          c)

let incr ?(by = 1) name =
  if Atomic.get on then ignore (Atomic.fetch_and_add (counter_cell name) by)

let counter name =
  match Hashtbl.find_opt counter_tbl name with
  | Some c -> Atomic.get c
  | None -> 0

(* The thunk always runs; with both telemetry and tracing off the only
   cost is two atomic loads.  When armed, one frame on the calling
   thread's stage stack feeds the span accumulator (metrics), the
   ambient point (ledger) and the event ring (trace) as applicable. *)
let time name f =
  let metrics = Atomic.get on in
  if not (metrics || Trace.active ()) then f () else Trace.stage ~metrics name f

let seconds ns = float_of_int ns /. 1e9

(* Per-name totals over every shard, with each name's sample rings. *)
let merged () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, (a : Trace.acc)) ->
      let (count, total, self, mx), rings =
        Option.value (Hashtbl.find_opt tbl name) ~default:((0, 0, 0, 0), [])
      in
      Hashtbl.replace tbl name
        ( (count + a.count, total + a.total_ns, self + a.self_ns, max mx a.max_ns),
          a.samples :: rings ))
    (Trace.accs ());
  Hashtbl.fold
    (fun name ((count, total, self, mx), rings) acc ->
      ( name,
        ( { total_s = seconds total; self_s = seconds self; count; max_s = seconds mx },
          rings ) )
      :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let spans () = List.map (fun (name, (s, _)) -> (name, s)) (merged ())

let span_count name =
  match List.assoc_opt name (merged ()) with Some (s, _) -> s.count | None -> 0

let counters () =
  with_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, Atomic.get v) :: acc) counter_tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  with_lock (fun () -> Hashtbl.reset counter_tbl);
  Trace.reset_accs ()

let spans_json () =
  Json.Obj
    (List.map
       (fun (name, (s, rings)) ->
         let pct = Ring.percentiles rings in
         ( name,
           Json.Obj
             [
               ("total_s", Json.Float s.total_s);
               ("count", Json.Int s.count);
               ("max_s", Json.Float s.max_s);
               ("p50_s", Json.Float (pct 50.0));
               ("p90_s", Json.Float (pct 90.0));
               ("p99_s", Json.Float (pct 99.0));
               ("self_s", Json.Float s.self_s);
             ] ))
       (merged ()))

let to_json () =
  Json.Obj
    [
      ("spans", spans_json ());
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())));
    ]

let write_json ~path json =
  Json.write_file ~prefix:".metrics" ~path (Json.to_string json ^ "\n")
