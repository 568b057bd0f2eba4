let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Field helpers *)

let fields_of = function Json.Obj f -> f | _ -> []
let field name fields = List.assoc_opt name fields

let num = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let int_field name fields =
  match field name fields with Some (Json.Int i) -> Some i | _ -> None

let sum_floats name objs =
  List.fold_left
    (fun acc o -> acc +. Option.value ~default:0.0 (num (field name (fields_of o))))
    0.0 objs

let sum_ints name objs =
  List.fold_left
    (fun acc o -> acc + Option.value ~default:0 (int_field name (fields_of o)))
    0 objs

let max_int_field name objs =
  List.fold_left
    (fun acc o -> max acc (Option.value ~default:0 (int_field name (fields_of o))))
    0 objs

let rate ~count ~seconds =
  if seconds > 0.0 then Json.Float (float_of_int count /. seconds) else Json.Null

(* ------------------------------------------------------------------ *)
(* Span merge: {total_s, count, max_s, [p50_s, p90_s, p99_s]}.
   Totals and counts sum, max takes the max; percentiles merge by
   count-weighted average — the files do not carry raw samples, and
   percentiles are timing fields outside the byte-comparability
   contract, so the approximation is explicit and acceptable. *)

let merge_span_objs objs =
  let total_s = sum_floats "total_s" objs in
  let count = sum_ints "count" objs in
  let max_s =
    List.fold_left
      (fun acc o -> Float.max acc (Option.value ~default:0.0 (num (field "max_s" (fields_of o)))))
      0.0 objs
  in
  let weighted name =
    let wsum, csum =
      List.fold_left
        (fun (ws, cs) o ->
          let f = fields_of o in
          match (num (field name f), int_field "count" f) with
          | Some p, Some c when c > 0 -> (ws +. (p *. float_of_int c), cs + c)
          | _ -> (ws, cs))
        (0.0, 0) objs
    in
    if csum > 0 then Some (wsum /. float_of_int csum) else None
  in
  let dist =
    match weighted "p50_s" with
    | None -> []
    | Some p50 ->
      [
        ("p50_s", Json.Float p50);
        ("p90_s", Json.Float (Option.value ~default:0.0 (weighted "p90_s")));
        ("p99_s", Json.Float (Option.value ~default:0.0 (weighted "p99_s")));
      ]
  in
  Json.Obj
    ([ ("total_s", Json.Float total_s); ("count", Json.Int count);
       ("max_s", Json.Float max_s) ]
    @ dist)

(* Union of keyed sub-objects ({"spans": {...}}, {"stages": {...}}),
   name-sorted like the writers emit them. *)
let union_names objs =
  List.concat_map (fun o -> List.map fst (fields_of o)) objs
  |> List.sort_uniq String.compare

let merge_keyed merge_one objs =
  Json.Obj
    (List.map
       (fun name ->
         (name, merge_one (List.filter_map (fun o -> field name (fields_of o)) objs)))
       (union_names objs))

let merge_counter_objs objs =
  merge_keyed
    (fun vals ->
      Json.Int
        (List.fold_left
           (fun acc v -> match v with Json.Int i -> acc + i | _ -> acc)
           0 vals))
    objs

let merge_telemetry objs =
  let part name = List.filter_map (fun o -> field name (fields_of o)) objs in
  Json.Obj
    [
      ("spans", merge_keyed merge_span_objs (part "spans"));
      ("counters", merge_counter_objs (part "counters"));
    ]

let merged_counter name objs =
  List.fold_left
    (fun acc o ->
      match field "counters" (fields_of o) with
      | Some (Json.Obj cs) -> (
        match field name cs with Some (Json.Int i) -> acc + i | _ -> acc)
      | _ -> acc)
    0 objs

(* Failures blocks are lists of failure records; a merged run saw the
   union of its shards' failures. *)
let merge_failures objs =
  let entries =
    List.concat_map
      (fun o ->
        match field "failures" (fields_of o) with
        | Some (Json.List l) -> l
        | _ -> [])
      objs
  in
  if entries = [] then [] else [ ("failures", Json.List entries) ]

(* ------------------------------------------------------------------ *)
(* Per-schema document merge.  Field order mirrors the writers, so a
   single-input merge re-renders an unsharded file into the same shape
   a multi-input merge produces. *)

let merge_suite objs =
  let telemetry = List.filter_map (fun o -> field "telemetry" (fields_of o)) objs in
  let wall = sum_floats "wall_s" objs in
  let loops = merged_counter "pipeline.loops" telemetry in
  Json.Obj
    ([
       ("schema", Json.String "ncdrf-suite-metrics/1");
       ("jobs", Json.Int (max_int_field "jobs" objs));
       ("suite_size", Json.Int (max_int_field "suite_size" objs));
       ("wall_s", Json.Float wall);
       ("loops_per_sec", rate ~count:loops ~seconds:wall);
       ("telemetry", merge_telemetry telemetry);
     ]
    @ merge_failures objs)

let merge_experiments objs =
  let name_of o =
    match field "name" (fields_of o) with Some (Json.String s) -> s | _ -> ""
  in
  let all = List.concat_map (fun o ->
      match field "experiments" (fields_of o) with
      | Some (Json.List l) -> l
      | _ -> [])
      objs
  in
  let order =
    List.fold_left
      (fun acc e -> if List.mem (name_of e) acc then acc else acc @ [ name_of e ])
      [] all
  in
  let merge_one name =
    let parts = List.filter (fun e -> name_of e = name) all in
    let wall = sum_floats "wall_s" parts in
    let loops = sum_ints "loops" parts in
    let stages = List.filter_map (fun e -> field "stages" (fields_of e)) parts in
    let counters = List.filter_map (fun e -> field "counters" (fields_of e)) parts in
    let serial =
      if List.exists (fun e -> field "serial_wall_s" (fields_of e) <> None) parts
      then
        let s = sum_floats "serial_wall_s" parts in
        [
          ("serial_wall_s", Json.Float s);
          ("speedup_vs_serial", if wall > 0.0 then Json.Float (s /. wall) else Json.Null);
        ]
      else []
    in
    Json.Obj
      ([
         ("name", Json.String name);
         ("wall_s", Json.Float wall);
         ("loops", Json.Int loops);
         ("loops_per_sec", rate ~count:loops ~seconds:wall);
         ("stages", merge_keyed merge_span_objs stages);
         ("counters", merge_counter_objs counters);
       ]
      @ serial)
  in
  Json.List (List.map merge_one order)

let merge_bench objs =
  Json.Obj
    ([
       ("schema", Json.String "ncdrf-bench-metrics/1");
       ("jobs", Json.Int (max_int_field "jobs" objs));
       ("recommended_jobs", Json.Int (max_int_field "recommended_jobs" objs));
       ("suite_size", Json.Int (max_int_field "suite_size" objs));
       ("suite_seed", Json.Int (max_int_field "suite_seed" objs));
       ("total_wall_s", Json.Float (sum_floats "total_wall_s" objs));
       ("experiments", merge_experiments objs);
     ]
    @ merge_failures objs)

let merge_serve objs =
  let telemetry = List.filter_map (fun o -> field "telemetry" (fields_of o)) objs in
  (* Latency percentiles merge count-weighted, like span percentiles:
     the documents carry no raw samples. *)
  let latency =
    let parts = List.filter_map (fun o -> field "latency" (fields_of o)) objs in
    let count = sum_ints "count" parts in
    let weighted name =
      let wsum, csum =
        List.fold_left
          (fun (ws, cs) o ->
            let f = fields_of o in
            match (num (field name f), int_field "count" f) with
            | Some p, Some c when c > 0 -> (ws +. (p *. float_of_int c), cs + c)
            | _ -> (ws, cs))
          (0.0, 0) parts
      in
      if csum > 0 then wsum /. float_of_int csum else 0.0
    in
    Json.Obj
      [
        ("count", Json.Int count);
        ("p50_s", Json.Float (weighted "p50_s"));
        ("p90_s", Json.Float (weighted "p90_s"));
        ("p99_s", Json.Float (weighted "p99_s"));
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "ncdrf-serve-metrics/1");
      ("jobs", Json.Int (max_int_field "jobs" objs));
      ("max_inflight", Json.Int (max_int_field "max_inflight" objs));
      ("uptime_s", Json.Float (sum_floats "uptime_s" objs));
      ("requests.served", Json.Int (sum_ints "requests.served" objs));
      ("requests.shed", Json.Int (sum_ints "requests.shed" objs));
      ("requests.inflight", Json.Int (sum_ints "requests.inflight" objs));
      ("requests.queued", Json.Int (sum_ints "requests.queued" objs));
      ( "requests.by_kind",
        merge_counter_objs
          (List.filter_map (fun o -> field "requests.by_kind" (fields_of o)) objs) );
      ("latency", latency);
      ( "errors",
        merge_counter_objs (List.filter_map (fun o -> field "errors" (fields_of o)) objs) );
      ("telemetry", merge_telemetry telemetry);
    ]

let schema_of json =
  match field "schema" (fields_of json) with
  | Some (Json.String s) -> Ok s
  | _ -> Error "metrics document has no \"schema\" field"

let merge_metrics jsons =
  match jsons with
  | [] -> Error "no metrics documents to merge"
  | first :: rest ->
    let* schema = schema_of first in
    let* () =
      List.fold_left
        (fun acc j ->
          let* () = acc in
          let* s = schema_of j in
          if String.equal s schema then Ok ()
          else Error (Printf.sprintf "mixed metrics schemas: %s vs %s" schema s))
        (Ok ()) rest
    in
    (match schema with
    | "ncdrf-suite-metrics/1" -> Ok (merge_suite jsons)
    | "ncdrf-bench-metrics/1" -> Ok (merge_bench jsons)
    | "ncdrf-serve-metrics/1" -> Ok (merge_serve jsons)
    | s -> Error (Printf.sprintf "unknown metrics schema %S" s))

(* ------------------------------------------------------------------ *)
(* Timing normalization *)

let timing_keys =
  [
    "wall_s";
    "total_wall_s";
    "serial_wall_s";
    "speedup_vs_serial";
    "loops_per_sec";
    "uptime_s";
    "total_s";
    "max_s";
    "p50_s";
    "p90_s";
    "p99_s";
  ]

let rec strip_timing = function
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           if List.mem k timing_keys then (k, Json.Null)
           else (k, strip_timing v))
         fields)
  | Json.List items -> Json.List (List.map strip_timing items)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Traces *)

(* Merge Chrome trace-event documents ({!Trace.to_chrome} output, or
   anything with a "traceEvents" list).  Track ids collide across
   independent processes (every daemon numbers domain-0 as tid 0 and
   connection threads from 1000), so each input is re-namespaced onto
   its own pid (input order, 1-based) — viewers render one process lane
   per merged file, and (pid, tid) stays collision-free without
   rewriting tids.  Metadata records (ph "M", thread names) come first
   in input order; timed events follow, stable-sorted by "ts" so
   equal-timestamp events keep input order.  Request-id args pass
   through untouched — they are how cross-file per-request grouping
   survives the merge. *)
let merge_traces jsons =
  match jsons with
  | [] -> Error "no trace documents to merge"
  | _ ->
    let* all =
      List.fold_left
        (fun acc j ->
          let* acc = acc in
          match field "traceEvents" (fields_of j) with
          | Some (Json.List evs) -> Ok (evs :: acc)
          | _ -> Error "trace document has no \"traceEvents\" list")
        (Ok []) jsons
      |> Result.map List.rev
    in
    let renamespace pid ev =
      match ev with
      | Json.Obj fields ->
        Json.Obj
          (List.map (fun (k, v) -> if k = "pid" then (k, Json.Int pid) else (k, v)) fields)
      | other -> other
    in
    let all = List.mapi (fun i evs -> List.map (renamespace (i + 1)) evs) all in
    let is_meta ev =
      match field "ph" (fields_of ev) with Some (Json.String "M") -> true | _ -> false
    in
    let meta = List.concat_map (List.filter is_meta) all in
    let timed = List.concat_map (List.filter (fun e -> not (is_meta e))) all in
    let ts ev = Option.value ~default:0.0 (num (field "ts" (fields_of ev))) in
    let timed = List.stable_sort (fun a b -> Float.compare (ts a) (ts b)) timed in
    Ok
      (Json.Obj
         [
           ("traceEvents", Json.List (meta @ timed));
           ("displayTimeUnit", Json.String "ms");
         ])

(* ------------------------------------------------------------------ *)
(* Ledgers *)

let merge_ledgers shards =
  List.stable_sort Ledger.compare_records (List.concat shards)

let strip_record_timing (r : Ledger.record) =
  { r with Ledger.total_ns = 0; stages = List.map (fun (k, _) -> (k, 0)) r.Ledger.stages }
