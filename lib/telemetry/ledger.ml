type record = Trace.point

let enable b = Atomic.set Trace.ledger_armed b

let lock = Mutex.create ()
let current_label = ref ""
let recorded : record list ref = ref []

let set_label l =
  Mutex.lock lock;
  current_label := l;
  Mutex.unlock lock

let label () =
  Mutex.lock lock;
  let l = !current_label in
  Mutex.unlock lock;
  l

let add r =
  if Atomic.get Trace.ledger_armed then begin
    Mutex.lock lock;
    recorded := r :: !recorded;
    Mutex.unlock lock
  end

let records () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.rev l

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

(* Identity of a record: everything but durations.  Sorting on it makes
   the written ledger independent of completion order, so --jobs N and
   --jobs 1 runs produce the same record sequence. *)
let identity (r : record) =
  (r.label, r.request, r.config, r.models, r.capacity, r.loop, r.fp, r.ok, r.error)

let compare_records a b = compare (identity a) (identity b)

let opt_int = function None -> Json.Null | Some v -> Json.Int v

let to_json (r : record) =
  Json.Obj
    ([ ("label", Json.String r.label) ]
    (* emitted only when set, so batch ledgers keep their pre-request
       byte layout (the shard-merge byte gate depends on it) *)
    @ (if r.request = "" then [] else [ ("request", Json.String r.request) ])
    @ [
      ("loop", Json.String r.loop);
      ("config", Json.String r.config);
      ("fp", Json.String r.fp);
      ("models", Json.String r.models);
      ("capacity", opt_int r.capacity);
      ("clusters", opt_int r.clusters);
      ("mii", opt_int r.mii);
      ("ii", opt_int r.ii);
      ("rounds", opt_int r.rounds);
      ("spilled", opt_int r.spilled);
      ("requirement", opt_int r.requirement);
      ("maxlive", opt_int r.maxlive);
      ("spill_full", opt_int r.spill_full);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int r.cache_hits);
            ("misses", Json.Int r.cache_misses);
            ("disk_hits", Json.Int r.disk_hits);
            ("disk_misses", Json.Int r.disk_misses);
          ] );
      ("stages", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.stages));
      ("total_ns", Json.Int r.total_ns);
      ("ok", Json.Bool r.ok);
      ("error", match r.error with None -> Json.Null | Some e -> Json.String e);
    ])

let field name fields = List.assoc_opt name fields

let of_json json =
  let ( let* ) r f = Result.bind r f in
  match json with
  | Json.Obj fields ->
    let str name =
      match field name fields with
      | Some (Json.String s) -> Ok s
      | _ -> Error (Printf.sprintf "ledger record: missing string field %S" name)
    in
    let int name =
      match field name fields with
      | Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "ledger record: missing int field %S" name)
    in
    let int_opt name =
      match field name fields with
      | Some (Json.Int i) -> Ok (Some i)
      | Some Json.Null | None -> Ok None
      | _ -> Error (Printf.sprintf "ledger record: bad optional int field %S" name)
    in
    let* label = str "label" in
    let request =
      match field "request" fields with Some (Json.String s) -> s | _ -> ""
    in
    let* loop = str "loop" in
    let* config = str "config" in
    let* fp = str "fp" in
    let* models = str "models" in
    let* capacity = int_opt "capacity" in
    let* clusters = int_opt "clusters" in
    let* mii = int_opt "mii" in
    let* ii = int_opt "ii" in
    let* rounds = int_opt "rounds" in
    let* spilled = int_opt "spilled" in
    let* requirement = int_opt "requirement" in
    let* maxlive = int_opt "maxlive" in
    let* spill_full = int_opt "spill_full" in
    let* cache_hits, cache_misses, disk_hits, disk_misses =
      match field "cache" fields with
      | Some (Json.Obj cf) -> (
        (* Disk counters default to 0 so ledgers written before the disk
           tier existed still parse. *)
        let disk name =
          match field name cf with
          | Some (Json.Int i) -> Some i
          | None -> Some 0
          | _ -> None
        in
        match (field "hits" cf, field "misses" cf, disk "disk_hits", disk "disk_misses") with
        | Some (Json.Int h), Some (Json.Int m), Some dh, Some dm -> Ok (h, m, dh, dm)
        | _ -> Error "ledger record: bad \"cache\" object")
      | _ -> Error "ledger record: missing \"cache\" object"
    in
    let* stages =
      match field "stages" fields with
      | Some (Json.Obj sf) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Json.Int ns -> Ok ((k, ns) :: acc)
            | _ -> Error (Printf.sprintf "ledger record: stage %S is not an int" k))
          (Ok []) sf
        |> Result.map List.rev
      | _ -> Error "ledger record: missing \"stages\" object"
    in
    let* total_ns = int "total_ns" in
    let* ok =
      match field "ok" fields with
      | Some (Json.Bool b) -> Ok b
      | _ -> Error "ledger record: missing bool field \"ok\""
    in
    let* error =
      match field "error" fields with
      | Some Json.Null | None -> Ok None
      | Some (Json.String e) -> Ok (Some e)
      | _ -> Error "ledger record: bad \"error\" field"
    in
    Ok
      {
        Trace.label;
        request;
        loop;
        config;
        fp;
        models;
        capacity;
        clusters;
        mii;
        ii;
        rounds;
        spilled;
        requirement;
        maxlive;
        spill_full;
        cache_hits;
        cache_misses;
        disk_hits;
        disk_misses;
        stages;
        total_ns;
        ok;
        error;
      }
  | _ -> Error "ledger record: not a JSON object"

let parse_line line = Result.bind (Json.of_string line) of_json

let to_jsonl records =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Json.to_compact (to_json r));
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

let write ~path =
  Json.write_file ~prefix:".ledger" ~path
    (to_jsonl (List.stable_sort compare_records (records ())))

let load ~path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let rec parse i = function
    | [] -> Ok []
    | "" :: rest -> parse (i + 1) rest
    | line :: rest -> (
      match parse_line line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" i msg)
      | Ok r -> Result.map (fun rs -> r :: rs) (parse (i + 1) rest))
  in
  parse 1 lines
