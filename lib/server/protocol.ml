(* JSONL wire protocol for `ncdrf serve` / `ncdrf client`.

   One request or response per line, encoded with the Telemetry.Json
   codec.  Parsing is total: every malformed frame — truncated JSON,
   oversized line, unknown request kind, wrong field type — comes back
   as a typed Error.t (category Parse, stage "protocol"), never an
   exception.  Rendering and parsing are exact inverses over the
   protocol types (floats round-trip through the codec's %.9g as long
   as they carry <= 9 significant digits, which every protocol-born
   float does).

   This module also owns the one builder of each work body
   ([schedule_body], [suite_body]) and the one renderer of every body
   ([render_body]).  The batch commands and the daemon build through
   the same builders and print through the same renderer, which is
   what makes the byte-identity invariant structural: `ncdrf suite`
   and `ncdrf client suite` cannot drift apart. *)

module Json = Ncdrf_telemetry.Telemetry.Json
module Error = Ncdrf_error.Error
module Failures = Ncdrf_error.Failures
module Config = Ncdrf_machine.Config
module Model = Ncdrf_core.Model
module Pipeline = Ncdrf_core.Pipeline
module Suite_stats = Ncdrf_core.Suite_stats
module Pool = Ncdrf_parallel.Pool
module Suite = Ncdrf_workloads.Suite

(* A line longer than this is rejected before JSON parsing: the daemon
   must bound the memory one client can make it buffer. 4 MiB leaves
   lots of headroom for suite responses with large failure manifests. *)
let max_frame_bytes = 4 * 1024 * 1024

type workload =
  | Source of string  (** inline loop-language source *)
  | Named of string  (** a named kernel from the workload library *)

type request_kind =
  | Schedule of {
      workload : workload;
      only : string option;  (** compile just the loop with this name *)
      spec : Config.spec;
      model : Model.t;
      capacity : int option;
      spill_batch : int;
      spill_incremental : bool;
      show_kernel : bool;
    }
  | Suite of {
      spec : Config.spec;
      size : int;
      registers : int;
    }
  | Health
  | Stats

type request = {
  id : string;
  timeout_s : float option;
  kind : request_kind;
}

type point = {
  loop : string;
  header : string;  (** the "== ..." line body: [Ddg.pp_stats] text *)
  model : Model.t;
  mii : int;
  ii : int;
  stages : int;
  requirement : int;
  capacity : int option;
  fits : bool;
  spilled : int;
  added_memops : int;
  memops_per_iter : int;
  density : float;
  kernel : string option;  (** rendered VLIW kernel, when requested *)
}

type health = {
  status : string;  (** "ok" or "draining" *)
  uptime_s : float;
  served : int;  (** requests completed (any outcome) *)
  shed : int;  (** requests refused with Overloaded *)
  active : int;  (** requests executing right now *)
  queued : int;  (** requests waiting for an execution slot *)
  queue_bound : int;
  max_inflight : int;
  pool_jobs : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  error_counts : (string * int) list;  (** per-category, sorted by name *)
  kind_counts : (string * int) list;
      (** requests seen per kind ("schedule", "suite", ...), sorted *)
  latency_p50_s : float;  (** percentiles over completed work requests *)
  latency_p90_s : float;  (** (admission wait + execution); 0.0 before *)
  latency_p99_s : float;  (** the first completion *)
}

type response_body =
  | Scheduled of {
      machine : string;  (** [Config.pp] text of the machine compiled on *)
      points : point list;
    }
  | Suite_report of {
      machine : string;
      size : int;
      jobs : int;
      registers : int;
      rows : (Model.t * float * float) list;
          (** (model, % loops allocatable, % cycles) table rows *)
      failures : Error.t list;
    }
  | Health_report of health
  | Failed of Error.t
  | Overloaded of {
      queue_depth : int;
      retry_after_s : float;
    }

type response = {
  req_id : string;
  body : response_body;
}

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let opt_field name conv = function None -> [] | Some v -> [ (name, conv v) ]

let spec_to_json (s : Config.spec) =
  Json.Obj
    ([
       ("latency", Json.Int s.Config.spec_latency);
       ("clusters", Json.Int s.Config.spec_clusters);
     ]
    @ opt_field "read_ports" (fun i -> Json.Int i) s.Config.spec_read_ports
    @ opt_field "write_ports" (fun i -> Json.Int i) s.Config.spec_write_ports)

let workload_to_json = function
  | Source src -> Json.Obj [ ("source", Json.String src) ]
  | Named name -> Json.Obj [ ("kernel", Json.String name) ]

let request_to_json r =
  let kind_fields =
    match r.kind with
    | Schedule s ->
      [ ("kind", Json.String "schedule"); ("workload", workload_to_json s.workload) ]
      @ opt_field "loop" (fun n -> Json.String n) s.only
      @ [
          ("config", spec_to_json s.spec);
          ("model", Json.String (Model.to_string s.model));
        ]
      @ opt_field "capacity" (fun i -> Json.Int i) s.capacity
      @ [
          ("spill_batch", Json.Int s.spill_batch);
          ("spill_incremental", Json.Bool s.spill_incremental);
          ("show_kernel", Json.Bool s.show_kernel);
        ]
    | Suite s ->
      [
        ("kind", Json.String "suite");
        ("config", spec_to_json s.spec);
        ("size", Json.Int s.size);
        ("registers", Json.Int s.registers);
      ]
    | Health -> [ ("kind", Json.String "health") ]
    | Stats -> [ ("kind", Json.String "stats") ]
  in
  Json.Obj
    (("id", Json.String r.id)
     :: (opt_field "timeout_s" (fun f -> Json.Float f) r.timeout_s @ kind_fields))

let error_to_json (e : Error.t) =
  Json.Obj
    ([
       ("category", Json.String (Error.category_name e.Error.category));
       ("stage", Json.String e.Error.stage);
     ]
    @ opt_field "loop" (fun s -> Json.String s) e.Error.loop
    @ opt_field "config" (fun s -> Json.String s) e.Error.config
    @ opt_field "round" (fun i -> Json.Int i) e.Error.round
    @ opt_field "ii" (fun i -> Json.Int i) e.Error.ii
    @ [ ("message", Json.String e.Error.message) ])

let point_to_json p =
  Json.Obj
    ([
       ("loop", Json.String p.loop);
       ("header", Json.String p.header);
       ("model", Json.String (Model.to_string p.model));
       ("mii", Json.Int p.mii);
       ("ii", Json.Int p.ii);
       ("stages", Json.Int p.stages);
       ("requirement", Json.Int p.requirement);
     ]
    @ opt_field "capacity" (fun i -> Json.Int i) p.capacity
    @ [
        ("fits", Json.Bool p.fits);
        ("spilled", Json.Int p.spilled);
        ("added_memops", Json.Int p.added_memops);
        ("memops_per_iter", Json.Int p.memops_per_iter);
        ("density", Json.Float p.density);
      ]
    @ opt_field "kernel" (fun s -> Json.String s) p.kernel)

let health_to_json h =
  Json.Obj
    [
      ("status", Json.String h.status);
      ("uptime_s", Json.Float h.uptime_s);
      ("served", Json.Int h.served);
      ("shed", Json.Int h.shed);
      ("active", Json.Int h.active);
      ("queued", Json.Int h.queued);
      ("queue_bound", Json.Int h.queue_bound);
      ("max_inflight", Json.Int h.max_inflight);
      ("pool_jobs", Json.Int h.pool_jobs);
      ("cache_hits", Json.Int h.cache_hits);
      ("cache_misses", Json.Int h.cache_misses);
      ("cache_entries", Json.Int h.cache_entries);
      ( "errors",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) h.error_counts) );
      ( "kinds",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) h.kind_counts) );
      ("latency_p50_s", Json.Float h.latency_p50_s);
      ("latency_p90_s", Json.Float h.latency_p90_s);
      ("latency_p99_s", Json.Float h.latency_p99_s);
    ]

let response_to_json r =
  let fields =
    match r.body with
    | Scheduled s ->
      [
        ("status", Json.String "ok");
        ("kind", Json.String "scheduled");
        ("machine", Json.String s.machine);
        ("points", Json.List (List.map point_to_json s.points));
      ]
    | Suite_report s ->
      [
        ("status", Json.String "ok");
        ("kind", Json.String "suite");
        ("machine", Json.String s.machine);
        ("size", Json.Int s.size);
        ("jobs", Json.Int s.jobs);
        ("registers", Json.Int s.registers);
        ( "rows",
          Json.List
            (List.map
               (fun (m, s, d) ->
                 Json.List
                   [ Json.String (Model.to_string m); Json.Float s; Json.Float d ])
               s.rows) );
        ("failures", Json.List (List.map error_to_json s.failures));
      ]
    | Health_report h ->
      [
        ("status", Json.String "ok");
        ("kind", Json.String "health");
        ("health", health_to_json h);
      ]
    | Failed e -> [ ("status", Json.String "error"); ("error", error_to_json e) ]
    | Overloaded o ->
      [
        ("status", Json.String "overloaded");
        ("queue_depth", Json.Int o.queue_depth);
        ("retry_after_s", Json.Float o.retry_after_s);
      ]
  in
  Json.Obj (("id", Json.String r.req_id) :: fields)

let render_request r = Json.to_compact (request_to_json r)
let render_response r = Json.to_compact (response_to_json r)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let proto_error message = Error.make ~stage:"protocol" Error.Parse message

let obj = function Json.Obj kvs -> kvs | _ -> bad "expected a JSON object"

let field name kvs =
  match List.assoc_opt name kvs with
  | Some v -> v
  | None -> bad "missing field %S" name

let field_opt name kvs =
  match List.assoc_opt name kvs with
  | None | Some Json.Null -> None
  | Some v -> Some v

let str name = function Json.String s -> s | _ -> bad "field %S: expected a string" name
let int_of name = function Json.Int i -> i | _ -> bad "field %S: expected an integer" name
let bool_of name = function Json.Bool b -> b | _ -> bad "field %S: expected a bool" name

let num name = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> bad "field %S: expected a number" name

let model_of name v =
  match Model.of_string (str name v) with
  | Ok m -> m
  | Stdlib.Error msg -> bad "field %S: %s" name msg

let spec_of_json v =
  let kvs = obj v in
  {
    Config.spec_latency = int_of "latency" (field "latency" kvs);
    spec_clusters = int_of "clusters" (field "clusters" kvs);
    spec_read_ports = Option.map (int_of "read_ports") (field_opt "read_ports" kvs);
    spec_write_ports = Option.map (int_of "write_ports") (field_opt "write_ports" kvs);
  }

let workload_of_json v =
  let kvs = obj v in
  match field_opt "source" kvs, field_opt "kernel" kvs with
  | Some s, None -> Source (str "source" s)
  | None, Some k -> Named (str "kernel" k)
  | Some _, Some _ -> bad "workload: both \"source\" and \"kernel\" given"
  | None, None -> bad "workload: need \"source\" or \"kernel\""

let error_of_json v =
  let kvs = obj v in
  let name = str "category" (field "category" kvs) in
  let category =
    match Error.category_of_name name with
    | Some c -> c
    | None -> bad "unknown error category %S" name
  in
  Error.make
    ?loop:(Option.map (str "loop") (field_opt "loop" kvs))
    ?config:(Option.map (str "config") (field_opt "config" kvs))
    ?round:(Option.map (int_of "round") (field_opt "round" kvs))
    ?ii:(Option.map (int_of "ii") (field_opt "ii" kvs))
    ~stage:(str "stage" (field "stage" kvs))
    category
    (str "message" (field "message" kvs))

let point_of_json v =
  let kvs = obj v in
  {
    loop = str "loop" (field "loop" kvs);
    header = str "header" (field "header" kvs);
    model = model_of "model" (field "model" kvs);
    mii = int_of "mii" (field "mii" kvs);
    ii = int_of "ii" (field "ii" kvs);
    stages = int_of "stages" (field "stages" kvs);
    requirement = int_of "requirement" (field "requirement" kvs);
    capacity = Option.map (int_of "capacity") (field_opt "capacity" kvs);
    fits = bool_of "fits" (field "fits" kvs);
    spilled = int_of "spilled" (field "spilled" kvs);
    added_memops = int_of "added_memops" (field "added_memops" kvs);
    memops_per_iter = int_of "memops_per_iter" (field "memops_per_iter" kvs);
    density = num "density" (field "density" kvs);
    kernel = Option.map (str "kernel") (field_opt "kernel" kvs);
  }

let health_of_json v =
  let kvs = obj v in
  {
    status = str "status" (field "status" kvs);
    uptime_s = num "uptime_s" (field "uptime_s" kvs);
    served = int_of "served" (field "served" kvs);
    shed = int_of "shed" (field "shed" kvs);
    active = int_of "active" (field "active" kvs);
    queued = int_of "queued" (field "queued" kvs);
    queue_bound = int_of "queue_bound" (field "queue_bound" kvs);
    max_inflight = int_of "max_inflight" (field "max_inflight" kvs);
    pool_jobs = int_of "pool_jobs" (field "pool_jobs" kvs);
    cache_hits = int_of "cache_hits" (field "cache_hits" kvs);
    cache_misses = int_of "cache_misses" (field "cache_misses" kvs);
    cache_entries = int_of "cache_entries" (field "cache_entries" kvs);
    error_counts =
      List.map
        (fun (k, v) -> (k, int_of k v))
        (obj (field "errors" kvs));
    (* absent in frames from pre-concurrency daemons: default empty/0 *)
    kind_counts =
      (match field_opt "kinds" kvs with
      | Some v -> List.map (fun (k, v) -> (k, int_of k v)) (obj v)
      | None -> []);
    latency_p50_s =
      (match field_opt "latency_p50_s" kvs with Some v -> num "latency_p50_s" v | None -> 0.0);
    latency_p90_s =
      (match field_opt "latency_p90_s" kvs with Some v -> num "latency_p90_s" v | None -> 0.0);
    latency_p99_s =
      (match field_opt "latency_p99_s" kvs with Some v -> num "latency_p99_s" v | None -> 0.0);
  }

(* The shared frame plumbing: size cap, JSON parse, object check —
   everything before the request/response split. *)
let parse_frame line k =
  if String.length line > max_frame_bytes then
    Stdlib.Error
      (proto_error
         (Printf.sprintf "oversized frame (%d bytes > max %d)" (String.length line)
            max_frame_bytes))
  else
    match Json.of_string line with
    | Stdlib.Error msg -> Stdlib.Error (proto_error ("malformed JSON: " ^ msg))
    | Ok json ->
      (match k (obj json) with
       | v -> Ok v
       | exception Bad msg -> Stdlib.Error (proto_error msg))

(* Best-effort id recovery from a frame that failed full parsing, so
   an error response can still be correlated by the client. *)
let frame_id line =
  if String.length line > max_frame_bytes then None
  else
    match Json.of_string line with
    | Ok (Json.Obj kvs) ->
      (match List.assoc_opt "id" kvs with Some (Json.String s) -> Some s | _ -> None)
    | Ok _ | Stdlib.Error _ -> None

let parse_request line =
  parse_frame line @@ fun kvs ->
  let id = str "id" (field "id" kvs) in
  let timeout_s = Option.map (num "timeout_s") (field_opt "timeout_s" kvs) in
  let kind =
    match str "kind" (field "kind" kvs) with
    | "schedule" ->
      Schedule
        {
          workload = workload_of_json (field "workload" kvs);
          only = Option.map (str "loop") (field_opt "loop" kvs);
          spec = spec_of_json (field "config" kvs);
          model = model_of "model" (field "model" kvs);
          capacity = Option.map (int_of "capacity") (field_opt "capacity" kvs);
          spill_batch =
            (match int_of "spill_batch" (field "spill_batch" kvs) with
             | 1 -> 1
             | k -> bad "spill_batch %d: batched spilling was removed; only 1 is accepted" k);
          spill_incremental =
            (if bool_of "spill_incremental" (field "spill_incremental" kvs) then
               bad "spill_incremental: incremental rescheduling was removed; only false is accepted"
             else false);
          show_kernel = bool_of "show_kernel" (field "show_kernel" kvs);
        }
    | "suite" ->
      Suite
        {
          spec = spec_of_json (field "config" kvs);
          size =
            (match int_of "size" (field "size" kvs) with
             | n when n >= 1 -> n
             | n -> bad "size %d: must be >= 1" n);
          registers = int_of "registers" (field "registers" kvs);
        }
    | "health" -> Health
    | "stats" -> Stats
    | k -> bad "unknown request kind %S" k
  in
  { id; timeout_s; kind }

let parse_response line =
  parse_frame line @@ fun kvs ->
  let req_id = str "id" (field "id" kvs) in
  let body =
    match str "status" (field "status" kvs) with
    | "ok" ->
      (match str "kind" (field "kind" kvs) with
       | "scheduled" ->
         Scheduled
           {
             machine = str "machine" (field "machine" kvs);
             points =
               (match field "points" kvs with
                | Json.List ps -> List.map point_of_json ps
                | _ -> bad "field \"points\": expected a list");
           }
       | "suite" ->
         Suite_report
           {
             machine = str "machine" (field "machine" kvs);
             size = int_of "size" (field "size" kvs);
             jobs = int_of "jobs" (field "jobs" kvs);
             registers = int_of "registers" (field "registers" kvs);
             rows =
               (match field "rows" kvs with
                | Json.List rows ->
                  List.map
                    (function
                      | Json.List [ m; s; d ] ->
                        (model_of "rows" m, num "rows" s, num "rows" d)
                      | _ -> bad "field \"rows\": expected [model, loops%%, cycles%%]")
                    rows
                | _ -> bad "field \"rows\": expected a list");
             failures =
               (match field "failures" kvs with
                | Json.List es -> List.map error_of_json es
                | _ -> bad "field \"failures\": expected a list");
           }
       | "health" -> Health_report (health_of_json (field "health" kvs))
       | k -> bad "unknown response kind %S" k)
    | "error" -> Failed (error_of_json (field "error" kvs))
    | "overloaded" ->
      Overloaded
        {
          queue_depth = int_of "queue_depth" (field "queue_depth" kvs);
          retry_after_s = num "retry_after_s" (field "retry_after_s" kvs);
        }
    | s -> bad "unknown response status %S" s
  in
  { req_id; body }

(* ------------------------------------------------------------------ *)
(* Shared renderers — the byte-identity layer                          *)
(* ------------------------------------------------------------------ *)

let render_suite_header ~size ~machine ~jobs =
  Printf.sprintf "suite of %d loops on %s (%d job%s)\n\n" size machine jobs
    (if jobs = 1 then "" else "s")

let render_suite_table_head ~registers =
  Printf.sprintf "%-12s | %22s\n" "model"
    (Printf.sprintf "allocatable in %d regs" registers)

let render_suite_row (model, s, d) =
  Printf.sprintf "%-12s | %5.1f%% loops %5.1f%% cycles\n" (Model.to_string model) s d

(* Only when something failed, so a clean run's output is byte-identical
   to the pre-taxonomy driver's. *)
let render_failure_summary errors =
  match errors with
  | [] -> ""
  | _ ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "\n%d point(s) failed (excluded from the table above):\n"
         (List.length errors));
    List.iter
      (fun (category, count) ->
        Buffer.add_string buf (Printf.sprintf "  errors.%-20s %d\n" category count))
      (Failures.count_by_category errors);
    List.iter
      (fun e -> Buffer.add_string buf (Printf.sprintf "  - %s\n" (Error.to_string e)))
      errors;
    Buffer.contents buf

let render_machine_line machine = Printf.sprintf "machine: %s\n" machine

let render_point p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "\n== %s\n" p.header);
  Buffer.add_string buf
    (Printf.sprintf "  model %-12s II %d (MII %d), %d stages\n"
       (Model.to_string p.model) p.ii p.mii p.stages);
  Buffer.add_string buf
    (Printf.sprintf "  registers required: %d%s\n" p.requirement
       (match p.capacity with
        | Some c ->
          Printf.sprintf " (capacity %d, %s)" c
            (if p.fits then "fits" else "DOES NOT FIT")
        | None -> ""));
  if p.spilled > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  spilled %d value(s), +%d memory ops\n" p.spilled p.added_memops);
  Buffer.add_string buf
    (Printf.sprintf "  memory ops/iteration %d, traffic density %.3f\n" p.memops_per_iter
       p.density);
  (match p.kernel with None -> () | Some k -> Buffer.add_string buf k);
  Buffer.contents buf

let render_health h =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line "status: %s\n" h.status;
  line "uptime: %.1f s\n" h.uptime_s;
  line "requests: %d served, %d shed, %d active, %d queued (queue bound %d, max inflight %d)\n"
    h.served h.shed h.active h.queued h.queue_bound h.max_inflight;
  line "pool: %d job(s)\n" h.pool_jobs;
  let lookups = h.cache_hits + h.cache_misses in
  line "cache: %d hit(s) / %d miss(es)%s, %d entr%s\n" h.cache_hits h.cache_misses
    (if lookups = 0 then ""
     else
       Printf.sprintf " (%.1f%% hit rate)"
         (100.0 *. float_of_int h.cache_hits /. float_of_int lookups))
    h.cache_entries
    (if h.cache_entries = 1 then "y" else "ies");
  if h.kind_counts <> [] then begin
    line "requests by kind:\n";
    List.iter (fun (kind, count) -> line "  %-12s %d\n" kind count) h.kind_counts
  end;
  if h.latency_p50_s > 0.0 then
    line "latency: p50 %.3f s, p90 %.3f s, p99 %.3f s\n" h.latency_p50_s h.latency_p90_s
      h.latency_p99_s;
  if h.error_counts <> [] then begin
    line "errors:\n";
    List.iter
      (fun (category, count) -> line "  errors.%-20s %d\n" category count)
      h.error_counts
  end;
  Buffer.contents buf

let render_body = function
  | Scheduled { machine; points } ->
    String.concat "" (render_machine_line machine :: List.map render_point points)
  | Suite_report { machine; size; jobs; registers; rows; failures } ->
    String.concat ""
      (render_suite_header ~size ~machine ~jobs
       :: render_suite_table_head ~registers
       :: List.map render_suite_row rows)
    ^ render_failure_summary failures
  | Health_report h -> render_health h
  | Failed e -> Printf.sprintf "error: %s\n" (Error.to_string e)
  | Overloaded { queue_depth; _ } ->
    Printf.sprintf "overloaded: daemon queue full (depth %d), retries exhausted\n"
      queue_depth

(* ------------------------------------------------------------------ *)
(* Body builders — the one executor of each work request kind          *)
(* ------------------------------------------------------------------ *)

let point_of_stats ~header ?kernel (stats : Pipeline.stats) =
  {
    loop = stats.Pipeline.name;
    header;
    model = stats.Pipeline.model;
    mii = stats.Pipeline.mii;
    ii = stats.Pipeline.ii;
    stages = stats.Pipeline.stages;
    requirement = stats.Pipeline.requirement;
    capacity = stats.Pipeline.capacity;
    fits = stats.Pipeline.fits;
    spilled = stats.Pipeline.spilled;
    added_memops = stats.Pipeline.added_memops;
    memops_per_iter = stats.Pipeline.memops_per_iter;
    density = stats.Pipeline.density;
    kernel;
  }

let machine_text config = Format.asprintf "%a" Config.pp config

let schedule_body ~config ~model ?capacity ~show_kernel loops =
  let point ddg =
    let stats = Pipeline.run ~config ~model ?capacity ddg in
    let header = Format.asprintf "%a" Ncdrf_ir.Ddg.pp_stats ddg in
    let kernel =
      if show_kernel then Some (Ncdrf_sched.Kernel.render stats.Pipeline.schedule) else None
    in
    point_of_stats ~header ?kernel stats
  in
  Scheduled { machine = machine_text config; points = List.map point loops }

let suite_loops ?seed ?shard ~size () =
  let loops =
    List.map
      (fun (e : Suite.entry) -> { Suite_stats.ddg = e.Suite.ddg; weight = e.Suite.iterations })
      (Suite.full ~size ?seed ())
  in
  match shard with
  | None -> loops
  | Some (index, count) -> Suite_stats.shard ~index ~count loops

(* One scheduling pass per loop, shared by the three models. *)
let suite_body ~pool ~failures ?timeout_s ~config ~size ~registers loops =
  let rows =
    List.map
      (fun (model, ms) ->
        let static_pct, dynamic_pct = Suite_stats.allocatable ms ~r:registers in
        (model, static_pct, dynamic_pct))
      (Suite_stats.measure_all ~pool ~failures ?timeout_s ~config
         ~models:[ Model.Unified; Model.Partitioned; Model.Swapped ]
         loops)
  in
  Suite_report
    {
      machine = machine_text config;
      size;
      jobs = Pool.jobs pool;
      registers;
      rows;
      failures = Failures.list failures;
    }
