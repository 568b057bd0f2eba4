(* The [serve] workload: an in-process [Server.run] (1 pool job, 2
   execution slots) driven by two closed-loop [Client] connections.
   Each client sends a seeded mix: [Schedule] requests drawn from the
   named kernels x 4 models x {no capacity, 16, 32} x {L3, L6}, and
   every 25th request a [Suite {size = 120; registers = 32}].  Set-up
   starts the daemon and sends every distinct request once, so the timed
   phase measures the warm daemon: protocol, admission, cache lookups
   and rendering, with the compile layers bypassed. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_core
module Server = Ncdrf_server.Server
module Client = Ncdrf_server.Client
module Protocol = Ncdrf_server.Protocol
module Kernels = Ncdrf_workloads.Kernels
module Suite = Ncdrf_workloads.Suite

let clients = 2
let suite_every = 25
let suite_size = 120
let suite_models = [ Model.Unified; Model.Partitioned; Model.Swapped ]

type point = {
  ddg : Ddg.t;
  model : Model.t;
  capacity : int option;
  latency : int;
}

let points =
  List.concat_map
    (fun (ddg, _) ->
      List.concat_map
        (fun model ->
          List.concat_map
            (fun capacity -> List.map (fun latency -> { ddg; model; capacity; latency }) [ 3; 6 ])
            [ None; Some 16; Some 32 ])
        Model.all)
    (Kernels.all ())
  |> Array.of_list

let schedule_kind p =
  Protocol.Schedule
    {
      workload = Protocol.Named (Ddg.name p.ddg);
      only = None;
      spec = { Config.default_spec with Config.spec_latency = p.latency };
      model = p.model;
      capacity = p.capacity;
      spill_batch = 1;
      spill_incremental = false;
      show_kernel = false;
    }

let suite_kind =
  Protocol.Suite { spec = Config.default_spec; size = suite_size; registers = 32 }

(* A request is a point index, or [-1] for the suite request. *)
let kind_of i = if i < 0 then suite_kind else schedule_kind points.(i)

type daemon = {
  stop : bool Atomic.t;
  thread : Thread.t;
  code : int ref;
  conns : Client.t array;
}

let start ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let stop = Atomic.make false in
  let opts = { (Server.default_opts ~socket_path:socket) with jobs = 1; max_inflight = 2 } in
  let code = ref (-1) in
  let thread = Thread.create (fun () -> code := Server.run ~stop ~handle_signals:false opts) () in
  { stop; thread; code; conns = Array.init clients (fun _ -> Client.connect socket) }

let shutdown d =
  Array.iter Client.close d.conns;
  Atomic.set d.stop true;
  Thread.join d.thread;
  !(d.code)

(* What one client saw: per request the index sent, the latency and the
   completion time; the first answer to each distinct request; and how
   many answers failed, were shed, or differed from that first one.
   Memory stays bounded however many requests a run sends. *)
type seen = {
  mutable log : (int * float * float) list;
  first : (int, Protocol.response_body) Hashtbl.t;
  mutable failed : int;
  mutable differing : int;
}

let seen () = { log = []; first = Hashtbl.create 1024; failed = 0; differing = 0 }

let send seen conn ~id i =
  let t0 = Samples.now () in
  let r = Client.request conn { Protocol.id; timeout_s = None; kind = kind_of i } in
  let t1 = Samples.now () in
  seen.log <- (i, t1 -. t0, t1) :: seen.log;
  match r with
  | Ok { Protocol.body = (Protocol.Scheduled _ | Protocol.Suite_report _) as body; _ } -> (
    match Hashtbl.find_opt seen.first i with
    | None -> Hashtbl.add seen.first i body
    | Some b -> if b <> body then seen.differing <- seen.differing + 1)
  | Ok _ | Error _ -> seen.failed <- seen.failed + 1

let render (body : Protocol.response_body) =
  match body with
  | Protocol.Scheduled { machine; points } ->
    String.concat ""
      (Protocol.render_machine_line machine :: List.map Protocol.render_point points)
  | Protocol.Suite_report { rows; _ } -> String.concat "" (List.map Protocol.render_suite_row rows)
  | Protocol.Health_report _ | Protocol.Failed _ | Protocol.Overloaded _ -> ""

let drive d ~c ~requests =
  let seen = seen () in
  List.iteri (fun n i -> send seen d.conns.(c) ~id:(Printf.sprintf "c%d-%d" c n) i) requests;
  seen

(* Both clients at once, each on its own thread of a separate domain:
   real clients are other processes, so they must not contend with the
   daemon's threads for the main domain's runtime lock. *)
let in_parallel work =
  Domain.join
    (Domain.spawn (fun () ->
         let results = Array.make clients None in
         let threads =
           List.init clients (fun c -> Thread.create (fun () -> results.(c) <- Some (work c)) ())
         in
         List.iter Thread.join threads;
         Array.map Option.get results))

(* Start the daemon and send every distinct request once, split across
   the two clients. *)
let warm_up ~socket =
  let d = start ~socket in
  let all = -1 :: List.init (Array.length points) Fun.id in
  let seen =
    in_parallel (fun c -> drive d ~c ~requests:(List.filteri (fun k _ -> k mod clients = c) all))
  in
  (d, seen)

(* Closed loop: each client sends its next request when the previous
   one has answered.  The phase runs in two-second chunks; between
   chunks both clients are idle and the host-speed kernel runs, so each
   chunk's rate has its own calibration.  Returns what each client saw
   and, per chunk, (requests per second, calibration seconds). *)
let chunk_s = 2.0

let timed_phase d ~seed ~seconds =
  let rngs = Array.init clients (fun c -> Random.State.make [| seed; c |]) in
  let seen = Array.init clients (fun _ -> seen ()) in
  let sent = Array.make clients 0 in
  let chunk () =
    let before = Array.fold_left ( + ) 0 sent in
    let t0 = Samples.now () in
    ignore
      (in_parallel (fun c ->
           while Samples.now () -. t0 < chunk_s do
             let n = sent.(c) in
             let i =
               if (n + 1 + (c * suite_every / clients)) mod suite_every = 0 then -1
               else Random.State.int rngs.(c) (Array.length points)
             in
             send seen.(c) d.conns.(c) ~id:(Printf.sprintf "t%d-%d" c n) i;
             sent.(c) <- n + 1
           done));
    let rate = float_of_int (Array.fold_left ( + ) 0 sent - before) /. (Samples.now () -. t0) in
    (rate, Samples.calibrate ())
  in
  (seen, List.init (max 1 (int_of_float (seconds /. chunk_s))) (fun _ -> chunk ()))

(* The answer each request should get, computed in-process the way the
   batch CLI prints it. *)
let expected_schedule p =
  let config = Config.dual ~latency:p.latency in
  let stats = Pipeline.run ~config ~model:p.model ?capacity:p.capacity p.ddg in
  let header = Format.asprintf "%a" Ddg.pp_stats p.ddg in
  String.concat ""
    [ Protocol.render_machine_line (Format.asprintf "%a" Config.pp config);
      Protocol.render_point (Protocol.point_of_stats ~header stats) ]

let suite_config = Config.dual ~latency:3

let suite_loops () =
  List.map
    (fun (e : Suite.entry) -> { Suite_stats.ddg = e.Suite.ddg; weight = e.Suite.iterations })
    (Suite.full ~size:suite_size ())

let expected_suite () =
  Suite_stats.measure_all ~config:suite_config ~models:suite_models (suite_loops ())
  |> List.map (fun (model, ms) ->
         let s, dy = Suite_stats.allocatable ms ~r:32 in
         Protocol.render_suite_row (model, s, dy))
  |> String.concat ""

(* Every answer must equal the in-process one; returns the number of
   failed or shed requests. *)
let check_answers ~phase seen =
  let expected = Hashtbl.create 1024 in
  let expect i =
    match Hashtbl.find_opt expected i with
    | Some e -> e
    | None ->
      let e = if i < 0 then expected_suite () else expected_schedule points.(i) in
      Hashtbl.add expected i e;
      e
  in
  let wrong = ref 0 in
  Array.iter
    (fun s ->
      wrong := !wrong + s.differing;
      Hashtbl.iter (fun i body -> if render body <> expect i then incr wrong) s.first)
    seen;
  Samples.check
    (Printf.sprintf "%s answers equal in-process results (%d differ)" phase !wrong)
    (!wrong = 0);
  Array.fold_left (fun acc s -> acc + s.failed) 0 seen

let latency_ms pick seen =
  List.concat_map
    (fun s -> List.filter_map (fun (i, dt, _) -> if pick i then Some (1e3 *. dt) else None) s.log)
    (Array.to_list seen)

let report_untraced ~chunks ~failed seen =
  let all = List.concat_map (fun s -> s.log) (Array.to_list seen) in
  let requests = List.length all in
  let points_of i = if i < 0 then suite_size * List.length suite_models else 1 in
  let per_request =
    float_of_int (List.fold_left (fun acc (i, _, _) -> acc + points_of i) 0 all)
    /. float_of_int requests
  in
  let median_rate scale =
    Samples.median
      (List.map
         (fun (rate, cal) -> Samples.at_reference ~rate:(scale *. rate) ~cal)
         chunks)
  in
  let n = List.length chunks in
  Samples.add ~samples:n ~note:"median 2 s chunk at reference speed, 2 clients" "requests_per_s"
    "1/s" (median_rate 1.0);
  Samples.add ~samples:n ~note:"request rate x points per request, reference speed"
    "points_per_s" "1/s" (median_rate per_request);
  Samples.add ~samples:n ~note:"median 2 s chunk, as timed" "raw_points_per_s" "1/s"
    (per_request *. Samples.median (List.map fst chunks));
  let schedule_ms = latency_ms (fun i -> i >= 0) seen in
  let n = List.length schedule_ms in
  Samples.add ~samples:n ~note:"Schedule requests" "request_p50_ms" "ms"
    (Samples.median schedule_ms);
  (match Samples.tail_percentile n with
   | Some p ->
     Samples.add ~samples:n ~note:(Printf.sprintf "p%g of %d" p n) "request_p99_ms" "ms"
       (Samples.quantile schedule_ms (p /. 100.0))
   | None ->
     Samples.add ~samples:n ~note:"maximum, too few samples" "request_p99_ms" "ms"
       (Samples.quantile schedule_ms 1.0));
  let suite_ms = latency_ms (fun i -> i < 0) seen in
  Samples.add ~samples:(List.length suite_ms) ~note:"Suite requests" "suite_request_p50_ms" "ms"
    (Samples.median suite_ms);
  Samples.add ~samples:requests ~note:"failed or shed requests" "failed_share" "ratio"
    (float_of_int failed /. float_of_int requests)

(* The daemon's own view, from a [Stats] frame taken after the timed
   phase: its latencies span the whole session, warm-up included. *)
let report_server (h : Protocol.health) seen =
  let note = "admission to completion, whole session" in
  Samples.add ~note "server.p50_ms" "ms" (1e3 *. h.Protocol.latency_p50_s);
  Samples.add ~note "server.p99_ms" "ms" (1e3 *. h.Protocol.latency_p99_s);
  let work_ms = latency_ms (fun _ -> true) seen in
  Samples.add ~samples:(List.length work_ms) ~note:"client p50 minus server p50"
    "transport.p50_ms" "ms"
    (Samples.median work_ms -. (1e3 *. h.Protocol.latency_p50_s));
  let lookups = h.Protocol.cache_hits + h.Protocol.cache_misses in
  Samples.add ~samples:lookups "server.cache_hit_ratio" "ratio"
    (if lookups = 0 then 0.0 else float_of_int h.Protocol.cache_hits /. float_of_int lookups)

(* The traced composition of every distinct request's points: each
   [Schedule] point, then the [Suite] request's table. *)
let report_composition ~dump_dir =
  let suite = Array.of_list (suite_loops ()) in
  let n = Array.length points in
  let config_of p = Config.dual ~latency:p.latency in
  let (sched, table), off_s, on_s =
    Compose.traced (fun () ->
        ( Array.mapi
            (fun k p ->
              Spans.with_point k (fun () ->
                  Compose.pipeline_point ~config:(config_of p) ~model:p.model
                    ?capacity:p.capacity p.ddg))
            points,
          Array.mapi
            (fun k (l : Suite_stats.workload) ->
              Spans.with_point (n + k) (fun () ->
                  Compose.table_point ~config:suite_config ~models:suite_models
                    l.Suite_stats.ddg))
            suite ))
  in
  let mismatches = ref 0 in
  let expect r s = if r <> Compose.of_stats s then incr mismatches in
  Array.iteri
    (fun k p ->
      expect sched.(k)
        (Pipeline.run ~config:(config_of p) ~model:p.model ?capacity:p.capacity p.ddg))
    points;
  Array.iteri
    (fun k (l : Suite_stats.workload) ->
      List.iter2
        (fun model r -> expect r (Pipeline.run ~config:suite_config ~model l.Suite_stats.ddg))
        suite_models table.(k))
    suite;
  Layers.report_traced ~workload:"serve" ~dump_dir ~mismatches:!mismatches
    ~points:(n + (List.length suite_models * Array.length suite)) ~off_s ~on_s

let run ~traced ~seed ~seconds ~daemon:(d, warm_seen) ~dump_dir =
  let before = Artifact.cache_stats () in
  let seen, chunks = timed_phase d ~seed ~seconds in
  let health =
    Client.request d.conns.(0) { Protocol.id = "stats"; timeout_s = None; kind = Protocol.Stats }
  in
  if traced then Layers.artifact ~before ~after:(Artifact.cache_stats ());
  Samples.check "daemon drains to exit 0" (shutdown d = 0);
  Samples.check "every warm-up request answered" (check_answers ~phase:"warm-up" warm_seen = 0);
  let failed = check_answers ~phase:"serve" seen in
  let requests = Array.fold_left (fun acc s -> acc + List.length s.log) 0 seen in
  if not traced then report_untraced ~chunks ~failed seen
  else begin
    (match health with
     | Ok { Protocol.body = Protocol.Health_report h; _ } -> report_server h seen
     | _ -> Samples.check "Stats frame answered" false);
    report_composition ~dump_dir;
    Layers.bypassed
      (Layers.store_bypassed @ Layers.pool_bypassed
      @ [ ("verify.points", "count"); ("verify.diverged", "count"); ("verify_s", "s") ])
  end;
  (requests, failed)
