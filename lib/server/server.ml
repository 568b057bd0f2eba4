module Error = Ncdrf_error.Error
module Failures = Ncdrf_error.Failures
module Deadline = Ncdrf_error.Deadline
module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace
module Ledger = Ncdrf_telemetry.Ledger
module Ring = Ncdrf_telemetry.Ring
module Json = Ncdrf_telemetry.Telemetry.Json
module Pool = Ncdrf_parallel.Pool
module Config = Ncdrf_machine.Config
module Pipeline = Ncdrf_core.Pipeline
module Artifact = Ncdrf_core.Artifact
module Ddg = Ncdrf_ir.Ddg
module Loop_lang = Ncdrf_ir.Loop_lang
module Kernels = Ncdrf_workloads.Kernels

type opts = {
  socket_path : string;
  jobs : int;
  max_inflight : int;  (* concurrent request execution slots *)
  queue_bound : int;
  default_timeout_s : float option;
  drain_grace_s : float;
  metrics : string option;
}

let default_opts ~socket_path =
  {
    socket_path;
    jobs = Pool.default_jobs ();
    max_inflight = 4;
    queue_bound = 8;
    default_timeout_s = None;
    drain_grace_s = 5.0;
    metrics = None;
  }

(* Requests execute concurrently up to [opts.max_inflight]: trace
   context, stage records and deadline tokens are all sharded per
   (domain, thread), so interleaved request executions on connection
   systhreads keep their observability state apart, and every record is
   stamped with the request id via [Trace.with_request].  Admission
   control in front of the slots is what gives overload a typed answer
   instead of an unbounded queue. *)
type state = {
  opts : opts;
  pool : Pool.t;
  lock : Mutex.t;
  slot_free : Condition.t;
  mutable running : int;
  mutable waiting : int;
  mutable served : int;
  mutable shed : int;
  mutable draining : bool;
  mutable active_tokens : Deadline.token list;
  latencies : float Ring.t;
      (* the most recent 65,536 completed work-request wall times
         (admission + execution), plus the count ever added: a
         long-running daemon's memory does not grow with traffic *)
  err_counts : (string, int) Hashtbl.t;
  kind_counts : (string, int) Hashtbl.t;
  started : float;
}

type admission = Admitted | Shed of int | Draining | Expired_in_queue

let admit st tok =
  Mutex.lock st.lock;
  let rec go () =
    if st.draining then Draining
    else if Deadline.expired tok then Expired_in_queue
    else if st.running < st.opts.max_inflight then begin
      st.running <- st.running + 1;
      st.active_tokens <- tok :: st.active_tokens;
      Admitted
    end
    else if st.waiting >= st.opts.queue_bound then begin
      st.shed <- st.shed + 1;
      Shed (st.running + st.waiting)
    end
    else begin
      st.waiting <- st.waiting + 1;
      Condition.wait st.slot_free st.lock;
      st.waiting <- st.waiting - 1;
      go ()
    end
  in
  let verdict = go () in
  Mutex.unlock st.lock;
  verdict

let release st tok =
  Mutex.lock st.lock;
  st.running <- st.running - 1;
  st.served <- st.served + 1;
  st.active_tokens <- List.filter (fun t -> t != tok) st.active_tokens;
  Condition.broadcast st.slot_free;
  Mutex.unlock st.lock

let bump tbl name =
  Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let note_category st name =
  Mutex.lock st.lock;
  bump st.err_counts name;
  Mutex.unlock st.lock

let note_latency st dt =
  Mutex.lock st.lock;
  Ring.add st.latencies dt;
  Mutex.unlock st.lock

(* Suite failures already bumped errors.* telemetry when the collector
   recorded them; everything else goes through here and bumps both. *)
let record_error st (e : Error.t) =
  let name = Error.category_name e.Error.category in
  note_category st name;
  Telemetry.incr ("errors." ^ name)

(* Back off proportionally to how deep the queue is, capped at 1 s. *)
let retry_after depth = Float.min 1.0 (0.05 *. float_of_int (max 1 depth))

let build_config spec =
  match Config.of_spec spec with
  | Ok config -> config
  | Stdlib.Error msg -> Error.error ~stage:"request" Error.Invalid_graph msg

let loops_of_workload ~only workload =
  let loops =
    match (workload : Protocol.workload) with
    | Source src -> Loop_lang.parse_string src
    | Named name -> (
      match Kernels.find name with
      | Some ddg -> [ ddg ]
      | None -> Error.errorf ~stage:"request" Error.Parse "unknown kernel %S" name)
  in
  match only with
  | None -> loops
  | Some name -> List.filter (fun g -> String.equal (Ddg.name g) name) loops

let execute_suite st ~spec ~size ~registers =
  let failures = Failures.create () in
  let body =
    Protocol.suite_body ~pool:st.pool ~failures ~config:(build_config spec) ~size ~registers
      (Protocol.suite_loops ~size ())
  in
  List.iter
    (fun (e : Error.t) -> note_category st (Error.category_name e.Error.category))
    (Failures.list failures);
  body

let health_snapshot st =
  let cache = Artifact.cache_stats () in
  Mutex.lock st.lock;
  let pct = Ring.percentiles [ st.latencies ] in
  let snapshot =
    {
      Protocol.status = (if st.draining then "draining" else "ok");
      uptime_s = Telemetry.now () -. st.started;
      served = st.served;
      shed = st.shed;
      active = st.running;
      queued = st.waiting;
      queue_bound = st.opts.queue_bound;
      max_inflight = st.opts.max_inflight;
      pool_jobs = Pool.jobs st.pool;
      cache_hits = cache.Ncdrf_cache.Cache.hits;
      cache_misses = cache.Ncdrf_cache.Cache.misses;
      cache_entries = cache.Ncdrf_cache.Cache.size;
      error_counts =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.err_counts []
        |> List.sort compare;
      kind_counts =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.kind_counts []
        |> List.sort compare;
      latency_p50_s = pct 50.0;
      latency_p90_s = pct 90.0;
      latency_p99_s = pct 99.0;
    }
  in
  Mutex.unlock st.lock;
  snapshot

let kind_name = function
  | Protocol.Schedule _ -> "schedule"
  | Protocol.Suite _ -> "suite"
  | Protocol.Health -> "health"
  | Protocol.Stats -> "stats"

(* Execute an admitted work request on the connection thread.  The
   containment contract lives here: whatever the pipeline raises —
   injected faults, infeasible schedules, deadline expiry, poisoned
   input — [Error.protect] turns into a typed error that becomes a
   [Failed] response; the daemon itself never dies with a request. *)
let execute st (req : Protocol.request) tok =
  let result =
    (* Every trace event and ledger record below — on this thread and
       on pool workers it submits to — carries the request id. *)
    Trace.with_request ~id:req.Protocol.id @@ fun () ->
    Error.protect ~stage:"request" ~loop:req.Protocol.id (fun () ->
        Pipeline.observe ~loop:req.Protocol.id
          ~config:("serve/" ^ kind_name req.Protocol.kind) (fun () ->
            Telemetry.time "serve.request" (fun () ->
                Deadline.with_token tok (fun () ->
                    Deadline.check ~stage:"request";
                    match req.Protocol.kind with
                    | Protocol.Schedule
                        { workload; only; spec; model; capacity; show_kernel; _ } ->
                      Protocol.schedule_body ~config:(build_config spec) ~model ?capacity
                        ~show_kernel
                        (loops_of_workload ~only workload)
                    | Protocol.Suite { spec; size; registers } ->
                      execute_suite st ~spec ~size ~registers
                    | Protocol.Health | Protocol.Stats ->
                      Protocol.Health_report (health_snapshot st)))))
  in
  match result with
  | Ok body -> body
  | Stdlib.Error e ->
    record_error st e;
    Protocol.Failed e

let respond_for st (req : Protocol.request) =
  Mutex.lock st.lock;
  bump st.kind_counts (kind_name req.Protocol.kind);
  Mutex.unlock st.lock;
  match req.Protocol.kind with
  (* Health probes bypass admission: they must answer even when the
     daemon is saturated or draining — that is their whole point. *)
  | Protocol.Health | Protocol.Stats -> Protocol.Health_report (health_snapshot st)
  | Protocol.Schedule _ | Protocol.Suite _ -> (
    let t0 = Telemetry.now () in
    let timeout_s =
      match req.Protocol.timeout_s with
      | Some _ as t -> t
      | None -> st.opts.default_timeout_s
    in
    let tok = Deadline.make ?timeout_s () in
    match admit st tok with
    | Shed queue_depth ->
      note_category st "overloaded";
      Telemetry.incr "errors.overloaded";
      Protocol.Overloaded { queue_depth; retry_after_s = retry_after queue_depth }
    | Draining ->
      let e =
        Error.make ~stage:"admission" ~loop:req.Protocol.id Error.Canceled
          "daemon is draining"
      in
      record_error st e;
      Protocol.Failed e
    | Expired_in_queue ->
      let e =
        Error.make ~stage:"admission" ~loop:req.Protocol.id Error.Deadline_exceeded
          "deadline expired while queued for admission"
      in
      record_error st e;
      Protocol.Failed e
    | Admitted ->
      Fun.protect
        ~finally:(fun () ->
          release st tok;
          note_latency st (Telemetry.now () -. t0))
        (fun () -> execute st req tok))

(* One reader thread per connection.  Frames are newline-delimited; a
   line that never terminates within the frame bound is answered with a
   typed protocol error and the connection dropped, so one client
   cannot make the daemon buffer unboundedly. *)
let handle_conn st fd =
  let chunk_len = 65536 in
  let chunk = Bytes.create chunk_len in
  let pending = ref "" in
  let closed = ref false in
  let write_line line =
    let data = line ^ "\n" in
    try
      let rec w off len =
        if len > 0 then begin
          let n = Unix.write_substring fd data off len in
          w (off + n) (len - n)
        end
      in
      w 0 (String.length data)
    with Unix.Unix_error _ -> closed := true
  in
  let respond resp = write_line (Protocol.render_response resp) in
  let process_line line =
    match Protocol.parse_request line with
    | Stdlib.Error e ->
      record_error st e;
      respond
        {
          Protocol.req_id = Option.value ~default:"" (Protocol.frame_id line);
          body = Protocol.Failed e;
        }
    | Ok req ->
      respond { Protocol.req_id = req.Protocol.id; body = respond_for st req }
  in
  let drain_pending () =
    let continue = ref true in
    while !continue && not !closed do
      match String.index_opt !pending '\n' with
      | None ->
        if String.length !pending > Protocol.max_frame_bytes then begin
          let e =
            Error.errorf ~stage:"protocol" Error.Parse
              "oversized frame: %d bytes without a newline (limit %d)"
              (String.length !pending) Protocol.max_frame_bytes
          in
          record_error st e;
          respond { Protocol.req_id = ""; body = Protocol.Failed e };
          closed := true
        end
        else continue := false
      | Some i ->
        let line = String.sub !pending 0 i in
        pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
        process_line line
    done
  in
  (try
     while not !closed do
       let readable =
         try
           match Unix.select [ fd ] [] [] 0.2 with
           | r, _, _ -> r <> []
         with Unix.Unix_error (Unix.EINTR, _, _) -> false
       in
       if readable then begin
         let n = Unix.read fd chunk 0 chunk_len in
         if n = 0 then closed := true
         else begin
           pending := !pending ^ Bytes.sub_string chunk 0 n;
           drain_pending ()
         end
       end
       else if st.draining then
         (* Idle connection during drain: stop waiting for more input. *)
         closed := true
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

exception Socket_unusable of string

let unusable path fmt =
  Printf.ksprintf (fun why -> raise (Socket_unusable (Printf.sprintf "%s: %s" path why))) fmt

let bind_socket path =
  (match Unix.lstat path with
   | { Unix.st_kind = Unix.S_SOCK; _ } ->
     (* A leftover socket file from a killed daemon would make bind fail
        forever; probe it and only reclaim the path if nobody answers. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let live =
       try
         Unix.connect probe (Unix.ADDR_UNIX path);
         true
       with Unix.Unix_error _ -> false
     in
     (try Unix.close probe with Unix.Unix_error _ -> ());
     if live then unusable path "already being served";
     (try Unix.unlink path
      with Unix.Unix_error (e, _, _) -> unusable path "%s" (Unix.error_message e))
   | _ -> unusable path "exists and is not a socket"
   | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
   | exception Unix.Unix_error (e, _, _) -> unusable path "%s" (Unix.error_message e));
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> unusable path "%s" (Unix.error_message e)
  | fd -> (
    try
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
    with Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      unusable path "%s" (Unix.error_message e))

let publish_metrics st =
  Option.iter
    (fun path ->
      let errors =
        Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) st.err_counts []
        |> List.sort compare
      in
      let kinds =
        Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) st.kind_counts []
        |> List.sort compare
      in
      let pct = Ring.percentiles [ st.latencies ] in
      Telemetry.write_json ~path
        (Json.Obj
           [
             ("schema", Json.String "ncdrf-serve-metrics/1");
             ("jobs", Json.Int (Pool.jobs st.pool));
             ("max_inflight", Json.Int st.opts.max_inflight);
             ("uptime_s", Json.Float (Telemetry.now () -. st.started));
             ("requests.served", Json.Int st.served);
             ("requests.shed", Json.Int st.shed);
             ("requests.inflight", Json.Int st.running);
             ("requests.queued", Json.Int st.waiting);
             ("requests.by_kind", Json.Obj kinds);
             ( "latency",
               Json.Obj
                 [
                   ("count", Json.Int (Ring.added st.latencies));
                   ("p50_s", Json.Float (pct 50.0));
                   ("p90_s", Json.Float (pct 90.0));
                   ("p99_s", Json.Float (pct 99.0));
                 ] );
             ("errors", Json.Obj errors);
             ("telemetry", Telemetry.to_json ());
           ]))
    st.opts.metrics

let run ?stop ?(handle_signals = true) opts =
  let stop =
    match stop with
    | Some s -> s
    | None -> Atomic.make false
  in
  if handle_signals then begin
    let on_signal _ = Atomic.set stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
  end;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Ledger.set_label "serve";
  let listen_fd = bind_socket opts.socket_path in
  let pool = Pool.create ~jobs:opts.jobs () in
  let st =
    {
      opts;
      pool;
      lock = Mutex.create ();
      slot_free = Condition.create ();
      running = 0;
      waiting = 0;
      served = 0;
      shed = 0;
      draining = false;
      active_tokens = [];
      latencies = Ring.create ~cap:65_536 0.0;
      err_counts = Hashtbl.create 16;
      kind_counts = Hashtbl.create 16;
      started = Telemetry.now ();
    }
  in
  let conns = ref [] in
  while not (Atomic.get stop) do
    (* Tick: wake queued waiters so expired deadlines get noticed even
       when no slot frees up (OCaml conditions have no timed wait). *)
    Mutex.lock st.lock;
    Condition.broadcast st.slot_free;
    Mutex.unlock st.lock;
    let readable =
      try
        match Unix.select [ listen_fd ] [] [] 0.2 with
        | r, _, _ -> r <> []
      with Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if readable then
      match Unix.accept listen_fd with
      | fd, _ -> conns := Thread.create (handle_conn st) fd :: !conns
      | exception Unix.Unix_error _ -> ()
  done;
  (* Drain: stop accepting, let in-flight work finish within the grace
     window, then cancel whatever is left and wait for it to unwind. *)
  Mutex.lock st.lock;
  st.draining <- true;
  Condition.broadcast st.slot_free;
  Mutex.unlock st.lock;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove opts.socket_path with Sys_error _ -> ());
  let in_flight () =
    Mutex.lock st.lock;
    let n = st.running + st.waiting in
    Mutex.unlock st.lock;
    n
  in
  let drain_t0 = Telemetry.now () in
  while in_flight () > 0 && Telemetry.now () -. drain_t0 < opts.drain_grace_s do
    Thread.delay 0.05
  done;
  if in_flight () > 0 then begin
    Mutex.lock st.lock;
    List.iter (Deadline.cancel ~reason:"daemon draining") st.active_tokens;
    Condition.broadcast st.slot_free;
    Mutex.unlock st.lock
  end;
  List.iter Thread.join !conns;
  Pool.shutdown pool;
  publish_metrics st;
  0
