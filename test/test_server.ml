(* The serving layer: total codec (qcheck round-trip plus malformed
   frames that must come back as typed errors, never exceptions), the
   shared renderers behind the batch/client byte-identity invariant,
   deadline tokens and their monotonic clock, and an in-process
   daemon exercised over a real Unix socket: health, scheduling,
   fault containment, per-request deadlines, and a clean drain. *)

open Ncdrf_machine
open Ncdrf_core
module Error = Ncdrf_error.Error
module Deadline = Ncdrf_error.Deadline
module Failures = Ncdrf_error.Failures
module Fault = Ncdrf_fault.Fault
module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace
module Ledger = Ncdrf_telemetry.Ledger
module Protocol = Ncdrf_server.Protocol
module Server = Ncdrf_server.Server
module Client = Ncdrf_server.Client

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Codec round-trip (qcheck).                                          *)
(* ------------------------------------------------------------------ *)

(* Floats on a 1/16 grid are exact in binary and short in decimal, so
   they survive the codec's %.9g rendering bit-for-bit. *)
let gen_grid_float = QCheck.Gen.(map (fun i -> float_of_int i /. 16.0) (int_bound 4096))

let gen_string = QCheck.Gen.(string_size ~gen:printable (int_bound 12))

let gen_spec =
  let open QCheck.Gen in
  int_range 1 8 >>= fun spec_latency ->
  int_range 1 4 >>= fun spec_clusters ->
  opt (int_range 1 6) >>= fun spec_read_ports ->
  opt (int_range 1 6) >>= fun spec_write_ports ->
  return { Config.spec_latency; spec_clusters; spec_read_ports; spec_write_ports }

let gen_model = QCheck.Gen.oneofl Model.all

let gen_workload =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Protocol.Source s) gen_string;
        map (fun s -> Protocol.Named s) gen_string;
      ])

let gen_request_kind =
  let open QCheck.Gen in
  let schedule =
    gen_workload >>= fun workload ->
    opt gen_string >>= fun only ->
    gen_spec >>= fun spec ->
    gen_model >>= fun model ->
    opt (int_range 1 64) >>= fun capacity ->
    bool >>= fun show_kernel ->
    return
      (Protocol.Schedule
         {
           workload;
           only;
           spec;
           model;
           capacity;
           spill_batch = 1;
           spill_incremental = false;
           show_kernel;
         })
  in
  let suite =
    gen_spec >>= fun spec ->
    int_range 1 500 >>= fun size ->
    int_range 1 128 >>= fun registers ->
    return (Protocol.Suite { spec; size; registers })
  in
  oneof [ schedule; suite; return Protocol.Health; return Protocol.Stats ]

let gen_request =
  let open QCheck.Gen in
  gen_string >>= fun id ->
  opt gen_grid_float >>= fun timeout_s ->
  gen_request_kind >>= fun kind ->
  return { Protocol.id; timeout_s; kind }

let gen_error =
  let open QCheck.Gen in
  oneofl Error.all_categories >>= fun category ->
  gen_string >>= fun stage ->
  opt gen_string >>= fun loop ->
  opt gen_string >>= fun config ->
  opt (int_range 0 9) >>= fun round ->
  opt (int_range 1 40) >>= fun ii ->
  gen_string >>= fun message ->
  return (Error.make ?loop ?config ?round ?ii ~stage category message)

let gen_point =
  let open QCheck.Gen in
  gen_string >>= fun loop ->
  gen_string >>= fun header ->
  gen_model >>= fun model ->
  int_range 1 20 >>= fun mii ->
  int_range 1 40 >>= fun ii ->
  int_range 1 10 >>= fun stages ->
  int_range 0 64 >>= fun requirement ->
  opt (int_range 1 64) >>= fun capacity ->
  bool >>= fun fits ->
  int_range 0 9 >>= fun spilled ->
  int_range 0 20 >>= fun added_memops ->
  int_range 0 20 >>= fun memops_per_iter ->
  gen_grid_float >>= fun density ->
  opt gen_string >>= fun kernel ->
  return
    {
      Protocol.loop;
      header;
      model;
      mii;
      ii;
      stages;
      requirement;
      capacity;
      fits;
      spilled;
      added_memops;
      memops_per_iter;
      density;
      kernel;
    }

let gen_health =
  let open QCheck.Gen in
  oneofl [ "ok"; "draining" ] >>= fun status ->
  gen_grid_float >>= fun uptime_s ->
  int_range 0 99 >>= fun served ->
  int_range 0 99 >>= fun shed ->
  int_range 0 4 >>= fun active ->
  int_range 0 9 >>= fun queued ->
  int_range 1 16 >>= fun queue_bound ->
  int_range 1 4 >>= fun max_inflight ->
  int_range 1 8 >>= fun pool_jobs ->
  int_range 0 999 >>= fun cache_hits ->
  int_range 0 999 >>= fun cache_misses ->
  int_range 0 999 >>= fun cache_entries ->
  list_size (int_bound 4)
    (pair (oneofl [ "injected"; "parse"; "overloaded"; "canceled" ]) (int_range 1 9))
  >>= fun error_counts ->
  list_size (int_bound 3)
    (pair (oneofl [ "schedule"; "suite"; "health"; "stats" ]) (int_range 1 9))
  >>= fun kind_counts ->
  gen_grid_float >>= fun latency_p50_s ->
  gen_grid_float >>= fun latency_p90_s ->
  gen_grid_float >>= fun latency_p99_s ->
  return
    {
      Protocol.status;
      uptime_s;
      served;
      shed;
      active;
      queued;
      queue_bound;
      max_inflight;
      pool_jobs;
      cache_hits;
      cache_misses;
      cache_entries;
      error_counts;
      kind_counts;
      latency_p50_s;
      latency_p90_s;
      latency_p99_s;
    }

let gen_response =
  let open QCheck.Gen in
  let scheduled =
    gen_string >>= fun machine ->
    list_size (int_bound 3) gen_point >>= fun points ->
    return (Protocol.Scheduled { machine; points })
  in
  let suite_report =
    gen_string >>= fun machine ->
    int_range 1 500 >>= fun size ->
    int_range 1 8 >>= fun jobs ->
    int_range 1 128 >>= fun registers ->
    list_size (int_bound 4) (triple gen_model gen_grid_float gen_grid_float)
    >>= fun rows ->
    list_size (int_bound 3) gen_error >>= fun failures ->
    return (Protocol.Suite_report { machine; size; jobs; registers; rows; failures })
  in
  let overloaded =
    int_range 1 99 >>= fun queue_depth ->
    gen_grid_float >>= fun retry_after_s ->
    return (Protocol.Overloaded { queue_depth; retry_after_s })
  in
  gen_string >>= fun req_id ->
  oneof
    [
      scheduled;
      suite_report;
      map (fun h -> Protocol.Health_report h) gen_health;
      map (fun e -> Protocol.Failed e) gen_error;
      overloaded;
    ]
  >>= fun body -> return { Protocol.req_id; body }

let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"render/parse request = id"
    (QCheck.make ~print:Protocol.render_request gen_request) (fun r ->
      match Protocol.parse_request (Protocol.render_request r) with
      | Ok r' -> r' = r
      | Stdlib.Error e -> QCheck.Test.fail_report (Error.to_string e))

let prop_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"render/parse response = id"
    (QCheck.make ~print:Protocol.render_response gen_response) (fun r ->
      match Protocol.parse_response (Protocol.render_response r) with
      | Ok r' -> r' = r
      | Stdlib.Error e -> QCheck.Test.fail_report (Error.to_string e))

(* Whatever bytes arrive, the parsers answer with a typed error — they
   never raise.  (The qcheck pair above covers the happy path; this one
   fuzzes raw frames.) *)
let prop_parse_total =
  QCheck.Test.make ~count:500 ~name:"parsers never raise on junk"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_bound 64)))
    (fun junk ->
      (match Protocol.parse_request junk with Ok _ | Stdlib.Error _ -> true)
      && (match Protocol.parse_response junk with Ok _ | Stdlib.Error _ -> true))

(* ------------------------------------------------------------------ *)
(* Malformed frames: typed errors, never exceptions.                   *)
(* ------------------------------------------------------------------ *)

let check_request_error name line =
  match Protocol.parse_request line with
  | Stdlib.Error e ->
    check_string (name ^ ": category") "parse" (Error.category_name e.Error.category);
    check_string (name ^ ": stage") "protocol" e.Error.stage
  | Ok _ -> Alcotest.fail (name ^ ": expected a parse error")

let test_malformed_frames () =
  check_request_error "truncated JSON" {|{"id":"x","kind":"hea|};
  check_request_error "oversized frame"
    (String.make (Protocol.max_frame_bytes + 1) 'x');
  check_request_error "unknown kind" {|{"id":"x","kind":"bogus"}|};
  check_request_error "non-object" "42";
  check_request_error "missing id" {|{"kind":"health"}|};
  check_request_error "id of wrong type" {|{"id":5,"kind":"health"}|};
  check_request_error "schedule missing fields" {|{"id":"x","kind":"schedule"}|};
  check_request_error "suite of 0 loops"
    (Protocol.render_request
       {
         Protocol.id = "x";
         timeout_s = None;
         kind = Protocol.Suite { spec = Config.default_spec; size = 0; registers = 32 };
       });
  check_request_error "bad model"
    {|{"id":"x","kind":"schedule","workload":{"kernel":"daxpy"},"config":{"latency":3,"clusters":2},"model":"quantum","spill_batch":1,"spill_incremental":false,"show_kernel":false}|};
  (match Protocol.parse_response {|{"id":"x","status":"weird"}|} with
   | Stdlib.Error e ->
     check_string "unknown status: category" "parse"
       (Error.category_name e.Error.category)
   | Ok _ -> Alcotest.fail "unknown status: expected a parse error");
  (match
     Protocol.parse_response
       {|{"id":"x","status":"error","error":{"category":"nope","stage":"s","message":"m"}}|}
   with
   | Stdlib.Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown category: expected a parse error")

(* A suite smaller than the 48 named kernels measures exactly the loops
   its header announces. *)
let test_small_suite () =
  Telemetry.enable true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () ->
      Telemetry.enable false;
      Telemetry.reset ();
      Artifact.clear_cache ())
  @@ fun () ->
  let body =
    Ncdrf_parallel.Pool.with_pool ~jobs:1 (fun pool ->
        Protocol.suite_body ~pool ~failures:(Failures.create ()) ~config:(Config.dual ~latency:3)
          ~size:10 ~registers:32 (Protocol.suite_loops ~size:10 ()))
  in
  check_bool "header" true
    (Helpers.contains (Protocol.render_body body) "suite of 10 loops on ");
  check_int "pipeline.loops" 10 (Telemetry.counter "pipeline.loops")

(* The batched and incremental spill modes are gone; their wire fields
   remain, and any value but the defaults is a protocol error that names
   the removed mode, never a failed compile. *)
let test_removed_spill_modes_rejected () =
  let frame ~batch ~incremental =
    Printf.sprintf
      {|{"id":"x","kind":"schedule","workload":{"kernel":"daxpy"},"config":{"latency":3,"clusters":2},"model":"swapped","spill_batch":%d,"spill_incremental":%b,"show_kernel":false}|}
      batch incremental
  in
  let rejected name line ~mentions =
    check_request_error name line;
    match Protocol.parse_request line with
    | Stdlib.Error e ->
      check_bool (name ^ ": names the mode") true (Helpers.contains e.Error.message mentions)
    | Ok _ -> ()
  in
  rejected "spill_batch 0" (frame ~batch:0 ~incremental:false) ~mentions:"spill_batch";
  rejected "spill_batch 2" (frame ~batch:2 ~incremental:false) ~mentions:"spill_batch";
  rejected "spill_incremental true" (frame ~batch:1 ~incremental:true)
    ~mentions:"spill_incremental";
  match Protocol.parse_request (frame ~batch:1 ~incremental:false) with
  | Ok _ -> ()
  | Stdlib.Error e -> Alcotest.fail ("defaults rejected: " ^ Error.to_string e)

let test_frame_id_recovery () =
  Alcotest.(check (option string))
    "id recovered from bad frame" (Some "abc")
    (Protocol.frame_id {|{"id":"abc","kind":"bogus"}|});
  Alcotest.(check (option string))
    "no id in junk" None (Protocol.frame_id "42");
  Alcotest.(check (option string))
    "no id in garbage" None (Protocol.frame_id "{{{")

(* ------------------------------------------------------------------ *)
(* Renderers.                                                          *)
(* ------------------------------------------------------------------ *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_renderers () =
  check_string "clean failure summary is empty" ""
    (Protocol.render_failure_summary []);
  check_string "suite row" "unified      |  50.0% loops  25.0% cycles\n"
    (Protocol.render_suite_row (Model.Unified, 50.0, 25.0));
  check_string "suite header and table head"
    "suite of 60 loops on m (1 job)\n\nmodel        | allocatable in 32 regs\n"
    (Protocol.render_body
       (Protocol.Suite_report
          { machine = "m"; size = 60; jobs = 1; registers = 32; rows = []; failures = [] }));
  check_string "machine line" "machine: m\n" (Protocol.render_machine_line "m");
  let summary =
    Protocol.render_failure_summary
      [ Error.make ~loop:"fir" ~stage:"schedule" Error.Injected "boom" ]
  in
  check_bool "summary counts by category" true
    (String.length summary > 0 && contains ~affix:"injected" summary)

(* ------------------------------------------------------------------ *)
(* Deadline clock and tokens.                                          *)
(* ------------------------------------------------------------------ *)

(* Pins the deadline clock source: tokens read Telemetry.now, the
   monotonic clock, never Unix.gettimeofday — a step of the wall clock
   (NTP, DST) must not expire every in-flight deadline. *)
let test_budget_clock_is_monotonic () =
  let t = Telemetry.now () in
  let tok = Deadline.make ~timeout_s:60.0 () in
  let left = Deadline.time_left tok in
  let elapsed = Telemetry.now () -. t in
  check_bool "time left counts down on Telemetry.now" true
    (left <= 60.0 && left >= 60.0 -. elapsed -. 0.5);
  let wall = Unix.gettimeofday () in
  check_bool "Telemetry.now is not the wall clock" true (Float.abs (t -. wall) > 1e6)

let test_deadline_tokens () =
  let tok = Deadline.make () in
  check_bool "no deadline, not expired" false (Deadline.expired tok);
  check_bool "time left is infinite" true (Deadline.time_left tok = infinity);
  Deadline.with_token tok (fun () -> Deadline.check ~stage:"t");
  Deadline.cancel ~reason:"stop it" tok;
  check_bool "canceled" true (Deadline.canceled tok);
  (match Deadline.with_token tok (fun () -> Deadline.check ~stage:"t") with
   | () -> Alcotest.fail "canceled token must raise"
   | exception Error.Error e ->
     check_string "canceled category" "canceled" (Error.category_name e.Error.category);
     check_string "cancel reason" "stop it" e.Error.message);
  let expired = Deadline.make ~timeout_s:(-1.0) () in
  check_bool "past deadline is expired" true (Deadline.expired expired);
  (match Deadline.with_token expired (fun () -> Deadline.check ~stage:"t") with
   | () -> Alcotest.fail "expired token must raise"
   | exception Error.Error e ->
     check_string "deadline category" "deadline_exceeded"
       (Error.category_name e.Error.category));
  (* Nesting: the inner scope must not shadow an outer violation. *)
  let outer = Deadline.make () in
  Deadline.cancel outer;
  let inner = Deadline.make ~timeout_s:60.0 () in
  (match
     Deadline.with_token outer (fun () ->
         Deadline.with_token inner (fun () -> Deadline.check ~stage:"t"))
   with
   | () -> Alcotest.fail "outer cancellation must fire inside inner scope"
   | exception Error.Error e ->
     check_string "outer wins" "canceled" (Error.category_name e.Error.category));
  check_bool "no token after scopes" false (Deadline.active ())

(* [check] skips the table while no token is installed anywhere, so the
   installed count must come back to zero however a scope exits, and a
   token installed on a pool worker must still be honoured there. *)
let test_deadline_installed_count () =
  check_int "no token installed" 0 (Deadline.installed ());
  (match
     Deadline.with_token (Deadline.make ()) (fun () ->
         Deadline.with_token (Deadline.make ()) (fun () ->
             check_int "two tokens installed" 2 (Deadline.installed ());
             failwith "scope exits by exception"))
   with
   | () -> Alcotest.fail "the scope must raise"
   | exception Failure _ -> ());
  check_int "count back to zero after the exception" 0 (Deadline.installed ());
  let main = (Domain.self () :> int) in
  let outcomes =
    Ncdrf_parallel.Pool.with_pool ~jobs:2 (fun pool ->
        Ncdrf_parallel.Pool.map pool
          (fun i ->
            (* Keep the caller busy on early items so a worker takes some. *)
            if i < 2 then Unix.sleepf 0.02;
            let tok = Deadline.make () in
            Deadline.cancel ~reason:"worker" tok;
            let honoured =
              match Deadline.with_token tok (fun () -> Deadline.check ~stage:"t") with
              | () -> false
              | exception Error.Error e -> e.Error.category = Error.Canceled
            in
            ((Domain.self () :> int) <> main, honoured))
          (List.init 16 Fun.id))
  in
  check_bool "some items ran on a worker domain" true (List.exists fst outcomes);
  check_bool "every installed token was honoured" true (List.for_all snd outcomes);
  check_int "count back to zero after the pool" 0 (Deadline.installed ())

(* Work fanned out over the pool is bounded by the submitter's tokens:
   a canceled token installed on the calling thread fails every job
   with the typed category, on the calling domain and on the worker. *)
let test_pool_jobs_inherit_tokens () =
  let main = (Domain.self () :> int) in
  let on_worker = Atomic.make false in
  let tok = Deadline.make () in
  Deadline.cancel ~reason:"submitter" tok;
  let outcomes =
    Ncdrf_parallel.Pool.with_pool ~jobs:2 (fun pool ->
        Deadline.with_token tok (fun () ->
            Ncdrf_parallel.Pool.try_map_exn pool
              (fun (_ : int) ->
                (* Slow jobs, so the worker domain takes some of them. *)
                Unix.sleepf 0.01;
                if (Domain.self () :> int) <> main then Atomic.set on_worker true;
                Deadline.check ~stage:"t")
              (List.init 16 Fun.id)))
  in
  check_bool "some jobs ran on the worker domain" true (Atomic.get on_worker);
  List.iter
    (function
      | Ok () -> Alcotest.fail "a job escaped the submitter's canceled token"
      | Stdlib.Error (_, Error.Error e) ->
        check_string "typed cancellation" "canceled" (Error.category_name e.Error.category);
        check_string "submitter's reason" "submitter" e.Error.message
      | Stdlib.Error (_, e) -> Alcotest.failf "raw exception: %s" (Printexc.to_string e))
    outcomes;
  check_int "count back to zero after the pool" 0 (Deadline.installed ())

(* --timeout through the suite path: a zero budget fails every point
   with the typed deadline category; nothing crashes, nothing leaks. *)
let test_suite_timeout () =
  let loops =
    List.map
      (fun (e : Ncdrf_workloads.Suite.entry) ->
        { Suite_stats.ddg = e.Ncdrf_workloads.Suite.ddg;
          weight = e.Ncdrf_workloads.Suite.iterations })
      (Ncdrf_workloads.Suite.full ~size:48 ())
  in
  let failures = Failures.create () in
  let ms =
    Suite_stats.measure ~failures ~timeout_s:0.0 ~config:(Config.dual ~latency:3)
      ~model:Model.Unified loops
  in
  check_int "no survivors at zero budget" 0 (List.length ms);
  check_int "every loop recorded" (List.length loops) (Failures.count failures);
  List.iter
    (fun (e : Error.t) ->
      check_string "typed deadline failure" "deadline_exceeded"
        (Error.category_name e.Error.category))
    (Failures.list failures)

(* ------------------------------------------------------------------ *)
(* In-process daemon over a real socket.                               *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(configure = fun o -> o) f =
  let path =
    Printf.sprintf "/tmp/ncdrf-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ())
  in
  (try Sys.remove path with Sys_error _ -> ());
  let stop = Atomic.make false in
  let opts = configure { (Server.default_opts ~socket_path:path) with jobs = 1 } in
  let code = ref (-1) in
  let srv = Thread.create (fun () -> code := Server.run ~stop ~handle_signals:false opts) () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join srv;
      check_int "daemon drains to exit 0" 0 !code;
      check_bool "socket removed on drain" false (Sys.file_exists path))
    (fun () -> f path)

let default_schedule_kind ?(workload = Protocol.Named "daxpy")
    ?(model = Model.Swapped) ?(spec = Config.default_spec) ?capacity () =
  Protocol.Schedule
    {
      workload;
      only = None;
      spec;
      model;
      capacity;
      spill_batch = 1;
      spill_incremental = false;
      show_kernel = false;
    }

let roundtrip_ok client req =
  match Client.request ~retries:0 client req with
  | Ok resp ->
    check_string "response echoes request id" req.Protocol.id resp.Protocol.req_id;
    resp.Protocol.body
  | Stdlib.Error e -> Alcotest.fail ("transport/protocol error: " ^ Error.to_string e)

let test_daemon_roundtrip () =
  with_daemon @@ fun path ->
  let client = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (* Health answers before any work. *)
  (match roundtrip_ok client { Protocol.id = "h1"; timeout_s = None; kind = Protocol.Health } with
   | Protocol.Health_report h ->
     check_string "status ok" "ok" h.Protocol.status;
     check_int "pool jobs" 1 h.Protocol.pool_jobs
   | _ -> Alcotest.fail "expected a health report");
  (* A named kernel schedules; the point matches a direct pipeline run. *)
  (match
     roundtrip_ok client
       { Protocol.id = "s1"; timeout_s = None; kind = default_schedule_kind () }
   with
   | Protocol.Scheduled { points = [ p ]; machine } ->
     check_string "machine text" (Format.asprintf "%a" Config.pp (Config.dual ~latency:3)) machine;
     check_string "loop name" "daxpy" p.Protocol.loop;
     let direct =
       Pipeline.run ~config:(Config.dual ~latency:3) ~model:Model.Swapped
         (Option.get (Ncdrf_workloads.Kernels.find "daxpy"))
     in
     check_int "II matches direct run" direct.Pipeline.ii p.Protocol.ii;
     check_int "requirement matches direct run" direct.Pipeline.requirement
       p.Protocol.requirement
   | _ -> Alcotest.fail "expected one scheduled point");
  (* Unknown kernels are a typed parse failure, not a dead daemon. *)
  (match
     roundtrip_ok client
       {
         Protocol.id = "s2";
         timeout_s = None;
         kind = default_schedule_kind ~workload:(Protocol.Named "no-such-kernel") ();
       }
   with
   | Protocol.Failed e ->
     check_string "typed parse error" "parse" (Error.category_name e.Error.category)
   | _ -> Alcotest.fail "expected a typed failure");
  (* Poisoned source is contained the same way. *)
  (match
     roundtrip_ok client
       {
         Protocol.id = "s3";
         timeout_s = None;
         kind = default_schedule_kind ~workload:(Protocol.Source "loop broken {") ();
       }
   with
   | Protocol.Failed e ->
     check_string "typed source error" "parse" (Error.category_name e.Error.category)
   | _ -> Alcotest.fail "expected a typed failure");
  (* A machine spec Config.make would reject is a typed request error. *)
  (match
     roundtrip_ok client
       {
         Protocol.id = "s5";
         timeout_s = None;
         kind =
           default_schedule_kind
             ~spec:{ Config.default_spec with Config.spec_latency = 0 } ();
       }
   with
   | Protocol.Failed e ->
     check_string "typed machine error" "invalid_graph" (Error.category_name e.Error.category)
   | _ -> Alcotest.fail "expected a typed failure");
  (* An already-expired deadline is refused with the typed category. *)
  (match
     roundtrip_ok client
       { Protocol.id = "s4"; timeout_s = Some 0.0; kind = default_schedule_kind () }
   with
   | Protocol.Failed e ->
     check_string "typed deadline error" "deadline_exceeded"
       (Error.category_name e.Error.category)
   | _ -> Alcotest.fail "expected a deadline failure");
  (* The daemon survived all of the above. *)
  match roundtrip_ok client { Protocol.id = "h2"; timeout_s = None; kind = Protocol.Stats } with
  | Protocol.Health_report h ->
    check_bool "served counted" true (h.Protocol.served >= 2);
    check_bool "error counters populated" true
      (List.mem_assoc "parse" h.Protocol.error_counts
      && List.mem_assoc "deadline_exceeded" h.Protocol.error_counts)
  | _ -> Alcotest.fail "expected a stats report"

(* An armed fault inside the pipeline becomes a typed injected failure
   response; the daemon keeps serving. *)
let test_daemon_contains_injected_fault () =
  with_daemon @@ fun path ->
  let client = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (* The artifact cache is process-wide: a warm hit would skip the
     schedule stage the fault is armed on. *)
  Artifact.clear_cache ();
  (match Fault.arm "stage=schedule,every=1" with
   | Ok () -> ()
   | Stdlib.Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (match
     roundtrip_ok client
       {
         Protocol.id = "f1";
         timeout_s = None;
         kind =
           default_schedule_kind ~workload:(Protocol.Named "ll5-tridiag")
             ~model:Model.Partitioned ();
       }
   with
   | Protocol.Failed e ->
     check_string "typed injected error" "injected" (Error.category_name e.Error.category)
   | _ -> Alcotest.fail "expected an injected failure");
  Fault.disarm ();
  match roundtrip_ok client { Protocol.id = "h1"; timeout_s = None; kind = Protocol.Health } with
  | Protocol.Health_report h -> check_string "daemon alive" "ok" h.Protocol.status
  | _ -> Alcotest.fail "daemon died after injected fault"

(* No stage name is dead: arming each of [Fault.stages] with every=1
   fails a small capacity request from source (parse, cache, schedule,
   alloc and spill all run for it) and bumps errors.injected.  The
   artifact cache starts empty each time, so the compute stages miss. *)
let test_every_fault_stage_fires () =
  Telemetry.enable true;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Telemetry.enable false;
      Telemetry.reset ();
      Artifact.clear_cache ())
  @@ fun () ->
  List.iter
    (fun stage ->
      Telemetry.reset ();
      Artifact.clear_cache ();
      (match Fault.arm ("stage=" ^ stage ^ ",every=1") with
       | Ok () -> ()
       | Stdlib.Error msg -> Alcotest.fail msg);
      (with_daemon @@ fun path ->
       let client = Client.connect path in
       Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
       match
         roundtrip_ok client
           {
             Protocol.id = "every-" ^ stage;
             timeout_s = None;
             kind =
               default_schedule_kind
                 ~workload:(Protocol.Source "loop faulted\n  y[i] = y[i] + $a * x[i]\n")
                 ~model:Model.Partitioned ~capacity:4 ();
           }
       with
       | Protocol.Failed e ->
         check_string (stage ^ ": typed injected error") "injected"
           (Error.category_name e.Error.category)
       | _ -> Alcotest.failf "stage=%s: expected an injected failure" stage);
      Fault.disarm ();
      check_bool (stage ^ ": errors.injected > 0") true
        (Telemetry.counter "errors.injected" > 0))
    Fault.stages

(* The suite served over the wire carries exactly the rows a local run
   computes, and the rendered report is byte-identical to the batch
   driver's (both print through Protocol.render_body). *)
let test_daemon_suite_identity () =
  with_daemon @@ fun path ->
  let client = Client.connect path in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let size = 48 and registers = 32 in
  let body =
    roundtrip_ok client
      {
        Protocol.id = "u1";
        timeout_s = None;
        kind = Protocol.Suite { spec = Config.default_spec; size; registers };
      }
  in
  match body with
  | Protocol.Suite_report { machine; jobs; rows; failures; _ } ->
    check_int "serial pool" 1 jobs;
    check_int "clean run" 0 (List.length failures);
    let config = Config.dual ~latency:3 in
    let loops =
      List.map
        (fun (e : Ncdrf_workloads.Suite.entry) ->
          { Suite_stats.ddg = e.Ncdrf_workloads.Suite.ddg;
            weight = e.Ncdrf_workloads.Suite.iterations })
        (Ncdrf_workloads.Suite.full ~size ())
    in
    let local_rows =
      List.map
        (fun (m, ms) ->
          let s, d = Suite_stats.allocatable ms ~r:registers in
          (m, s, d))
        (Suite_stats.measure_all ~config
           ~models:[ Model.Unified; Model.Partitioned; Model.Swapped ]
           loops)
    in
    (* Structural float equality would be too strict: values cross the
       wire through %.9g rendering.  The invariant that matters is the
       one the CLI exposes — the rendered report is byte-identical. *)
    check_bool "same models in order" true
      (List.map (fun (m, _, _) -> m) rows
      = List.map (fun (m, _, _) -> m) local_rows);
    let local =
      Protocol.Suite_report
        { machine; size; jobs; registers; rows = local_rows; failures = [] }
    in
    check_string "rendered report byte-identical" (Protocol.render_body local)
      (Protocol.render_body body)
  | _ -> Alcotest.fail "expected a suite report"

(* ------------------------------------------------------------------ *)
(* Request-scoped observability under concurrency.                     *)
(* ------------------------------------------------------------------ *)

(* Identity projections: everything deterministic about a record, with
   timestamps, durations and track ids (which legitimately differ
   between a serial and a concurrent run) stripped. *)
let event_projection (e : Trace.event) =
  (e.Trace.request, e.Trace.name, e.Trace.phase, e.Trace.loop, e.Trace.config,
   e.Trace.ii)

let ledger_projection (r : Ledger.record) =
  (r.Trace.request, r.Trace.label, r.Trace.loop, r.Trace.config,
   r.Trace.fp, r.Trace.models, r.Trace.capacity, r.Trace.ok,
   r.Trace.error)

let reset_observability () =
  Trace.reset ();
  Telemetry.reset ();
  Ledger.reset ()

(* Issue [kinds] against a fresh armed daemon — sequentially on one
   client per request when [concurrent] is false, else one systhread
   per request — and snapshot the in-memory observability state after
   the daemon drains (handler threads joined, shards quiescent).
   Request i gets id [tag ^ i] in both modes, so serial and concurrent
   runs can be compared per request id. *)
let observed_run ~tag ~concurrent kinds =
  reset_observability ();
  let tmp suffix = Filename.temp_file "ncdrf-obs" suffix in
  let metrics = tmp ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove metrics with Sys_error _ -> ())
  @@ fun () ->
  let failures = ref [] in
  let fail_lock = Mutex.create () in
  let note msg =
    Mutex.lock fail_lock;
    failures := msg :: !failures;
    Mutex.unlock fail_lock
  in
  (* The daemon's caller arms the probes, as `ncdrf serve` does. *)
  Telemetry.enable true;
  Trace.enable true;
  Ledger.enable true;
  with_daemon
    ~configure:(fun o -> { o with max_inflight = 4; metrics = Some metrics })
    (fun path ->
      let issue i kind =
        let id = Printf.sprintf "%s%d" tag i in
        match
          let client = Client.connect path in
          Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
          Client.request client { Protocol.id; timeout_s = None; kind }
        with
        | Ok resp ->
          if resp.Protocol.req_id <> id then note ("wrong echo for " ^ id);
          (match resp.Protocol.body with
           | Protocol.Suite_report _ | Protocol.Scheduled _ -> ()
           | _ -> note ("non-work response for " ^ id))
        | Stdlib.Error e -> note (Error.to_string e)
        | exception e -> note (Printexc.to_string e)
      in
      if concurrent then
        List.iter Thread.join
          (List.mapi (fun i k -> Thread.create (fun () -> issue i k) ()) kinds)
      else List.iteri issue kinds);
  if !failures <> [] then Alcotest.fail (String.concat "; " !failures);
  let events = List.map event_projection (Trace.events ()) in
  let spans =
    List.map (fun (name, (s : Telemetry.span)) -> (name, s.Telemetry.count)) (Telemetry.spans ())
  in
  let ledgers = List.map ledger_projection (Ledger.records ()) in
  (events, spans, ledgers)

(* N concurrent requests produce per-request-id event and ledger sets
   that are pairwise disjoint (every record carries exactly one of the
   N ids) and whose union equals the serial run's multiset — in fact
   each id's projection matches the serial run of the same id, which
   is stronger — and the same per-name span counts.  The artifact
   cache is disabled so both runs perform identical work. *)
let prop_concurrent_observability =
  QCheck.Test.make ~count:3 ~name:"concurrent requests keep observability apart"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 4))
    (fun n ->
      Artifact.set_cache_enabled false;
      Artifact.clear_cache ();
      Fun.protect
        ~finally:(fun () ->
          Artifact.set_cache_enabled true;
          Artifact.clear_cache ();
          Telemetry.enable false;
          Trace.enable false;
          Ledger.enable false;
          reset_observability ())
      @@ fun () ->
      let sizes = List.init n (fun i -> 48 + (2 * i)) in
      (* Pre-warm the suite-generation cache so neither run records the
         one-off generation work under a request id. *)
      List.iter (fun size -> ignore (Ncdrf_workloads.Suite.full ~size ())) sizes;
      let kinds =
        List.map
          (fun size ->
            Protocol.Suite { spec = Config.default_spec; size; registers = 32 })
          sizes
      in
      let se, ss, sl = observed_run ~tag:"req" ~concurrent:false kinds in
      let ce, cs, cl = observed_run ~tag:"req" ~concurrent:true kinds in
      let ids = List.init n (fun i -> Printf.sprintf "req%d" i) in
      (* Disjointness: every concurrent record is attributed to exactly
         one of the N ids — nothing leaks to the ambient "" scope or to
         a foreign id. *)
      List.iter
        (fun (req, _, _, _, _, _) ->
          if not (List.mem req ids) then
            QCheck.Test.fail_reportf "event outside request scope: %S" req)
        ce;
      List.iter
        (fun (req, _, _, _, _, _, _, _, _) ->
          if not (List.mem req ids) then
            QCheck.Test.fail_reportf "ledger record outside request scope: %S" req)
        cl;
      List.iter
        (fun id ->
          if not (List.exists (fun (req, _, _, _, _, _) -> req = id) ce) then
            QCheck.Test.fail_reportf "no events for %s" id)
        ids;
      (* Union = serial multiset: both runs used the same ids for the
         same work, so the full projections must agree as multisets —
         which also pins every per-id subset to its serial twin. *)
      let sort l = List.sort compare l in
      if sort ce <> sort se then QCheck.Test.fail_reportf "event multiset differs";
      if cs <> ss then QCheck.Test.fail_reportf "per-name span counts differ";
      if sort cl <> sort sl then QCheck.Test.fail_reportf "ledger multiset differs";
      true)

(* Concurrent clients get byte-identical rendered reports: the answer
   does not depend on which execution slot served it. *)
let test_daemon_concurrent_identity () =
  with_daemon ~configure:(fun o -> { o with max_inflight = 4 }) @@ fun path ->
  let size = 10 and registers = 32 in
  let renders = Array.make 3 "" in
  let errors = ref [] in
  let threads =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            match
              let client = Client.connect path in
              Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
              Client.request client
                {
                  Protocol.id = Printf.sprintf "ci%d" i;
                  timeout_s = None;
                  kind = Protocol.Suite { spec = Config.default_spec; size; registers };
                }
            with
            | Ok { Protocol.body = Protocol.Suite_report _ as body; _ } ->
              renders.(i) <- Protocol.render_body body
            | Ok _ -> errors := "unexpected body" :: !errors
            | Stdlib.Error e -> errors := Error.to_string e :: !errors
            | exception e -> errors := Printexc.to_string e :: !errors)
          ())
  in
  List.iter Thread.join threads;
  if !errors <> [] then Alcotest.fail (String.concat "; " !errors);
  check_bool "reports non-empty" true (renders.(0) <> "");
  check_string "client 1 matches client 0" renders.(0) renders.(1);
  check_string "client 2 matches client 0" renders.(0) renders.(2)

(* The daemon keeps its latencies in a bounded [Ring] of 65,536 slots:
   after more samples than slots it holds exactly the most recent ones,
   the count keeps the total, and percentiles (nearest rank, as
   [Stats.percentile]) cover the ring only. *)
let test_latency_ring_wraps () =
  let module R = Ncdrf_telemetry.Ring in
  let slots = 65_536 in
  let check_pcts what r expected =
    let pct = R.percentiles [ r ] in
    List.iter
      (fun (q, want) ->
        Alcotest.(check (float 0.0)) (Printf.sprintf "%s: p%g" what q) want (pct q))
      expected
  in
  let create () = R.create ~cap:slots 0.0 in
  let r = create () in
  check_pcts "empty" r [ (50.0, 0.0); (99.0, 0.0) ];
  List.iter (fun x -> R.add r (float_of_int x)) [ 3; 1; 2 ];
  check_pcts "partial ring" r [ (0.0, 1.0); (50.0, 2.0); (100.0, 3.0) ];
  (* Samples 1..slots fill exactly one lap: every sample is held. *)
  let r = create () in
  for x = 1 to slots do
    R.add r (float_of_int x)
  done;
  check_int "one lap: count" slots (R.added r);
  check_pcts "one full lap" r
    [ (0.0, 1.0); (50.0, float_of_int (slots / 2)); (100.0, float_of_int slots) ];
  (* 10 more overwrite the 10 oldest: the ring holds 11..slots + 10. *)
  for x = slots + 1 to slots + 10 do
    R.add r (float_of_int x)
  done;
  check_int "count is the total" (slots + 10) (R.added r);
  check_pcts "after wrapping" r
    [
      (0.0, 11.0);
      (50.0, float_of_int ((slots / 2) + 10));
      (100.0, float_of_int (slots + 10));
    ];
  let held = List.init slots (fun i -> float_of_int (i + 11)) in
  check_pcts "same as Stats.percentile" r
    (List.map
       (fun q -> (q, Ncdrf_report.Stats.percentile q held))
       [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ])

(* [render_body] is the one printer of every answer: the parts in
   order, and the exact health and diagnosis text `ncdrf client`
   prints. *)
let test_render_body () =
  let failure = Error.make ~loop:"fir" ~stage:"schedule" Error.Injected "boom" in
  check_string "suite report = header, table, rows, failures"
    ("suite of 60 loops on m (2 jobs)\n\nmodel        | allocatable in 32 regs\n"
    ^ Protocol.render_suite_row (Model.Unified, 50.0, 25.0)
    ^ Protocol.render_failure_summary [ failure ])
    (Protocol.render_body
       (Protocol.Suite_report
          {
            machine = "m";
            size = 60;
            jobs = 2;
            registers = 32;
            rows = [ (Model.Unified, 50.0, 25.0) ];
            failures = [ failure ];
          }));
  check_string "schedule of no loops = machine line" "machine: m\n"
    (Protocol.render_body (Protocol.Scheduled { machine = "m"; points = [] }));
  check_string "failed" ("error: " ^ Error.to_string failure ^ "\n")
    (Protocol.render_body (Protocol.Failed failure));
  check_string "overloaded"
    "overloaded: daemon queue full (depth 3), retries exhausted\n"
    (Protocol.render_body (Protocol.Overloaded { queue_depth = 3; retry_after_s = 0.15 }));
  let health =
    {
      Protocol.status = "ok";
      uptime_s = 2.0;
      served = 5;
      shed = 1;
      active = 4;
      queued = 1;
      queue_bound = 1;
      max_inflight = 4;
      pool_jobs = 1;
      cache_hits = 1;
      cache_misses = 3;
      cache_entries = 1;
      error_counts = [ ("overloaded", 1) ];
      kind_counts = [ ("suite", 6) ];
      latency_p50_s = 0.5;
      latency_p90_s = 0.75;
      latency_p99_s = 1.0;
    }
  in
  check_string "health"
    "status: ok\n\
     uptime: 2.0 s\n\
     requests: 5 served, 1 shed, 4 active, 1 queued (queue bound 1, max inflight 4)\n\
     pool: 1 job(s)\n\
     cache: 1 hit(s) / 3 miss(es) (25.0% hit rate), 1 entry\n\
     requests by kind:\n\
    \  suite        6\n\
     latency: p50 0.500 s, p90 0.750 s, p99 1.000 s\n\
     errors:\n\
    \  errors.overloaded           1\n"
    (Protocol.render_body (Protocol.Health_report health))

(* ------------------------------------------------------------------ *)
(* The ncdrf binary: a bad store or slot count is a usage error.       *)
(* ------------------------------------------------------------------ *)

(* Run the built ncdrf binary, which dune stages next to this test, and
   return its exit code and stderr.  A run still alive after 30 s is a
   daemon that should never have started: it is killed and the test
   fails. *)
let run_ncdrf args =
  let here = Filename.dirname Sys.executable_name in
  let ncdrf = Filename.concat here (Filename.concat Filename.parent_dir_name "bin/ncdrf.exe") in
  let err_path = Filename.temp_file "ncdrf-stderr" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove err_path) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null; Unix.close err)
      (fun () -> Unix.create_process ncdrf (Array.of_list (ncdrf :: args)) null null err)
  in
  let rec wait polls =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when polls < 600 ->
      Unix.sleepf 0.05;
      wait (polls + 1)
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.failf "ncdrf %s still running after 30 s" (String.concat " " args)
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "ncdrf %s killed by signal %d" (String.concat " " args) n
  in
  let code = wait 0 in
  (code, In_channel.with_open_bin err_path In_channel.input_all)

let fresh_socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ncdrf-test-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))

(* A --cache-dir that names a regular file is refused the same way by
   every command that opens the store — serve included, which used to
   die with an uncaught Sys_error (exit 125) — and no daemon starts. *)
let test_bad_cache_dir () =
  let file = Filename.temp_file "ncdrf-not-a-dir" "" in
  let socket = fresh_socket_path () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let runs =
    List.map
      (fun args ->
        let what = String.concat " " (List.filter (fun a -> a <> socket) args) in
        (what, run_ncdrf (args @ [ "--cache-dir"; file ])))
      [ [ "suite"; "--size"; "1" ]; [ "bench"; "fig8"; "--quick" ]; [ "serve"; "--socket"; socket ] ]
  in
  let _, (_, expected) = List.hd runs in
  List.iter
    (fun (what, (code, err)) ->
      check_int (what ^ ": exit 2") 2 code;
      check_string (what ^ ": same message as suite") expected err;
      check_bool (what ^ ": one line") true
        (String.index_opt err '\n' = Some (String.length err - 1));
      check_bool (what ^ ": names --cache-dir") true
        (String.starts_with ~prefix:"cannot open --cache-dir: " err);
      check_bool (what ^ ": no uncaught exception") false
        (contains ~affix:"exception" err || contains ~affix:"Sys_error" err))
    runs;
  check_bool "no daemon bound the socket" false (Sys.file_exists socket)

(* [serve --socket PATH] reclaims PATH only when it is a socket nobody
   answers.  A regular file used to be deleted, a directory and a
   missing parent directory used to kill the daemon with an uncaught
   exception (exit 125).  Each is now a one-line usage error naming
   --socket (exit 2), the process exits instead of serving, and the
   file at PATH is left byte for byte. *)
let test_unusable_socket_path () =
  let dir = Filename.temp_file "ncdrf-socket-cases" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let file = Filename.concat dir "data" and sub = Filename.concat dir "sub" in
  let missing = Filename.concat (Filename.concat dir "missing") "x.sock" in
  let contents = "data\nnot a socket\n" in
  Out_channel.with_open_bin file (fun oc -> output_string oc contents);
  Sys.mkdir sub 0o700;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ file; missing ];
      List.iter (fun d -> if Sys.file_exists d then Sys.rmdir d) [ sub; dir ])
  @@ fun () ->
  List.iter
    (fun (what, path) ->
      let code, err = run_ncdrf [ "serve"; "--socket"; path; "--jobs"; "1" ] in
      check_int (what ^ ": exit 2") 2 code;
      check_bool (what ^ ": one line") true
        (String.index_opt err '\n' = Some (String.length err - 1));
      check_bool (what ^ ": names --socket") true
        (String.starts_with ~prefix:("cannot bind --socket: " ^ path ^ ": ") err);
      check_bool (what ^ ": no uncaught exception") false
        (contains ~affix:"exception" err || contains ~affix:"Sys_error" err
         || contains ~affix:"Unix_error" err))
    [ ("regular file", file); ("directory", sub); ("missing directory", missing) ];
  check_string "the regular file is intact" contents
    (In_channel.with_open_bin file In_channel.input_all);
  check_bool "the directory is intact" true (Sys.is_directory sub);
  check_bool "nothing bound in the missing directory" false (Sys.file_exists missing)

(* A daemon with no execution slot could never run a work request, so
   --max-inflight below 1 is a usage error naming the flag, like the
   machine flags, and no daemon starts. *)
let test_max_inflight_below_one () =
  let socket = fresh_socket_path () in
  List.iter
    (fun n ->
      let code, err = run_ncdrf [ "serve"; "--socket"; socket; "--max-inflight=" ^ n ] in
      check_int ("--max-inflight " ^ n ^ ": exit 2") 2 code;
      check_bool ("--max-inflight " ^ n ^ ": names the flag") true
        (contains ~affix:(Printf.sprintf "--max-inflight %s: must be at least 1" n) err);
      check_bool "no daemon bound the socket" false (Sys.file_exists socket))
    [ "0"; "-1" ]

let suite =
  [
    Alcotest.test_case "latency ring wraps" `Quick test_latency_ring_wraps;
    Alcotest.test_case "malformed frames are typed errors" `Quick test_malformed_frames;
    Alcotest.test_case "removed spill modes are protocol errors" `Quick
      test_removed_spill_modes_rejected;
    Alcotest.test_case "frame id recovery" `Quick test_frame_id_recovery;
    Alcotest.test_case "shared renderers" `Quick test_renderers;
    Alcotest.test_case "one renderer for every body" `Quick test_render_body;
    Alcotest.test_case "budget clock is monotonic" `Quick test_budget_clock_is_monotonic;
    Alcotest.test_case "deadline tokens" `Quick test_deadline_tokens;
    Alcotest.test_case "deadline installed count" `Quick test_deadline_installed_count;
    Alcotest.test_case "pool jobs inherit deadline tokens" `Quick
      test_pool_jobs_inherit_tokens;
    Alcotest.test_case "suite --timeout" `Quick test_suite_timeout;
    Alcotest.test_case "daemon roundtrip + containment" `Quick test_daemon_roundtrip;
    Alcotest.test_case "daemon contains injected faults" `Quick
      test_daemon_contains_injected_fault;
    Alcotest.test_case "daemon suite identity" `Quick test_daemon_suite_identity;
    Alcotest.test_case "concurrent clients byte-identical" `Quick
      test_daemon_concurrent_identity;
    Alcotest.test_case "bad --cache-dir exits 2 everywhere" `Quick test_bad_cache_dir;
    Alcotest.test_case "--max-inflight below 1 exits 2" `Quick
      test_max_inflight_below_one;
    Alcotest.test_case "unusable --socket path exits 2" `Quick test_unusable_socket_path;
    QCheck_alcotest.to_alcotest prop_concurrent_observability;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_parse_total;
    Alcotest.test_case "every fault stage fires" `Quick test_every_fault_stage_fires;
    Alcotest.test_case "suite --size 10 measures 10 loops" `Quick test_small_suite;
  ]
