(* ncdrf — command line driver.

   Subcommands:
     schedule  compile loops from a .loop file and print schedules,
               kernels and register requirements under a chosen model
     dot       emit the dependence graph of a loop as Graphviz
     suite     summarize register pressure over the synthetic suite
     bench     regenerate the paper's tables and figures (plus
               ablations and extensions) on the synthetic suite
     sweep     requirement of one loop across latencies and models
     profile   analyze a --ledger run: slowest loops, cache hits,
               duration histograms
     example   walk the paper's worked example
     serve     run the compile daemon on a Unix-domain socket
     client    talk to a running daemon (schedule, suite, health)

   See `ncdrf <cmd> --help` for options. *)

open Cmdliner
open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core

(* ------------------------------------------------------------------ *)
(* Shared argument converters.                                         *)
(* ------------------------------------------------------------------ *)

let model_conv =
  let parse s = Model.of_string s |> Result.map_error (fun e -> `Msg e) in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Model.to_string m))

let latency_arg =
  let doc = "Latency of the floating-point adders and multipliers (3 or 6 in the paper)." in
  Arg.(value & opt int 3 & info [ "l"; "latency" ] ~docv:"CYCLES" ~doc)

let clusters_arg =
  let doc =
    "Number of clusters: 1 (unified machine) or $(docv) >= 2 subfiles (2 is the \
     paper's dual machine)."
  in
  Arg.(value & opt int 2 & info [ "c"; "clusters" ] ~docv:"N" ~doc)

let read_ports_arg =
  let doc =
    "Cap each cluster's register-file reads per cycle (omit for unconstrained \
     subfiles, the paper's machine)."
  in
  Arg.(value & opt (some int) None & info [ "read-ports" ] ~docv:"N" ~doc)

let write_ports_arg =
  let doc = "Cap each cluster's register-file writes per cycle (omit for unconstrained)." in
  Arg.(value & opt (some int) None & info [ "write-ports" ] ~docv:"N" ~doc)

(* The machine flags, checked by [Config.of_spec]: a bad value is a
   usage error naming its flag (exit 2), never an exception. *)
let checked_spec spec =
  match Config.of_spec spec with Ok _ -> `Ok spec | Stdlib.Error msg -> `Error (true, msg)

let machine_term latency =
  let spec spec_latency spec_clusters spec_read_ports spec_write_ports =
    checked_spec { Config.spec_latency; spec_clusters; spec_read_ports; spec_write_ports }
  in
  Term.(ret (const spec $ latency $ clusters_arg $ read_ports_arg $ write_ports_arg))

(* The machine of a spec [machine_term] accepted. *)
let config_of spec = Result.get_ok (Config.of_spec spec)

let model_arg =
  let doc = "Register file model: ideal, unified, partitioned or swapped." in
  Arg.(value & opt model_conv Model.Swapped & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let capacity_arg =
  let doc = "Registers per (sub)file; omit for unlimited registers." in
  Arg.(value & opt (some int) None & info [ "r"; "registers" ] ~docv:"N" ~doc)

let file_arg =
  let doc = "Loop file in the ncdrf loop language (see docs in Loop_lang)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let loop_name_arg =
  let doc = "Only process the loop with this name." in
  Arg.(value & opt (some string) None & info [ "loop" ] ~docv:"NAME" ~doc)

let verbose_arg =
  let doc = "Enable debug logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* The daemon logs from concurrent handler threads, so reports go
   through Logs' mutex: one message at a time, whole. *)
let setup_logs verbose =
  Logs_threaded.enable ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let load_loops file name_filter =
  let loops = Loop_lang.parse_file file in
  match name_filter with
  | None -> loops
  | Some n -> List.filter (fun g -> String.equal (Ddg.name g) n) loops

module Error = Ncdrf_error.Error
module Failures = Ncdrf_error.Failures
module Fault = Ncdrf_fault.Fault
module Protocol = Ncdrf_server.Protocol
module Server = Ncdrf_server.Server
module Client = Ncdrf_server.Client
module Store = Ncdrf_cache.Store

(* ------------------------------------------------------------------ *)
(* Persistent store + sharding options shared by suite, bench, serve.  *)
(* ------------------------------------------------------------------ *)

let shard_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ i; n ] -> (
      match (int_of_string_opt i, int_of_string_opt n) with
      | Some i, Some n when n >= 1 && i >= 0 && i < n -> Ok (i, n)
      | _ -> Stdlib.Error (`Msg "expected I/N with 0 <= I < N"))
    | _ -> Stdlib.Error (`Msg "expected I/N, e.g. 0/2")
  in
  Arg.conv (parse, fun ppf (i, n) -> Format.fprintf ppf "%d/%d" i n)

let shard_arg =
  let doc =
    "Compile only shard $(docv) (as I/N) of the point set.  Loops partition \
     deterministically by content digest — the identity the ledger sorts on — so N \
     shard processes cover the suite exactly once, and their $(b,--metrics) / \
     $(b,--ledger) outputs union back into the unsharded run with $(b,ncdrf merge)."
  in
  Arg.(value & opt (some shard_conv) None & info [ "shard" ] ~docv:"I/N" ~doc)

let cache_dir_arg =
  let doc =
    "Persist compile artifacts in a content-addressed on-disk store under $(docv), \
     shared safely between concurrent processes; a later run over the same store \
     warm-starts from disk instead of recomputing."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let cache_max_mb_arg =
  let doc =
    "Evict least-recently-used store entries once the $(b,--cache-dir) store \
     exceeds $(docv) megabytes (0 = no size budget)."
  in
  Arg.(value & opt int 0 & info [ "cache-max-mb" ] ~docv:"MB" ~doc)

(* The one place any command opens the persistent store. *)
let open_ambient_store ~cache_dir ~cache_max_mb =
  match cache_dir with
  | None -> ()
  | Some dir -> (
    try
      Store.set_ambient
        (Some (Store.open_store ~max_bytes:(cache_max_mb * 1024 * 1024) ~dir ()))
    with Sys_error msg ->
      Printf.eprintf "cannot open --cache-dir: %s\n" msg;
      exit 2)

let metrics_arg =
  let doc =
    "Write a JSON telemetry report (timers, counters, stage spans) to $(docv); \
     $(b,serve) publishes it, with its admission and latency figures, when it drains."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file to $(docv): begin/end events per \
     pipeline stage on one track per worker domain, loadable in \
     chrome://tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let ledger_arg =
  let doc =
    "Write a JSONL run ledger to $(docv): one record per (config, loop) point \
     with stage durations, cache traffic, II vs MII and error category \
     ($(b,serve) adds one record per request).  Analyze it with $(b,ncdrf profile)."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let inject_arg =
  let doc =
    "Arm a deterministic fault: stage=$(i,NAME)[,loop=$(i,REGEX)][,every=$(i,N)].  \
     Matching pipeline points raise a classified 'injected' failure; off by \
     default and zero-cost when disarmed."
  in
  let spec_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Fault.parse s)),
        fun ppf spec -> Format.pp_print_string ppf (Fault.spec_to_string spec) )
  in
  Arg.(value & opt (some spec_conv) None & info [ "inject" ] ~docv:"SPEC" ~doc)

(* What suite, bench and serve set up around their work: the fault to
   inject, the store, and the observability outputs. *)
type session = {
  inject : Fault.spec option;
  cache_dir : string option;
  cache_max_mb : int;
  metrics : string option;
  trace : string option;
  ledger : string option;
}

let session_term =
  let make inject cache_dir cache_max_mb metrics trace ledger =
    { inject; cache_dir; cache_max_mb; metrics; trace; ledger }
  in
  Term.(
    const make $ inject_arg $ cache_dir_arg $ cache_max_mb_arg $ metrics_arg $ trace_arg
    $ ledger_arg)

(* Uniform failure reporting for every subcommand: legacy front-end
   exceptions, classified pipeline errors, and policy aborts all exit 1
   with a one-line diagnosis instead of a backtrace. *)
let handle_errors f =
  try f () with
  | Loop_lang.Parse_error { file; line; message } ->
    Printf.eprintf "parse error, %sline %d: %s\n"
      (match file with None -> "" | Some p -> p ^ ", ")
      line message;
    1
  | Expr.Compile_error msg ->
    Printf.eprintf "compile error: %s\n" msg;
    1
  | Error.Error e ->
    Printf.eprintf "error: %s\n" (Error.to_string e);
    1
  | Failures.Abort { recorded; last; reason } ->
    Printf.eprintf "aborted (%s) after %d failure(s); last: %s\n" reason recorded
      (Error.to_string last);
    1

module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace
module Ledger = Ncdrf_telemetry.Ledger

(* One session for suite, bench and serve alike: arm the fault, open the
   store, arm the probes, run [f] under the uniform failure reporting,
   then publish the trace and the ledger — also after [f] raised, so an
   aborted batch run still leaves them.  The metrics file is [f]'s own:
   it carries the command's figures. *)
let with_session s f =
  Option.iter Fault.arm_spec s.inject;
  handle_errors @@ fun () ->
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  open_ambient_store ~cache_dir:s.cache_dir ~cache_max_mb:s.cache_max_mb;
  Telemetry.enable (s.metrics <> None);
  Trace.enable (s.trace <> None);
  Ledger.enable (s.ledger <> None);
  Fun.protect f ~finally:(fun () ->
      Option.iter (fun path -> Trace.write_chrome ~path) s.trace;
      Option.iter (fun path -> Ledger.write ~path) s.ledger)

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)
(* ------------------------------------------------------------------ *)

(* Print a response body the way every command does, batch or client,
   so the two paths cannot drift: a schedule of no loops and a failed
   request are one-line diagnoses (exit 1), and shedding that outlasted
   the client's retries exits 3 so scripts can tell "daemon busy" from
   "request bad". *)
let print_body (body : Protocol.response_body) =
  match body with
  | Protocol.Scheduled { points = []; _ } ->
    prerr_string "no matching loops\n";
    1
  | Protocol.Failed _ ->
    prerr_string (Protocol.render_body body);
    1
  | Protocol.Overloaded _ ->
    prerr_string (Protocol.render_body body);
    3
  | Protocol.Scheduled _ | Protocol.Suite_report _ | Protocol.Health_report _ ->
    print_string (Protocol.render_body body);
    0

let kernel_arg =
  let doc = "Also print the kernel (steady-state VLIW code)." in
  Arg.(value & flag & info [ "k"; "kernel" ] ~doc)

let schedule_cmd =
  let run verbose file name machine model capacity show_kernel =
    setup_logs verbose;
    handle_errors @@ fun () ->
    print_body
      (Protocol.schedule_body ~config:(config_of machine) ~model ?capacity ~show_kernel
         (load_loops file name))
  in
  let doc = "Modulo-schedule loops and report register requirements." in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(
      const run $ verbose_arg $ file_arg $ loop_name_arg $ machine_term latency_arg
      $ model_arg $ capacity_arg $ kernel_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let run file name =
    handle_errors @@ fun () ->
    let loops = load_loops file name in
    List.iter (fun g -> print_string (Dot.render g)) loops;
    if loops = [] then (Printf.eprintf "no matching loops\n"; 1) else 0
  in
  let doc = "Emit dependence graphs as Graphviz DOT." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ file_arg $ loop_name_arg)

(* ------------------------------------------------------------------ *)
(* suite and bench: one options term, one run setup                    *)
(* ------------------------------------------------------------------ *)

module Pool = Ncdrf_parallel.Pool
module Json = Ncdrf_telemetry.Json

let failures_arg =
  let doc = "Write the failure manifest as CSV to $(docv) (atomic temp+rename)." in
  Arg.(value & opt (some string) None & info [ "failures" ] ~docv:"FILE" ~doc)

type run_opts = {
  machine : Config.spec;
  jobs : int;
  timeout : float option;
  session : session;
  no_cache : bool;
  shard : (int * int) option;
  fail_fast : bool;
  max_failures : int option;
  failures_csv : string option;
}

let jobs_arg =
  let doc =
    "Worker domains for the per-loop pipeline (default: the recommended domain \
     count).  Results are identical whatever the value."
  in
  Arg.(value & opt int (Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let run_opts ~latency =
  let timeout_arg =
    let doc =
      "Per-point wall budget in seconds (monotonic clock): a (loop, model) point \
       over budget fails with the typed deadline_exceeded category and is recorded \
       in the failure manifest like any other failure."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the compile cache (every stage recomputes)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let fail_fast_arg =
    let doc =
      "Abort on the first failed (loop, model) point instead of skipping and \
       recording it (the default is to keep going)."
    in
    Arg.(value & flag & info [ "fail-fast" ] ~doc)
  in
  let max_failures_arg =
    let doc = "Abort once more than $(docv) points have failed." in
    Arg.(value & opt (some int) None & info [ "max-failures" ] ~docv:"N" ~doc)
  in
  let make machine jobs timeout session no_cache shard fail_fast max_failures failures_csv =
    { machine; jobs; timeout; session; no_cache; shard; fail_fast; max_failures; failures_csv }
  in
  Term.(
    const make $ machine_term latency $ jobs_arg $ timeout_arg $ session_term
    $ no_cache_arg $ shard_arg $ fail_fast_arg $ max_failures_arg $ failures_arg)

(* Run [f] on a pool with the run's failure collector in the run's
   session, then name the trace and the ledger the session published
   and publish the failure manifest — also after a failure-policy
   abort, which exits 1.  [f] prints its own report, failure summary
   and metrics. *)
let with_run o f =
  let failures = Failures.create ~fail_fast:o.fail_fast ?max_failures:o.max_failures () in
  let code =
    with_session o.session @@ fun () ->
    if o.no_cache then Artifact.set_cache_enabled false;
    Pool.with_pool ~jobs:o.jobs (fun pool -> f pool failures);
    0
  in
  Option.iter (Printf.printf "[trace: %s]\n%!") o.session.trace;
  Option.iter (Printf.printf "[ledger: %s]\n%!") o.session.ledger;
  Option.iter
    (fun path ->
      Ncdrf_report.Csv.write path (Failures.to_csv_rows failures);
      Printf.printf "[failures: %s]\n%!" path)
    o.failures_csv;
  code

(* A suite size below 1 is a usage error naming the flag (exit 2). *)
let size_conv =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 ->
      Stdlib.Error (`Msg (Printf.sprintf "invalid value '%d', expected an integer >= 1" n))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let suite_size_arg =
  let doc = "Number of loops in the synthetic suite." in
  Arg.(value & opt size_conv 300 & info [ "size" ] ~docv:"N" ~doc)

let registers_arg =
  let doc = "Register budget to test against." in
  Arg.(value & opt int 32 & info [ "r"; "registers" ] ~docv:"N" ~doc)

let suite_cmd =
  let run o size registers =
    with_run o @@ fun pool failures ->
    let config = config_of o.machine in
    let loops = Protocol.suite_loops ~size ?shard:o.shard () in
    Ledger.set_label "suite";
    let t0 = Telemetry.now () in
    (* The daemon builds a `client suite` answer with the same builder
       and `client suite` prints it with the same renderer. *)
    print_string
      (Protocol.render_body
         (Protocol.suite_body ~pool ~failures ?timeout_s:o.timeout ~config ~size ~registers
            loops));
    Option.iter
      (fun path ->
        let wall = Telemetry.now () -. t0 in
        let loops = Telemetry.counter "pipeline.loops" in
        Telemetry.write_json ~path
          (Json.Obj
             ([
                ("schema", Json.String "ncdrf-suite-metrics/1");
                ("jobs", Json.Int (Pool.jobs pool));
                ("suite_size", Json.Int size);
                ("wall_s", Json.Float wall);
                ( "loops_per_sec",
                  if wall > 0.0 then Json.Float (float_of_int loops /. wall)
                  else Json.Null );
                ("telemetry", Telemetry.to_json ());
              ]
             @
             if Failures.count failures = 0 then []
             else [ ("failures", Failures.to_json failures) ]));
        Printf.printf "[metrics: %s]\n%!" path)
      o.session.metrics
  in
  let doc = "Register-pressure summary over the synthetic Perfect-Club-like suite." in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(const run $ run_opts ~latency:latency_arg $ suite_size_arg $ registers_arg)

let bench_cmd =
  let run o names quick size seed csv_dir =
    let size = Option.value size ~default:(if quick then 150 else 795) in
    with_run o @@ fun pool failures ->
    let machine ~latency = config_of { o.machine with Config.spec_latency = latency } in
    let c =
      Bench.create ~pool ~failures ~timeout_s:o.timeout ~machine ~csv_dir
        (lazy (Protocol.suite_loops ~seed ?shard:o.shard ~size ()))
    in
    Bench.run c ~metrics:o.session.metrics ~size ~seed
      (if names = [] then Bench.names else names)
  in
  let names_arg =
    let doc =
      "Experiments to run, in order (default: all): "
      ^ String.concat ", " (List.map (Printf.sprintf "$(b,%s)") Bench.names)
      ^ "."
    in
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) Bench.names)) []
      & info [] ~docv:"EXP" ~doc)
  in
  let quick_arg =
    let doc = "Use a 150-loop suite instead of the paper's 795 (unless $(b,--size))." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let size_arg =
    let doc = "Number of loops in the synthetic suite (default 795)." in
    Arg.(value & opt (some size_conv) None & info [ "size" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Seed of the synthetic suite's generated loops." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let csv_arg =
    let doc = "Mirror each figure's series to a CSV file under $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "Regenerate the paper's tables and figures, plus ablations and extensions, on \
     the synthetic suite.  The machine flags replace the paper's dual machine in \
     every experiment that uses it; each experiment picks its own latencies."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ run_opts ~latency:(const 3) $ names_arg $ quick_arg $ size_arg
      $ seed_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let run file name =
    handle_errors @@ fun () ->
      let loops = load_loops file name in
      if loops = [] then (Printf.eprintf "no matching loops\n"; exit 1);
      List.iter
        (fun ddg ->
          Format.printf "== %a@." Ddg.pp_stats ddg;
          Format.printf "%-10s %4s | %8s %12s %8s@." "latency" "II" "unified" "partitioned"
            "swapped";
          List.iter
            (fun latency ->
              let config = Config.dual ~latency in
              let sched = Modulo.schedule config ddg in
              let unified = Requirements.unified sched in
              let part = (Requirements.partitioned sched).Requirements.requirement in
              let swapped_sched, _ = Swap.improve sched in
              let swapped =
                (Requirements.partitioned swapped_sched).Requirements.requirement
              in
              Format.printf "%-10d %4d | %8d %12d %8d@." latency (Schedule.ii sched) unified
                part swapped)
            [ 1; 2; 3; 4; 6; 8 ])
        loops;
      0
  in
  let doc = "Sweep FP latency and compare register-file models for each loop." in
  Cmd.v (Cmd.info "sweep" ~doc) Term.(const run $ file_arg $ loop_name_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let run file name machine iterations =
    handle_errors @@ fun () ->
      let loops = load_loops file name in
      if loops = [] then (Printf.eprintf "no matching loops\n"; exit 1);
      let config =
        config_of
          { machine with Config.spec_clusters = max machine.Config.spec_clusters 2 }
      in
      let clustered_tag =
        if Config.num_clusters config = 2 then "dual"
        else Printf.sprintf "k%d" (Config.num_clusters config)
      in
      let failures = ref 0 in
      List.iter
        (fun ddg ->
          let sched = Modulo.schedule config ddg in
          Format.printf "== %a: II=%d@." Ddg.pp_stats ddg (Schedule.ii sched);
          print_string (Chart.render sched);
          let expected = Ncdrf_sim.Reference.run ~iterations ddg in
          let check tag outcome =
            let ok = Ncdrf_sim.Reference.equal_stores outcome.Ncdrf_sim.Executor.stores expected in
            if not ok then incr failures;
            Format.printf "  %-8s %d regs/file, %d cycles%s: %s@." tag
              outcome.Ncdrf_sim.Executor.capacity outcome.Ncdrf_sim.Executor.cycles
              (if outcome.Ncdrf_sim.Executor.port_stalls > 0 then
                 Printf.sprintf " (%d port stall(s))" outcome.Ncdrf_sim.Executor.port_stalls
               else "")
              (if ok then "matches reference" else "DIVERGES")
          in
          check "unified" (Ncdrf_sim.Executor.run_unified ~iterations sched);
          check clustered_tag (Ncdrf_sim.Executor.run_clustered ~iterations sched);
          let swapped, _ = Swap.improve sched in
          check "swapped" (Ncdrf_sim.Executor.run_clustered ~iterations swapped))
        loops;
      if !failures > 0 then 1 else 0
  in
  let iterations_arg =
    let doc = "Iterations to execute." in
    Arg.(value & opt int 24 & info [ "n"; "iterations" ] ~docv:"N" ~doc)
  in
  let doc =
    "Execute loops on the simulated machine and check against the reference interpreter."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ file_arg $ loop_name_arg $ machine_term latency_arg $ iterations_arg)

(* ------------------------------------------------------------------ *)
(* kernels                                                             *)
(* ------------------------------------------------------------------ *)

let kernels_cmd =
  let run spec =
    let config = config_of spec in
    Format.printf "built-in kernels on %a:@.@." Config.pp config;
    Format.printf "%-20s %4s %4s %6s %9s %8s@." "name" "ops" "II" "unif" "partition" "swapped";
    List.iter
      (fun (ddg, _) ->
        let sched = Modulo.schedule config ddg in
        let swapped, _ = Swap.improve sched in
        Format.printf "%-20s %4d %4d %6d %9d %8d@." (Ddg.name ddg) (Ddg.num_nodes ddg)
          (Schedule.ii sched) (Requirements.unified sched)
          (Requirements.partitioned sched).Requirements.requirement
          (Requirements.partitioned swapped).Requirements.requirement)
      (Ncdrf_workloads.Kernels.all ());
    0
  in
  let doc = "List the built-in kernels with their register requirements." in
  let dual spec_latency = checked_spec { Config.default_spec with spec_latency } in
  Cmd.v (Cmd.info "kernels" ~doc) Term.(const run $ ret (const dual $ latency_arg))

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

module Stats = Ncdrf_report.Stats

(* The analysis both renderers share, computed once.  It is a pure
   function of the ledger file: ties in the duration sorts break on
   record identity, never on insertion order. *)
type profile = {
  records : Ledger.record list;
  labels : (string * Ledger.record list) list;  (** name-sorted *)
  failed : int;
  errors : (string * int) list;  (** failed points per error category *)
  requests : (string * int) list;  (** points per daemon request id *)
  slowest : Ledger.record list;  (** every record, slowest first *)
  stages : (string * (int * Ledger.record) list) list;
      (** per stage (name-sorted, [--stage]-filtered): every record's
          nanoseconds in it, slowest first *)
  missing_stage : string option;  (** a [--stage] that matched nothing *)
}

let analyze ?stage records =
  let slowest_first ns_a a ns_b b =
    match compare ns_b ns_a with 0 -> Ledger.compare_records a b | c -> c
  in
  let count_by key =
    List.sort_uniq String.compare (List.filter_map key records)
    |> List.map (fun k ->
           (k, List.length (List.filter (fun r -> key r = Some k) records)))
  in
  let stage_names =
    List.sort_uniq String.compare
      (List.concat_map (fun r -> List.map fst r.Trace.stages) records)
    |> List.filter (fun s -> Option.fold ~none:true ~some:(String.equal s) stage)
  in
  {
    records;
    labels =
      List.sort_uniq String.compare (List.map (fun r -> r.Trace.label) records)
      |> List.map (fun l -> (l, List.filter (fun r -> r.Trace.label = l) records));
    failed = List.length (List.filter (fun r -> not r.Trace.ok) records);
    errors = count_by (fun r -> if r.Trace.ok then None else r.Trace.error);
    requests =
      count_by (fun r -> if r.Trace.request = "" then None else Some r.Trace.request);
    slowest =
      List.stable_sort
        (fun a b -> slowest_first a.Trace.total_ns a b.Trace.total_ns b)
        records;
    stages =
      List.map
        (fun name ->
          ( name,
            List.filter_map
              (fun r -> Option.map (fun ns -> (ns, r)) (List.assoc_opt name r.Trace.stages))
              records
            |> List.stable_sort (fun (na, a) (nb, b) -> slowest_first na a nb b) ))
        stage_names;
    missing_stage = (if stage_names = [] then stage else None);
  }

let ms ns = float_of_int ns /. 1e6
let sum f records = List.fold_left (fun acc r -> acc + f r) 0 records
let take n l = List.filteri (fun i _ -> i < n) l

let print_profile ~top p =
  Format.printf "ledger: %d record(s), %d label(s), %d failed@." (List.length p.records)
    (List.length p.labels) p.failed;
  let hit_rate h m =
    if h + m = 0 then ""
    else Printf.sprintf " (%.1f%% hit rate)" (100.0 *. float_of_int h /. float_of_int (h + m))
  in
  let hits = sum (fun r -> r.Trace.cache_hits) p.records
  and misses = sum (fun r -> r.Trace.cache_misses) p.records in
  Format.printf "cache: %d hit(s) / %d miss(es)%s@." hits misses (hit_rate hits misses);
  let dhits = sum (fun r -> r.Trace.disk_hits) p.records
  and dmisses = sum (fun r -> r.Trace.disk_misses) p.records in
  (* Runs without a --cache-dir store have all-zero disk counters; stay
     silent so pre-store ledgers profile byte-identically. *)
  if dhits + dmisses > 0 then
    Format.printf "disk:  %d hit(s) / %d miss(es)%s@." dhits dmisses
      (hit_rate dhits dmisses);
  if List.length p.labels > 1 then
    List.iter
      (fun (label, mine) ->
        let h = sum (fun r -> r.Trace.cache_hits) mine
        and m = sum (fun r -> r.Trace.cache_misses) mine in
        Format.printf "  %-20s %d / %d%s@." label h m (hit_rate h m))
      p.labels;
  if p.failed > 0 then begin
    Format.printf "@.failed points by category:@.";
    List.iter (fun (cat, n) -> Format.printf "  errors.%-20s %d@." cat n) p.errors
  end;
  let describe r =
    let opt name = function None -> "" | Some v -> Printf.sprintf ", %s %d" name v in
    Printf.sprintf "%s, %s%s%s%s%s%s%s" r.Trace.config r.Trace.label
      (opt "cap" r.Trace.capacity)
      (match r.Trace.ii, r.Trace.mii with
      | Some ii, Some mii -> Printf.sprintf ", II %d/MII %d" ii mii
      | Some ii, None -> Printf.sprintf ", II %d" ii
      | None, _ -> "")
      (opt "rounds" r.Trace.rounds)
      (opt "spilled" r.Trace.spilled)
      (opt "maxlive" r.Trace.maxlive)
      (match r.Trace.error with None -> "" | Some e -> ", error " ^ e)
  in
  Format.printf "@.slowest points (total wall time):@.";
  List.iteri
    (fun i r ->
      Format.printf "  %2d. %10.3f ms  %-16s (%s)@." (i + 1) (ms r.Trace.total_ns)
        r.Trace.loop (describe r))
    (take top p.slowest);
  Option.iter (Format.printf "@.stage %S: no records@.") p.missing_stage;
  List.iter
    (fun (stage, entries) ->
      Format.printf "@.top %d by stage %S:@." top stage;
      List.iteri
        (fun i (ns, r) ->
          Format.printf "  %2d. %10.3f ms  %-16s (%s, %s)@." (i + 1) (ms ns)
            r.Trace.loop r.Trace.config r.Trace.label)
        (take top entries);
      Format.printf "@.stage %S duration histogram (ms):@." stage;
      print_string
        (Stats.render_histogram
           ~label:(fun v -> Printf.sprintf "%.3f" v)
           (Stats.auto_histogram (List.map (fun (ns, _) -> ms ns) entries))))
    p.stages

(* The same analysis as machine-readable JSON ("ncdrf-profile/1"), so
   CI can gate on ledger-derived stats without scraping the ASCII
   tables.  Durations are milliseconds, like the ASCII output. *)
let profile_json ~top p =
  let module Json = Ncdrf_telemetry.Json in
  let ints l = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) l) in
  let point_obj extra r =
    Json.Obj
      ([
         ("loop", Json.String r.Trace.loop);
         ("config", Json.String r.Trace.config);
         ("label", Json.String r.Trace.label);
       ]
      @ extra)
  in
  let stage_obj (stage, entries) =
    let durations = List.map (fun (ns, _) -> ms ns) entries in
    let pct q = Stats.percentile q durations in
    ( stage,
      Json.Obj
        [
          ("count", Json.Int (List.length entries));
          ("total_ms", Json.Float (List.fold_left ( +. ) 0.0 durations));
          ("p50_ms", Json.Float (pct 50.0));
          ("p90_ms", Json.Float (pct 90.0));
          ("p99_ms", Json.Float (pct 99.0));
          ( "top",
            Json.List
              (List.map
                 (fun (ns, r) -> point_obj [ ("ms", Json.Float (ms ns)) ] r)
                 (take top entries)) );
        ] )
  in
  Json.Obj
    ([
       ("schema", Json.String "ncdrf-profile/1");
       ("records", Json.Int (List.length p.records));
       ("labels", Json.Int (List.length p.labels));
       ("failed", Json.Int p.failed);
       ( "cache",
         ints
           [
             ("hits", sum (fun r -> r.Trace.cache_hits) p.records);
             ("misses", sum (fun r -> r.Trace.cache_misses) p.records);
             ("disk_hits", sum (fun r -> r.Trace.disk_hits) p.records);
             ("disk_misses", sum (fun r -> r.Trace.disk_misses) p.records);
           ] );
       ( "by_label",
         Json.Obj
           (List.map
              (fun (label, mine) ->
                ( label,
                  ints
                    [
                      ("records", List.length mine);
                      ("cache_hits", sum (fun r -> r.Trace.cache_hits) mine);
                      ("cache_misses", sum (fun r -> r.Trace.cache_misses) mine);
                    ] ))
              p.labels) );
       ("errors", ints p.errors);
     ]
    @ (if p.requests = [] then [] else [ ("by_request", ints p.requests) ])
    @ [
        ( "slowest",
          Json.List
            (List.map
               (fun r -> point_obj [ ("total_ms", Json.Float (ms r.Trace.total_ns)) ] r)
               (take top p.slowest)) );
        ("stages", Json.Obj (List.map stage_obj p.stages));
      ])

let profile_cmd =
  let run files top stage format =
    handle_errors @@ fun () ->
    let loaded =
      List.map
        (fun file ->
          match Ledger.load ~path:file with
          | Stdlib.Error msg ->
            Printf.eprintf "profile: %s: %s\n" file msg;
            exit 1
          | Ok records -> (file, records))
        files
    in
    (* Shard ledgers merge like `ncdrf merge`: concatenate and re-sort
       by record identity, so the analysis below sees one run. *)
    let records =
      Ncdrf_telemetry.Merge.merge_ledgers (List.map snd loaded)
    in
    match records with
    | [] ->
      Printf.eprintf "profile: empty ledger\n";
      1
    | records -> (
      match format with
      | `Json ->
        print_string
          (Ncdrf_telemetry.Json.to_string (profile_json ~top (analyze ?stage records)));
        print_newline ();
        0
      | `Ascii ->
        if List.length loaded > 1 then begin
          Format.printf "shards:@.";
          List.iter
            (fun (file, rs) ->
              Format.printf "  %-32s %d point(s)@." file (List.length rs))
            loaded
        end;
        print_profile ~top (analyze ?stage records);
        0)
  in
  let ledger_file_arg =
    let doc =
      "Run ledgers (JSONL) produced by $(b,--ledger) runs.  Several files — e.g. \
       the per-shard ledgers of a $(b,--shard) run — are merged by record \
       identity and analyzed as one run, with per-shard point counts reported."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"LEDGER" ~doc)
  in
  let top_arg =
    let doc = "Show the $(docv) slowest entries per ranking." in
    Arg.(value & opt int 3 & info [ "top" ] ~docv:"N" ~doc)
  in
  let stage_arg =
    let doc = "Only analyze stage $(docv) (e.g. schedule, alloc, spill)." in
    Arg.(value & opt (some string) None & info [ "stage" ] ~docv:"NAME" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,ascii) tables and histograms (default), or $(b,json) — \
       the same analysis as one machine-readable ncdrf-profile/1 document."
    in
    Arg.(
      value
      & opt (enum [ ("ascii", `Ascii); ("json", `Json) ]) `Ascii
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let doc =
    "Analyze a run ledger: slowest points per stage, cache-hit breakdowns and \
     ASCII duration histograms (or the same tables as JSON)."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ ledger_file_arg $ top_arg $ stage_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* merge                                                               *)
(* ------------------------------------------------------------------ *)

module Merge = Ncdrf_telemetry.Merge

let merge_cmd =
  let run files metrics_out ledger_out trace_out strip =
    handle_errors @@ fun () ->
    (* Inputs self-identify: a JSON document with a "schema" field is a
       metrics file, one with a "traceEvents" list is a Chrome trace,
       anything else must load as a JSONL ledger. *)
    let classify file =
      let content =
        try In_channel.with_open_text file In_channel.input_all
        with Sys_error msg ->
          Printf.eprintf "merge: %s\n" msg;
          exit 1
      in
      match Json.of_string content with
      | Ok (Json.Obj fields as json) when List.mem_assoc "schema" fields ->
        `Metrics json
      | Ok (Json.Obj fields as json) when List.mem_assoc "traceEvents" fields ->
        `Trace json
      | _ -> (
        match Ledger.load ~path:file with
        | Ok records -> `Ledger records
        | Stdlib.Error msg ->
          Printf.eprintf
            "merge: %s: neither a metrics JSON, a trace, nor a ledger: %s\n" file msg;
          exit 1)
    in
    let inputs = List.map classify files in
    let metrics_in = List.filter_map (function `Metrics j -> Some j | _ -> None) inputs in
    let ledgers_in = List.filter_map (function `Ledger r -> Some r | _ -> None) inputs in
    let traces_in = List.filter_map (function `Trace j -> Some j | _ -> None) inputs in
    (* Every input kind pairs with its --OUT flag.  All three pairings
       are checked, and every merge is computed, before any output is
       written. *)
    let paired kind inputs out =
      match (inputs, out) with
      | [], None -> None
      | [], Some _ ->
        Printf.eprintf "merge: --%s given but no %s inputs\n" kind kind;
        exit 1
      | _ :: _, None ->
        Printf.eprintf "merge: %s inputs given but no --%s OUT\n" kind kind;
        exit 1
      | _ :: _, Some path -> Some (inputs, path)
    in
    let metrics = paired "metrics" metrics_in metrics_out in
    let ledgers = paired "ledger" ledgers_in ledger_out in
    let traces = paired "trace" traces_in trace_out in
    let merged merge =
      Option.map (fun (inputs, path) ->
          match merge inputs with
          | Ok doc -> (doc, path)
          | Stdlib.Error msg ->
            Printf.eprintf "merge: %s\n" msg;
            exit 1)
    in
    let metrics = merged Merge.merge_metrics metrics in
    let traces = merged Merge.merge_traces traces in
    Option.iter
      (fun (doc, path) ->
        let doc = if strip then Merge.strip_timing doc else doc in
        Ncdrf_telemetry.Telemetry.write_json ~path doc;
        Format.printf "[metrics: %s]@." path)
      metrics;
    Option.iter
      (fun (shards, path) ->
        let records = Merge.merge_ledgers shards in
        let records =
          if strip then List.map Merge.strip_record_timing records else records
        in
        Json.write_file ~prefix:".ledger" ~path (Ledger.to_jsonl records);
        Format.printf "[ledger: %s]@." path)
      ledgers;
    Option.iter
      (fun (doc, path) ->
        Json.write_file ~prefix:".trace" ~path (Json.to_string doc ^ "\n");
        Format.printf "[trace: %s]@." path)
      traces;
    0
  in
  let files_arg =
    let doc =
      "Shard outputs to merge: $(b,--metrics) JSONs and/or $(b,--ledger) JSONL \
       files, classified by content.  A single input is re-rendered through the \
       same merge, which normalizes an unsharded file for comparison."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let metrics_out_arg =
    let doc =
      "Write the merged metrics JSON to $(docv): counters, span counts and self times sum, \
       span maxima take the max, percentiles merge count-weighted."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"OUT" ~doc)
  in
  let ledger_out_arg =
    let doc =
      "Write the merged ledger to $(docv): shard records concatenated and \
       re-sorted by record identity, the order an unsharded run writes."
    in
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"OUT" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write the merged Chrome trace to $(docv): each input trace re-namespaced \
       onto its own pid, thread-name metadata first, timed events stable-sorted \
       by timestamp; per-event request ids pass through."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT" ~doc)
  in
  let strip_arg =
    let doc =
      "Null every timing field (wall clocks, span durations, percentiles, rates) \
       in the outputs, so a merged sharded run can be compared byte-for-byte \
       against a normalized unsharded run."
    in
    Arg.(value & flag & info [ "strip-timing" ] ~doc)
  in
  let doc = "Merge sharded --metrics / --ledger / --trace outputs into one run." in
  Cmd.v (Cmd.info "merge" ~doc)
    Term.(
      const run $ files_arg $ metrics_out_arg $ ledger_out_arg $ trace_out_arg
      $ strip_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run verbose socket jobs max_inflight queue timeout drain_grace session =
    setup_logs verbose;
    with_session session @@ fun () ->
    let opts =
      {
        Server.socket_path = socket;
        jobs;
        max_inflight;
        queue_bound = queue;
        default_timeout_s = timeout;
        drain_grace_s = drain_grace;
        metrics = session.metrics;
      }
    in
    (* A path the daemon cannot listen on is a usage error naming the
       flag, like an unusable --cache-dir. *)
    try Server.run opts
    with Server.Socket_unusable msg ->
      Printf.eprintf "cannot bind --socket: %s\n" msg;
      2
  in
  let max_inflight_arg =
    let doc =
      "Concurrent request execution slots: up to $(docv) admitted requests execute \
       at once on their connection threads (per-request observability is isolated \
       by (domain, thread)-keyed shards and request-id stamping).  At least 1."
    in
    (* With no slot, no work request could ever be admitted. *)
    let check n =
      if n >= 1 then `Ok n
      else `Error (true, Printf.sprintf "--max-inflight %d: must be at least 1" n)
    in
    Term.(ret (const check $ Arg.(value & opt int 4 & info [ "max-inflight" ] ~docv:"N" ~doc)))
  in
  let queue_arg =
    let doc =
      "Admission queue bound: requests beyond the executing ones wait in at most \
       $(docv) slots; further requests are shed with a typed overloaded response."
    in
    Arg.(value & opt int 8 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Default per-request deadline in seconds (requests may carry their own)." in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let drain_grace_arg =
    let doc =
      "On SIGTERM/SIGINT, let in-flight requests finish for $(docv) seconds before \
       cancelling them."
    in
    Arg.(value & opt float 5.0 & info [ "drain-grace" ] ~docv:"SECS" ~doc)
  in
  let doc = "Serve scheduling requests over a Unix-domain socket (JSONL protocol)." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ verbose_arg $ socket_arg $ jobs_arg $ max_inflight_arg
      $ queue_arg $ timeout_arg $ drain_grace_arg $ session_term)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let connect_timeout_arg =
  let doc = "Seconds to keep polling for the daemon's socket before giving up." in
  Arg.(value & opt float 5.0 & info [ "connect-timeout" ] ~docv:"SECS" ~doc)

let retries_arg =
  let doc =
    "Retry an overloaded answer up to $(docv) times, honoring the daemon's \
     retry-after hint with exponential backoff and jitter."
  in
  Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N" ~doc)

let request_timeout_arg =
  let doc = "Per-request deadline in seconds, enforced by the daemon." in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let req_counter = ref 0

let fresh_request_id () =
  incr req_counter;
  Printf.sprintf "cli-%d-%d" (Unix.getpid ()) !req_counter

(* Issue one request and print the answer through [print_body], then
   hand a successful body to [after]; a request that never got an
   answer gets the uniform one-line diagnosis (exit 1). *)
let with_client ?(after = ignore) ~socket ~connect_timeout ~retries ~kind ~timeout_s () =
  handle_errors @@ fun () ->
  let client = Client.connect ~connect_timeout_s:connect_timeout socket in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  let req = { Protocol.id = fresh_request_id (); timeout_s; kind } in
  match Client.request ~retries client req with
  | Stdlib.Error e ->
    Printf.eprintf "error: %s\n" (Error.to_string e);
    1
  | Ok resp ->
    let code = print_body resp.Protocol.body in
    if code = 0 then after resp.Protocol.body;
    code

let client_health_cmd ~name ~kind =
  let run socket connect_timeout =
    with_client ~socket ~connect_timeout ~retries:0 ~kind ~timeout_s:None ()
  in
  let doc = "Query the daemon's health/stats snapshot (bypasses admission)." in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ socket_arg $ connect_timeout_arg)

let client_schedule_cmd =
  let run socket connect_timeout retries timeout file name spec model capacity
      show_kernel =
    let source =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    in
    let kind =
      Protocol.Schedule
        {
          workload = Protocol.Source source;
          only = name;
          spec;
          model;
          capacity;
          spill_batch = 1;
          spill_incremental = false;
          show_kernel;
        }
    in
    with_client ~socket ~connect_timeout ~retries ~kind ~timeout_s:timeout ()
  in
  let doc = "Compile a loop file on the daemon; output matches $(b,ncdrf schedule)." in
  Cmd.v (Cmd.info "schedule" ~doc)
    Term.(
      const run $ socket_arg $ connect_timeout_arg $ retries_arg $ request_timeout_arg
      $ file_arg $ loop_name_arg $ machine_term latency_arg $ model_arg $ capacity_arg
      $ kernel_arg)

let client_suite_cmd =
  let run socket connect_timeout retries timeout spec size registers failures_csv =
    let kind = Protocol.Suite { spec; size; registers } in
    let write_failures = function
      | Protocol.Suite_report { failures; _ } ->
        Option.iter
          (fun path ->
            Ncdrf_report.Csv.write path (Failures.csv_rows_of_list failures);
            Printf.printf "[failures: %s]\n%!" path)
          failures_csv
      | _ -> ()
    in
    with_client ~after:write_failures ~socket ~connect_timeout ~retries ~kind
      ~timeout_s:timeout ()
  in
  let doc = "Run the suite summary on the daemon; output matches $(b,ncdrf suite)." in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(
      const run $ socket_arg $ connect_timeout_arg $ retries_arg $ request_timeout_arg
      $ machine_term latency_arg $ suite_size_arg $ registers_arg $ failures_arg)

let client_cmd =
  let doc = "Talk to a running $(b,ncdrf serve) daemon." in
  Cmd.group (Cmd.info "client" ~doc)
    [
      client_schedule_cmd;
      client_suite_cmd;
      client_health_cmd ~name:"health" ~kind:Protocol.Health;
      client_health_cmd ~name:"stats" ~kind:Protocol.Stats;
    ]

(* ------------------------------------------------------------------ *)
(* example                                                             *)
(* ------------------------------------------------------------------ *)

let example_cmd =
  let run () =
    let ddg = Ncdrf_workloads.Kernels.paper_example () in
    let config = Config.example () in
    let sched = Modulo.schedule config ddg in
    Format.printf "machine: %a@." Config.pp config;
    Format.printf "%a@." Schedule.pp sched;
    print_string (Kernel.render sched);
    let detail = Requirements.partitioned sched in
    Format.printf "unified %d, partitioned %d@." (Requirements.unified sched)
      detail.Requirements.requirement;
    let swapped, stats = Swap.improve sched in
    Format.printf "after %d swaps: %d@." stats.Swap.swaps
      (Requirements.partitioned swapped).Requirements.requirement;
    0
  in
  let doc = "Schedule the paper's worked example and print every artifact." in
  Cmd.v (Cmd.info "example" ~doc) Term.(const run $ const ())

let () =
  let doc = "non-consistent dual register files for software-pipelined loops" in
  let info = Cmd.info "ncdrf" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ schedule_cmd; dot_cmd; suite_cmd; bench_cmd; sweep_cmd; simulate_cmd;
        kernels_cmd; profile_cmd; merge_cmd; example_cmd; serve_cmd; client_cmd ]
  in
  match Cmd.eval_value group with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Stdlib.Error (`Parse | `Term) -> exit 2
  | Stdlib.Error `Exn -> exit 125
