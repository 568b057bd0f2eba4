(* The observability layer: Json parser round-trips and atomic file
   publication, span distributions feeding the metrics report, the
   event trace (valid Chrome document, balanced B/E, --jobs
   invariance), the run ledger (record round-trip, file round-trip,
   --jobs identity-set guard) and the standing invariant that arming
   tracing changes no pipeline result byte. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
module Telemetry = Ncdrf_telemetry.Telemetry
module Json = Ncdrf_telemetry.Json
module Trace = Ncdrf_telemetry.Trace
module Ledger = Ncdrf_telemetry.Ledger
module Ring = Ncdrf_telemetry.Ring
module Stats = Ncdrf_report.Stats
module Pool = Ncdrf_parallel.Pool
module Generator = Ncdrf_workloads.Generator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.0))

(* Arm the requested layers for [f], then disarm and drop everything
   recorded so no other test sees observability state. *)
let with_observability ?(trace = true) ?(ledger = true) f =
  Trace.enable trace;
  Ledger.enable ledger;
  Fun.protect
    ~finally:(fun () ->
      Trace.enable false;
      Ledger.enable false;
      Trace.reset ();
      Ledger.reset ())
    f

let fixed_loops ?(n = 10) () =
  Ncdrf_workloads.Suite.full ~size:40 ~seed:2025 ()
  |> List.filteri (fun i _ -> i < n)
  |> List.map (fun e ->
         { Suite_stats.ddg = e.Ncdrf_workloads.Suite.ddg;
           weight = e.Ncdrf_workloads.Suite.iterations })

(* ------------------------------------------------------------------ *)
(* Json: parser round-trips and failures.                              *)
(* ------------------------------------------------------------------ *)

let roundtrip_values =
  [
    Json.Null;
    Json.Bool true;
    Json.Bool false;
    Json.Int 0;
    Json.Int (-42);
    Json.Int max_int;
    Json.Float 3.5;
    Json.Float (-0.125);
    Json.String "plain";
    Json.String "quote\" slash\\ ctrl\n\t end";
    Json.String "utf8 \xe2\x98\x83";
    Json.List [];
    Json.Obj [];
    Json.List [ Json.Int 1; Json.Null; Json.String "x"; Json.List [ Json.Bool false ] ];
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool false; Json.Float 2.5 ]);
        ("c", Json.Obj [ ("d", Json.Null); ("e", Json.String "") ]);
      ];
  ]

let test_json_roundtrip () =
  List.iter
    (fun v ->
      let back rendering s =
        match Json.of_string s with
        | Ok v' ->
          check_bool (rendering ^ " round-trips: " ^ s) true (v = v')
        | Error e -> Alcotest.fail (rendering ^ " parse failed: " ^ e)
      in
      back "to_string" (Json.to_string v);
      back "to_compact" (Json.to_compact v))
    roundtrip_values

let test_json_parse_forms () =
  let ok s v =
    match Json.of_string s with
    | Ok v' -> check_bool ("parses: " ^ s) true (v = v')
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "12" (Json.Int 12);
  ok "-3" (Json.Int (-3));
  ok "12.0" (Json.Float 12.0);
  ok "1e3" (Json.Float 1000.0);
  ok "  [ 1 , 2 ]  " (Json.List [ Json.Int 1; Json.Int 2 ]);
  ok "\"\\u0041\\n\"" (Json.String "A\n");
  ok "\"\\u2603\"" (Json.String "\xe2\x98\x83");
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail ("should not parse: " ^ s)
      | Error _ -> ())
    [ ""; "tru"; "[1,]"; "{\"a\":1"; "{} trailing"; "\"open"; "{1:2}" ]

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let test_write_file_no_tmp_litter () =
  (* Point each writer — the durable one and the no-fsync publisher —
     at a path whose final rename must fail (the target is a non-empty
     directory): the temp file may not survive. *)
  List.iter
    (fun (what, write) ->
      let dir = Filename.temp_file "ncdrf_json" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o755;
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let target = Filename.concat dir "out" in
          Sys.mkdir target 0o755;
          let oc = open_out (Filename.concat target "occupied") in
          close_out oc;
          (match write ~path:target "{}\n" with
           | () -> Alcotest.failf "%s: rename over a non-empty directory succeeded?" what
           | exception Sys_error _ -> ());
          let leftovers =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".tmp")
          in
          Alcotest.(check (list string)) (what ^ ": no temp litter") [] leftovers;
          (* The happy path still publishes (and also leaves no litter). *)
          let good = Filename.concat dir "ok.json" in
          write ~path:good "[1]";
          Alcotest.(check string)
            (what ^ ": published") "[1]"
            (In_channel.with_open_bin good In_channel.input_all);
          let tmps =
            Sys.readdir dir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".tmp")
          in
          Alcotest.(check (list string)) (what ^ ": no temp litter after success") [] tmps))
    [
      ("write_file", fun ~path s -> Json.write_file ~path s);
      ("publish_file", fun ~path s -> Json.publish_file ~path s);
    ]

(* ------------------------------------------------------------------ *)
(* Stats.auto_histogram and span distributions.                        *)
(* ------------------------------------------------------------------ *)

let test_auto_histogram () =
  Alcotest.(check (list (pair (float 0.0) int))) "empty" [] (Stats.auto_histogram []);
  Alcotest.(check (list (pair (float 0.0) int)))
    "constant series collapses"
    [ (2.0, 3) ]
    (Stats.auto_histogram [ 2.0; 2.0; 2.0 ]);
  let values = List.init 101 float_of_int in
  let buckets = Stats.auto_histogram values in
  check_float "first bucket at the minimum" 0.0 (fst (List.hd buckets));
  check_int "counts cover the series" 101
    (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  check_bool "about the requested bucket count" true
    (List.length buckets >= 10 && List.length buckets <= 11);
  (* The renderer accepts what auto_histogram emits. *)
  let rendered =
    Stats.render_histogram ~label:(fun v -> Printf.sprintf "%.1f" v) buckets
  in
  check_bool "rendered one line per bucket" true
    (List.length (String.split_on_char '\n' (String.trim rendered))
     = List.length buckets)

let test_span_distributions () =
  Telemetry.enable true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.enable false;
      Telemetry.reset ())
    (fun () ->
      Telemetry.reset ();
      for i = 1 to 100 do
        Telemetry.time "s" (fun () -> ignore (Sys.opaque_identity (List.init (50 * i) Fun.id)))
      done;
      check_int "every sample counted" 100 (Telemetry.span_count "s");
      let samples =
        List.concat_map
          (fun (name, (a : Trace.acc)) -> if name = "s" then Ring.to_list a.Trace.samples else [])
          (Trace.accs ())
      in
      check_int "every sample held" 100 (List.length samples);
      (* The metrics document carries the samples' nearest-rank
         percentiles and their sum (additive keys). *)
      let span =
        match Telemetry.to_json () with
        | Json.Obj doc -> (
          match List.assoc_opt "spans" doc with
          | Some (Json.Obj spans) -> (
            match List.assoc_opt "s" spans with Some (Json.Obj f) -> f | _ -> [])
          | _ -> [])
        | _ -> []
      in
      let field key =
        match List.assoc_opt key span with
        | Some (Json.Float v) -> v
        | _ -> Alcotest.fail ("metrics JSON lacks " ^ key)
      in
      List.iter
        (fun (key, q) -> check_float (key ^ " nearest-rank") (Stats.percentile q samples) (field key))
        [ ("p50_s", 50.0); ("p90_s", 90.0); ("p99_s", 99.0) ];
      Alcotest.(check (float 1e-6)) "self_s" (List.fold_left ( +. ) 0.0 samples) (field "self_s"))

(* A daemon records spans under ever-new request ids: the accumulators
   stay one per name per thread, their sample storage stays within the
   cap, and the count stays exact. *)
let test_span_storage_bounded () =
  Telemetry.enable true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.enable false;
      Telemetry.reset ())
  @@ fun () ->
  Telemetry.reset ();
  for r = 1 to 1_000 do
    Trace.with_request ~id:(Printf.sprintf "req%d" r) (fun () ->
        for _ = 1 to 100 do
          Telemetry.time "s" ignore
        done)
  done;
  check_int "count is exact" 100_000 (Telemetry.span_count "s");
  match List.filter (fun (n, _) -> n = "s") (Trace.accs ()) with
  | [ (_, (a : Trace.acc)) ] ->
    check_bool "sample storage within the cap" true
      (Ring.allocated a.Trace.samples <= Trace.sample_cap);
    check_int "the ring holds the cap" Trace.sample_cap (Ring.length a.Trace.samples);
    check_int "the rest were dropped" (100_000 - Trace.sample_cap)
      (Ring.dropped a.Trace.samples)
  | l -> Alcotest.fail (Printf.sprintf "%d accumulators for one name" (List.length l))

(* A ring holds the most recent [cap] of the items added, oldest first,
   whatever the mix of growth and wrapping. *)
let prop_ring_keeps_latest =
  QCheck.Test.make ~count:200 ~name:"ring keeps the latest cap items"
    QCheck.(pair (int_range 1 40) (int_range 0 200))
    (fun (cap, n) ->
      let r = Ring.create ~cap (-1) in
      for i = 1 to n do
        Ring.add r i
      done;
      let held = min n cap in
      Ring.to_list r = List.init held (fun i -> n - held + 1 + i)
      && Ring.added r = n
      && Ring.allocated r <= cap)

(* ------------------------------------------------------------------ *)
(* Event trace: valid Chrome document with balanced, nested B/E.       *)
(* ------------------------------------------------------------------ *)

let obj = function
  | Json.Obj o -> o
  | _ -> Alcotest.fail "expected a JSON object"

let str = function
  | Json.String s -> s
  | _ -> Alcotest.fail "expected a JSON string"

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> Alcotest.fail "expected a JSON number"

let test_trace_chrome_document () =
  let loops = fixed_loops () in
  let config = Config.dual ~latency:3 in
  with_observability ~ledger:false (fun () ->
      Artifact.clear_cache ();
      ignore (Suite_stats.measure_all ~config ~models:Model.all loops);
      let path = Filename.temp_file "ncdrf_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.write_chrome ~path;
          let doc = In_channel.with_open_text path In_channel.input_all in
          let json =
            match Json.of_string doc with
            | Ok j -> j
            | Error e -> Alcotest.fail ("trace file is not valid JSON: " ^ e)
          in
          let events =
            match List.assoc "traceEvents" (obj json) with
            | Json.List evs -> List.map obj evs
            | _ -> Alcotest.fail "traceEvents is not a list"
          in
          check_bool "trace has events" true (events <> []);
          (* Every phase is one we emit; B/E counts balance per name. *)
          let begins = Hashtbl.create 16 and ends = Hashtbl.create 16 in
          let bump h k = Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)) in
          let stacks : (float, string list) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun e ->
              let name = str (List.assoc "name" e) in
              let tid = num (List.assoc "tid" e) in
              match str (List.assoc "ph" e) with
              | ("B" | "E" | "i") when num (List.assoc "ts" e) < 0.0 ->
                Alcotest.fail "negative timestamp"
              | "B" ->
                bump begins name;
                Hashtbl.replace stacks tid
                  (name :: Option.value ~default:[] (Hashtbl.find_opt stacks tid))
              | "E" ->
                bump ends name;
                (match Hashtbl.find_opt stacks tid with
                 | Some (top :: rest) ->
                   Alcotest.(check string) "E matches innermost B" top name;
                   Hashtbl.replace stacks tid rest
                 | _ -> Alcotest.fail "E with no open B on its track")
              | "i" | "M" -> ()
              | ph -> Alcotest.fail ("unexpected phase " ^ ph))
            events;
          Hashtbl.iter
            (fun name b ->
              check_int ("balanced B/E for " ^ name) b
                (Option.value ~default:0 (Hashtbl.find_opt ends name)))
            begins;
          Hashtbl.iter
            (fun _ stack -> check_int "every span closed" 0 (List.length stack))
            stacks;
          check_bool "a schedule span was traced" true
            (Hashtbl.mem begins "schedule");
          check_int "nothing dropped on this small run" 0 (Trace.dropped ())))

let event_key (e : Trace.event) =
  (e.Trace.name, e.Trace.phase, e.Trace.loop, e.Trace.config)

let test_trace_jobs_invariant () =
  let loops = fixed_loops () in
  let config = Config.dual ~latency:6 in
  with_observability ~ledger:false (fun () ->
      let run pool =
        Artifact.clear_cache ();
        Trace.reset ();
        ignore (Suite_stats.measure_all ?pool ~config ~models:Model.all loops);
        List.sort compare (List.map event_key (Trace.events ()))
      in
      let serial = run None in
      let parallel = Pool.with_pool ~jobs:2 (fun pool -> run (Some pool)) in
      check_bool "events recorded" true (serial <> []);
      check_bool "--jobs 2 emits the same event multiset as --jobs 1" true
        (serial = parallel))

(* Two systhreads on one domain: the (domain, thread)-keyed registry
   keeps span accumulators and trace events apart — under the old
   domain-keyed scheme both threads shared one shard, so their B/E
   events interleaved on a single track and samples trampled each
   other.  Regression for the daemon's concurrent connection
   handlers. *)
let test_two_systhreads_do_not_interleave () =
  Telemetry.enable true;
  Trace.enable true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.enable false;
      Trace.enable false;
      Telemetry.reset ();
      Trace.reset ())
  @@ fun () ->
  Telemetry.reset ();
  Trace.reset ();
  let rounds = 25 in
  let body id () =
    Trace.with_request ~id @@ fun () ->
    for _ = 1 to rounds do
      (* Yield inside the span so the two threads genuinely overlap. *)
      Telemetry.time ("work." ^ id) Thread.yield
    done
  in
  let t1 = Thread.create (body "alpha") () in
  let t2 = Thread.create (body "beta") () in
  Thread.join t1;
  Thread.join t2;
  (* Each thread recorded into its own shard: one accumulator per
     name, holding exactly that thread's samples. *)
  let accs name = List.filter (fun (n, _) -> n = name) (Trace.accs ()) in
  List.iter
    (fun name ->
      match accs name with
      | [ (_, (a : Trace.acc)) ] -> check_int (name ^ " kept every sample") rounds a.Trace.count
      | l -> Alcotest.fail (Printf.sprintf "%s: %d accumulators" name (List.length l)))
    [ "work.alpha"; "work.beta" ];
  (* Each thread's events sit on their own track, stamped with their
     request id, and balance B/E with no interleaving. *)
  let evs = Trace.events () in
  let tracks_of req =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Trace.event) ->
           if e.Trace.request = req then Some e.Trace.track else None)
         evs)
  in
  (match (tracks_of "alpha", tracks_of "beta") with
   | [ a ], [ b ] -> check_bool "requests on distinct tracks" true (a <> b)
   | a, b ->
     Alcotest.fail
       (Printf.sprintf "expected one track per request, got %d and %d"
          (List.length a) (List.length b)));
  List.iter
    (fun req ->
      let mine =
        List.filter (fun (e : Trace.event) -> e.Trace.request = req) evs
      in
      check_int ("event count for " ^ req) (2 * rounds) (List.length mine);
      let depth = ref 0 in
      List.iter
        (fun (e : Trace.event) ->
          match e.Trace.phase with
          | 'B' -> incr depth
          | 'E' ->
            if !depth = 0 then
              Alcotest.fail ("unbalanced E within request " ^ req);
            decr depth
          | _ -> ())
        mine;
      check_int ("balanced B/E for " ^ req) 0 !depth)
    [ "alpha"; "beta" ]

(* ------------------------------------------------------------------ *)
(* Run ledger: record and file round-trips, --jobs identity guard.     *)
(* ------------------------------------------------------------------ *)

let sample_record : Ledger.record =
  {
    Trace.label = "t";
    request = "";
    loop = "loop-1";
    config = "dual-L3";
    fp = "abc123def456";
    models = "unified+swapped";
    capacity = Some 32;
    clusters = Some 2;
    mii = Some 4;
    ii = Some 5;
    rounds = Some 2;
    spilled = Some 3;
    requirement = Some 17;
    maxlive = Some 21;
    spill_full = Some 2;
    cache_hits = 2;
    cache_misses = 4;
    disk_hits = 1;
    disk_misses = 3;
    stages = [ ("alloc", 123456); ("schedule", 99) ];
    total_ns = 424242;
    ok = true;
    error = None;
  }

let failed_record =
  {
    sample_record with
    Trace.loop = "loop-2";
    capacity = None;
    mii = None;
    ii = None;
    rounds = None;
    spilled = None;
    requirement = None;
    maxlive = None;
    spill_full = None;
    stages = [];
    ok = false;
    error = Some "sched";
  }

let test_ledger_record_roundtrip () =
  List.iter
    (fun (r : Ledger.record) ->
      match Ledger.parse_line (Json.to_compact (Ledger.to_json r)) with
      | Ok r' -> check_bool ("record round-trips: " ^ r.Trace.loop) true (r = r')
      | Error e -> Alcotest.fail e)
    [ sample_record; failed_record ]

(* Ledgers written while the incremental spill mode existed carry a
   "spill_incremental" key.  They still parse (the key is ignored), and a
   record rendered now has no such key. *)
let test_ledger_parses_spill_incremental_line () =
  let line =
    {|{"label":"fig8","loop":"gen-0035","config":"dual-L3","fp":"aac5299b6052","models":"partitioned","capacity":32,"clusters":2,"mii":8,"ii":11,"rounds":2,"spilled":2,"requirement":23,"maxlive":22,"spill_full":3,"spill_incremental":0,"cache":{"hits":6,"misses":2,"disk_hits":0,"disk_misses":0},"stages":{"alloc":135189,"spill":198107},"total_ns":282730,"ok":true,"error":null}|}
  in
  match Ledger.parse_line line with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_bool "spill_full kept" true (r.Trace.spill_full = Some 3);
    check_bool "rounds kept" true (r.Trace.rounds = Some 2);
    let rendered = Json.to_compact (Ledger.to_json r) in
    check_bool "spill_full rendered" true (Helpers.contains rendered "\"spill_full\":3");
    check_bool "no spill_incremental key" false
      (Helpers.contains rendered "spill_incremental")

let test_ledger_file_roundtrip () =
  with_observability ~trace:false (fun () ->
      Ledger.set_label "file";
      Ledger.add sample_record;
      Ledger.add failed_record;
      let loops = fixed_loops ~n:4 () in
      let config = Config.dual ~latency:3 in
      Artifact.clear_cache ();
      ignore (Suite_stats.measure_all ~config ~models:[ Model.Swapped ] loops);
      let path = Filename.temp_file "ncdrf_ledger" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Ledger.write ~path;
          match Ledger.load ~path with
          | Error e -> Alcotest.fail e
          | Ok loaded ->
            check_int "every record came back"
              (List.length (Ledger.records ()))
              (List.length loaded);
            check_bool "file is identity-sorted" true
              (List.stable_sort Ledger.compare_records (Ledger.records ()) = loaded);
            check_bool "pipeline records carry stage durations" true
              (List.exists
                 (fun (r : Ledger.record) ->
                   r.Trace.label = "file"
                   && r.Trace.loop <> "loop-1"
                   && r.Trace.loop <> "loop-2"
                   && List.mem_assoc "schedule" r.Trace.stages)
                 loaded)))

(* The ledger stores each point record by reference, so a record must
   be final once added: nothing that runs after it — later points, a
   point that raised, the stage frames of the outer unit it was nested
   in — may write to it.  Capacity points run inside an outer observed
   unit (the daemon's request-then-points shape), the third one failing
   on an injected spill fault; each record is snapshotted through
   [Ledger.to_json] as it is added, and the records read back after the
   run must render the same. *)
let test_ledger_record_final_once_added () =
  let loops = fixed_loops ~n:5 () in
  let config = Config.dual ~latency:6 in
  with_observability @@ fun () ->
  Ledger.set_label "final";
  Artifact.clear_cache ();
  let snapshots = ref [] in
  let snapshot_last () =
    match List.rev (Ledger.records ()) with
    | r :: _ -> snapshots := Json.to_compact (Ledger.to_json r) :: !snapshots
    | [] -> Alcotest.fail "no record added"
  in
  Pipeline.observe ~loop:"request-1" ~config:"serve/test" (fun () ->
      Telemetry.time "serve.request" (fun () ->
          List.iteri
            (fun i l ->
              let run () =
                Pipeline.run ~config ~model:Model.Partitioned ~capacity:16 l.Suite_stats.ddg
              in
              (if i = 2 then begin
                 (match Ncdrf_fault.Fault.arm "stage=spill,every=1" with
                 | Ok () -> ()
                 | Stdlib.Error msg -> Alcotest.fail msg);
                 Fun.protect ~finally:Ncdrf_fault.Fault.disarm (fun () ->
                     match run () with
                     | _ -> Alcotest.fail "the armed point did not raise"
                     | exception Ncdrf_error.Error.Error _ -> ())
               end
               else ignore (run ()));
              snapshot_last ())
            loops));
  snapshot_last ();
  let records = Ledger.records () in
  check_int "a record per point and one for the outer unit" (List.length loops + 1)
    (List.length records);
  check_int "one failed point" 1
    (List.length (List.filter (fun (r : Ledger.record) -> not r.Trace.ok) records));
  check_bool "the outer unit's frame is its own stage" true
    (List.mem_assoc "serve.request" (List.nth records (List.length loops)).Trace.stages);
  Alcotest.(check (list string))
    "records read back = snapshots taken when added" (List.rev !snapshots)
    (List.map (fun r -> Json.to_compact (Ledger.to_json r)) records)

(* Everything deterministic about a record: identity plus the result
   fields that may not depend on worker count.  Durations are the one
   thing allowed to differ. *)
let ledger_identity (r : Ledger.record) =
  ( ( r.Trace.label,
      r.Trace.config,
      r.Trace.models,
      r.Trace.capacity,
      r.Trace.loop,
      r.Trace.fp ),
    ( r.Trace.ok,
      r.Trace.error,
      List.map fst r.Trace.stages,
      r.Trace.cache_hits,
      r.Trace.cache_misses ),
    (r.Trace.mii, r.Trace.ii, r.Trace.requirement, r.Trace.maxlive) )

let test_ledger_jobs_invariant () =
  let loops = fixed_loops () in
  let config = Config.dual ~latency:6 in
  with_observability ~trace:false (fun () ->
      Ledger.set_label "guard";
      let run pool =
        Artifact.clear_cache ();
        Ledger.reset ();
        ignore (Suite_stats.measure_all ?pool ~config ~models:Model.all loops);
        List.sort compare (List.map ledger_identity (Ledger.records ()))
      in
      let serial = run None in
      let parallel = Pool.with_pool ~jobs:2 (fun pool -> run (Some pool)) in
      check_int "one record per loop" (List.length loops) (List.length serial);
      check_bool "--jobs 2 ledger identity set equals --jobs 1" true
        (serial = parallel))

(* One stage record feeds the ledger and the metrics: every record's
   stage self times fit in its wall time, and per stage the ledger's
   nanoseconds sum to the metrics accumulators' self time exactly — on
   the suite path and on a capacity sweep that spills (where the
   "spill" frame nests the rounds' "schedule"/"alloc"/"swap" frames),
   serially and on a 2-job pool. *)
let test_stage_record_agrees () =
  let loops = fixed_loops ~n:20 () in
  let config = Config.dual ~latency:6 in
  Telemetry.enable true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.enable false;
      Telemetry.reset ())
  @@ fun () ->
  with_observability ~trace:false @@ fun () ->
  let check what pool =
    Artifact.clear_cache ();
    Ledger.reset ();
    Telemetry.reset ();
    ignore (Suite_stats.measure_all ?pool ~config ~models:Model.all loops);
    let perf =
      Suite_stats.performance ?pool ~config ~model:Model.Partitioned ~capacity:16 loops
    in
    check_bool (what ^ ": the sweep spills") true (perf.Suite_stats.total_spills > 0);
    let records = Ledger.records () in
    List.iter
      (fun (r : Ledger.record) ->
        let sum = List.fold_left (fun acc (_, ns) -> acc + ns) 0 r.Trace.stages in
        if sum > r.Trace.total_ns then
          Alcotest.fail
            (Printf.sprintf "%s: %s stages %d ns > total %d ns" what r.Trace.loop sum
               r.Trace.total_ns))
      records;
    let totals pairs =
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (name, ns) ->
          Hashtbl.replace tbl name (ns + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
        pairs;
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
    in
    let ledger = totals (List.concat_map (fun (r : Ledger.record) -> r.Trace.stages) records) in
    let metrics =
      totals (List.map (fun (name, (a : Trace.acc)) -> (name, a.Trace.self_ns)) (Trace.accs ()))
    in
    check_bool (what ^ ": spill is a stage") true (List.mem_assoc "spill" ledger);
    List.iter
      (fun (name, ns) ->
        check_int (Printf.sprintf "%s: %s ledger ns = metrics self ns" what name) ns
          (Option.value ~default:(-1) (List.assoc_opt name ledger)))
      metrics;
    check_int (what ^ ": same stage names") (List.length metrics) (List.length ledger)
  in
  check "--jobs 1" None;
  Pool.with_pool ~jobs:2 (fun pool -> check "--jobs 2" (Some pool))

(* Every ok ledger record carries its graph's MII, stamped from the
   raw-schedule entry, on the suite path and on a capacity-16 sweep
   that spills; and arming the probes adds no cache lookup: hits and
   misses equal an unobserved run's. *)
let test_ledger_mii () =
  let loops = fixed_loops ~n:20 () in
  let config = Config.dual ~latency:6 in
  let run () =
    Artifact.clear_cache ();
    let before = Artifact.cache_stats () in
    ignore (Suite_stats.measure_all ~config ~models:Model.all loops);
    let perf =
      Suite_stats.performance ~config ~model:Model.Partitioned ~capacity:16 loops
    in
    check_bool "the sweep spills" true (perf.Suite_stats.total_spills > 0);
    let after = Artifact.cache_stats () in
    Ncdrf_cache.Cache.(after.hits - before.hits, after.misses - before.misses)
  in
  let plain = run () in
  let observed, records =
    with_observability (fun () ->
        Ledger.set_label "mii";
        let counts = run () in
        (counts, Ledger.records ()))
  in
  Alcotest.(check (pair int int)) "cache hits and misses as unobserved" plain observed;
  check_int "a record per suite point and per sweep point" (2 * List.length loops)
    (List.length records);
  List.iter
    (fun (r : Ledger.record) ->
      let l =
        List.find (fun l -> Ddg.name l.Suite_stats.ddg = r.Trace.loop) loops
      in
      if r.Trace.ok then
        Alcotest.(check (option int)) (r.Trace.loop ^ ": mii")
          (Some (Mii.mii config l.Suite_stats.ddg)) r.Trace.mii)
    records

(* ------------------------------------------------------------------ *)
(* ncdrf profile: pinned output over a hand-written ledger.            *)
(* ------------------------------------------------------------------ *)

(* test/profile.jsonl is a two-label ledger with a failed record, disk
   traffic, a request id, a duration tie and two stages; the other
   test/profile.* files hold the analyzer's exact output for it. *)
let test_profile_pinned () =
  let here name = Filename.concat (Filename.dirname Sys.executable_name) name in
  let ncdrf = here (Filename.concat Filename.parent_dir_name "bin/ncdrf.exe") in
  let read file = In_channel.with_open_bin (here file) In_channel.input_all in
  List.iter
    (fun (args, expected) ->
      let cmd = Filename.quote_command ncdrf ("profile" :: here "profile.jsonl" :: args) in
      let ic = Unix.open_process_in cmd in
      let out = In_channel.input_all ic in
      if Unix.close_process_in ic <> Unix.WEXITED 0 then Alcotest.fail (cmd ^ " failed");
      Alcotest.(check string) (String.concat " " args) (read expected) out)
    [
      ([ "--top"; "2" ], "profile.txt");
      ([ "--top"; "2"; "--format"; "json" ], "profile.json");
      ([ "--top"; "1"; "--stage"; "alloc" ], "profile.alloc.txt");
      ([ "--top"; "1"; "--stage"; "alloc"; "--format"; "json" ], "profile.alloc.json");
      ([ "--stage"; "nosuch" ], "profile.nosuch.txt");
    ]

(* ------------------------------------------------------------------ *)
(* Standing invariant: arming observability changes no result byte.    *)
(* ------------------------------------------------------------------ *)

(* %h renders the exact bit pattern, so string equality of this
   rendering is byte-for-byte equality of the stats, schedule included. *)
let render_stats (st : Pipeline.stats) =
  let sched = st.Pipeline.schedule in
  let placements =
    String.concat ";"
      (List.init (Ddg.num_nodes sched.Schedule.ddg) (fun v ->
           Printf.sprintf "%d,%d" (Schedule.cycle sched v) (Schedule.cluster sched v)))
  in
  Printf.sprintf
    "%s %s mii=%d ii=%d stages=%d req=%d cap=%s fits=%b spilled=%d addmem=%d bumps=%d \
     memops=%d density=%h swaps=%d sched_ii=%d [%s]"
    st.Pipeline.name
    (Model.to_string st.Pipeline.model)
    st.Pipeline.mii st.Pipeline.ii st.Pipeline.stages st.Pipeline.requirement
    (match st.Pipeline.capacity with None -> "-" | Some c -> string_of_int c)
    st.Pipeline.fits st.Pipeline.spilled st.Pipeline.added_memops st.Pipeline.ii_bumps
    st.Pipeline.memops_per_iter st.Pipeline.density st.Pipeline.swaps (Schedule.ii sched)
    placements

let prop_traced_equals_untraced =
  let arb =
    QCheck.make
      ~print:(fun (seed, lat, cap) ->
        Printf.sprintf "seed=%d lat=%d cap=%s" seed lat
          (match cap with None -> "-" | Some c -> string_of_int c))
      QCheck.Gen.(triple (int_bound 20_000) (int_range 1 8) (opt (int_range 8 64)))
  in
  QCheck.Test.make ~count:15
    ~name:"traced + ledgered run byte-identical to untraced run" arb
    (fun (seed, latency, capacity) ->
      let ddg = Generator.generate Generator.default ~seed ~name:"trace-prop" in
      let config = Config.dual ~latency in
      let run () =
        Artifact.clear_cache ();
        List.map
          (fun model -> render_stats (Pipeline.run ~config ~model ?capacity ddg))
          Model.all
      in
      let plain = run () in
      let observed =
        with_observability (fun () ->
            Ledger.set_label "prop";
            run ())
      in
      plain = observed)

(* The clock every span reads twice returns an untagged int: reading
   it allocates nothing, so an armed probe adds no minor-heap work.
   The readings also never run backwards. *)
let test_clock_allocates_nothing () =
  let last = ref (Telemetry.now_ns ()) and backwards = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let t = Telemetry.now_ns () in
    if t < !last then incr backwards;
    last := t
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "no minor words for 10,000 reads" 0.0 words;
  Alcotest.(check int) "monotonic" 0 !backwards

let suite =
  [
    Alcotest.test_case "clock reads allocate nothing" `Quick test_clock_allocates_nothing;
    Alcotest.test_case "json renderings parse back" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse forms and failures" `Quick test_json_parse_forms;
    Alcotest.test_case "atomic write leaves no temp litter" `Quick
      test_write_file_no_tmp_litter;
    Alcotest.test_case "auto_histogram covers the series" `Quick test_auto_histogram;
    Alcotest.test_case "span distributions are nearest-rank" `Quick
      test_span_distributions;
    Alcotest.test_case "span storage is bounded" `Quick test_span_storage_bounded;
    QCheck_alcotest.to_alcotest prop_ring_keeps_latest;
    Alcotest.test_case "chrome trace is valid with balanced B/E" `Quick
      test_trace_chrome_document;
    Alcotest.test_case "trace events invariant under --jobs" `Quick
      test_trace_jobs_invariant;
    Alcotest.test_case "two systhreads keep shards apart" `Quick
      test_two_systhreads_do_not_interleave;
    Alcotest.test_case "ledger record round-trips" `Quick test_ledger_record_roundtrip;
    Alcotest.test_case "ledger parses a line with spill_incremental" `Quick
      test_ledger_parses_spill_incremental_line;
    Alcotest.test_case "ledger file round-trips identity-sorted" `Quick
      test_ledger_file_roundtrip;
    Alcotest.test_case "a ledger record is final once added" `Quick
      test_ledger_record_final_once_added;
    Alcotest.test_case "ledger identity set invariant under --jobs" `Quick
      test_ledger_jobs_invariant;
    Alcotest.test_case "ledger stages = metrics self time" `Quick
      test_stage_record_agrees;
    Alcotest.test_case "profile output is pinned" `Quick test_profile_pinned;
    QCheck_alcotest.to_alcotest prop_traced_equals_untraced;
    Alcotest.test_case "ledger MII = Mii.mii" `Quick test_ledger_mii;
  ]
