(* The parallel suite runner and its guard rails: pool determinism and
   fault isolation, parallel-vs-serial identity of suite statistics,
   suite generation determinism, and regression tests for the swap
   counting, candidate bucketing, suite-cache and CSV fixes that ride
   along with the runner. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
module Pool = Ncdrf_parallel.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool.                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = List.init 200 Fun.id in
      let out = Pool.map pool (fun i -> i * i) input in
      Alcotest.(check (list int)) "squares in input order"
        (List.map (fun i -> i * i) input)
        out;
      (* Reusing the pool for a second map must work. *)
      check_int "second map" 100 (List.length (Pool.map pool succ (List.init 100 Fun.id))))

let test_pool_serial_equivalence () =
  Pool.with_pool ~jobs:1 (fun pool ->
      check_bool "jobs<=1 is serial" true (Pool.is_serial pool);
      let input = [ 3; 1; 4; 1; 5 ] in
      Alcotest.(check (list int)) "serial map" (List.map succ input)
        (Pool.map pool succ input))

let test_pool_exception_capture () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = List.init 20 Fun.id in
      let label i = Printf.sprintf "loop-%02d" i in
      let f i = if i = 7 || i = 13 then failwith "boom" else i in
      (* try_map_exn: every non-failing item still completes. *)
      let outcomes = Pool.try_map_exn pool ~label f input in
      check_int "all items settle" 20 (List.length outcomes);
      List.iteri
        (fun i outcome ->
          match outcome with
          | Ok v -> check_int "value" i v
          | Error (l, _) ->
            check_bool "only the failing items error" true (i = 7 || i = 13);
            Alcotest.(check string) "failing loop is named" (label i) l)
        outcomes;
      (* map: raises after the run, naming the culprits in order. *)
      match Pool.map pool ~label f input with
      | _ -> Alcotest.fail "expected Worker_failure"
      | exception Pool.Worker_failure { failures } ->
        Alcotest.(check (list string)) "failure labels" [ "loop-07"; "loop-13" ]
          (List.map fst failures))

(* ------------------------------------------------------------------ *)
(* Guard: parallel suite stats are identical to serial ones.           *)
(* ------------------------------------------------------------------ *)

let fixed_suite () =
  List.map
    (fun e ->
      { Suite_stats.ddg = e.Ncdrf_workloads.Suite.ddg;
        weight = e.Ncdrf_workloads.Suite.iterations })
    (Ncdrf_workloads.Suite.full ~size:40 ~seed:2025 ())

let render_performance (p : Suite_stats.performance) =
  (* %h prints the exact bit pattern of the floats, so equality of the
     rendering is byte-for-byte equality of the stats. *)
  Printf.sprintf "relative=%h density=%h spills=%d loops_spilled=%d unfit=%d"
    p.Suite_stats.relative p.Suite_stats.density p.Suite_stats.total_spills
    p.Suite_stats.loops_spilled p.Suite_stats.unfit

let test_parallel_matches_serial () =
  let loops = fixed_suite () in
  let config = Config.dual ~latency:3 in
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun model ->
          let serial = Suite_stats.measure ~config ~model loops in
          let parallel = Suite_stats.measure ~pool ~config ~model loops in
          let project ms =
            List.map
              (fun m ->
                (Ddg.name m.Suite_stats.loop.Suite_stats.ddg, m.Suite_stats.requirement,
                 m.Suite_stats.ii))
              ms
          in
          Alcotest.(check (list (triple string int int)))
            ("measure: " ^ Model.to_string model)
            (project serial) (project parallel))
        Model.all;
      List.iter
        (fun model ->
          let serial = Suite_stats.performance ~config ~model ~capacity:32 loops in
          let parallel = Suite_stats.performance ~pool ~config ~model ~capacity:32 loops in
          Alcotest.(check string)
            ("performance: " ^ Model.to_string model)
            (render_performance serial) (render_performance parallel))
        Model.all)

(* ------------------------------------------------------------------ *)
(* Suite generation determinism.                                       *)
(* ------------------------------------------------------------------ *)

let test_suite_generation_deterministic () =
  (* The named-kernel base is ~55 loops; use a size comfortably above it
     so the seeded generated slice is non-empty. *)
  let a = Ncdrf_workloads.Suite.full ~size:80 ~seed:7 () in
  let b = Ncdrf_workloads.Suite.full ~size:80 ~seed:7 () in
  check_int "same length" (List.length a) (List.length b);
  List.iter2
    (fun (x : Ncdrf_workloads.Suite.entry) (y : Ncdrf_workloads.Suite.entry) ->
      Alcotest.(check string) "name" (Ddg.name x.ddg) (Ddg.name y.ddg);
      Alcotest.(check (float 0.0)) "weight" x.iterations y.iterations;
      check_int "nodes" (Ddg.num_nodes x.ddg) (Ddg.num_nodes y.ddg);
      check_bool "node lists" true (Ddg.nodes x.ddg = Ddg.nodes y.ddg);
      check_bool "edge lists" true (Ddg.edges x.ddg = Ddg.edges y.ddg))
    a b;
  (* A different seed must actually change the generated slice. *)
  let c = Ncdrf_workloads.Suite.full ~size:80 ~seed:8 () in
  check_bool "different seed differs" true
    (List.exists2 (fun (x : Ncdrf_workloads.Suite.entry) y ->
         Ddg.edges x.ddg <> Ddg.edges y.Ncdrf_workloads.Suite.ddg)
       a c)

(* ------------------------------------------------------------------ *)
(* count_swaps regression (odd migrations must not truncate).          *)
(* ------------------------------------------------------------------ *)

let reclustered sched changes =
  let ddg = sched.Schedule.ddg in
  let placements =
    Array.init (Ddg.num_nodes ddg) (fun v ->
        { Schedule.cycle = Schedule.cycle sched v; cluster = Schedule.cluster sched v })
  in
  List.iter
    (fun (label, cluster) ->
      let node = Helpers.node_by_label ddg label in
      placements.(node.Ddg.id) <- { (placements.(node.Ddg.id)) with Schedule.cluster })
    changes;
  Schedule.make ~config:sched.Schedule.config ~ii:(Schedule.ii sched) ~placements ddg

let test_count_swaps_pairs_only () =
  let before = Helpers.paper_schedule () in
  (* A true swap: A4 goes 0 -> 1 while A6 goes 1 -> 0. *)
  let swapped = reclustered before [ ("A4", 1); ("A6", 0) ] in
  check_int "one exchanged pair" 1 (Artifact.count_swaps Model.Swapped before swapped);
  (* Three one-sided migrations, no partner: not a swap.  The old
     [changed / 2] silently truncated this to 1. *)
  let migrated = reclustered before [ ("L1", 1); ("L2", 1); ("M3", 1) ] in
  check_int "one-sided migrations are not swaps" 0
    (Artifact.count_swaps Model.Swapped before migrated);
  (* A pair plus a lone migration counts the pair only. *)
  let mixed = reclustered before [ ("A4", 1); ("A6", 0); ("M5", 0) ] in
  check_int "pair + lone migration" 1 (Artifact.count_swaps Model.Swapped before mixed);
  (* Other models never report swaps. *)
  check_int "unified reports 0" 0 (Artifact.count_swaps Model.Unified before swapped)

(* ------------------------------------------------------------------ *)
(* Swap.candidates: bucketed scan == the old all-pairs scan.           *)
(* ------------------------------------------------------------------ *)

(* The pre-bucketing reference implementation, kept verbatim. *)
let naive_candidates sched =
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let nodes = Array.of_list (Ddg.nodes ddg) in
  let n = Array.length nodes in
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = nodes.(i) and b = nodes.(j) in
      let same_class = Opcode.fu_class a.Ddg.opcode = Opcode.fu_class b.Ddg.opcode in
      let same_slot =
        (Schedule.cycle sched a.Ddg.id - Schedule.cycle sched b.Ddg.id) mod ii = 0
      in
      let different_cluster =
        Schedule.cluster sched a.Ddg.id <> Schedule.cluster sched b.Ddg.id
      in
      if same_class && same_slot && different_cluster then
        pairs := (a.Ddg.id, b.Ddg.id) :: !pairs
    done
  done;
  List.rev !pairs

let test_candidates_match_naive_scan () =
  let entries = Ncdrf_workloads.Suite.full ~size:45 ~seed:11 () in
  let configs = [ Config.dual ~latency:3; Config.dual ~latency:6 ] in
  let checked = ref 0 in
  List.iter
    (fun config ->
      List.iter
        (fun (e : Ncdrf_workloads.Suite.entry) ->
          let sched = Modulo.schedule config e.ddg in
          let expected = naive_candidates sched in
          let got = Swap.candidates sched in
          incr checked;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s on %s" (Ddg.name e.ddg) config.Config.name)
            expected got)
        entries)
    configs;
  check_bool "checked a real sample" true (!checked >= 80);
  (* The paper example has a known candidate set of 4. *)
  let sched = Helpers.paper_schedule () in
  Alcotest.(check (list (pair int int))) "paper example" (naive_candidates sched)
    (Swap.candidates sched)

(* ------------------------------------------------------------------ *)
(* CSV: atomic write and quoting round-trip.                           *)
(* ------------------------------------------------------------------ *)

let test_csv_round_trip () =
  let rows =
    [
      [ "name"; "value"; "note" ];
      [ "plain"; "1"; "no special characters" ];
      [ "comma,inside"; "quote\"inside"; "newline\ninside" ];
      [ "both\",\nat once"; ""; "  leading and trailing  " ];
      [ "crlf\r\ninside"; "\"fully quoted\""; "," ];
    ]
  in
  let path = Filename.temp_file "ncdrf-csv" ".csv" in
  Ncdrf_report.Csv.write path rows;
  let back = Csv_reference.read path in
  Alcotest.(check (list (list string))) "write/read round-trip" rows back;
  (* Overwrite must replace the contents atomically (rename, no
     leftover temp files in the directory). *)
  let small = [ [ "only"; "row" ] ] in
  Ncdrf_report.Csv.write path small;
  Alcotest.(check (list (list string))) "overwrite replaces" small
    (Csv_reference.read path);
  let dir = Filename.dirname path in
  let leftovers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           String.length f >= 4 && Filename.check_suffix f ".tmp"
           && String.length f > 4
           && String.sub f 0 4 = ".csv")
  in
  Alcotest.(check (list string)) "no temp files left behind" [] leftovers;
  Sys.remove path

let test_csv_parse_edge_cases () =
  let open Csv_reference in
  Alcotest.(check (list (list string))) "empty input" [] (parse_string "");
  Alcotest.(check (list (list string))) "trailing newline, no ghost row"
    [ [ "a"; "b" ] ]
    (parse_string "a,b\n");
  Alcotest.(check (list (list string))) "trailing empty cell"
    [ [ "a"; "" ] ]
    (parse_string "a,\n");
  Alcotest.(check (list (list string))) "crlf rows"
    [ [ "a" ]; [ "b" ] ]
    (parse_string "a\r\nb\r\n");
  (match parse_string "\"unterminated" with
   | exception Parse_error _ -> ()
   | _ -> Alcotest.fail "unterminated quote accepted")

(* ------------------------------------------------------------------ *)
(* Telemetry.                                                          *)
(* ------------------------------------------------------------------ *)

let test_telemetry_spans_and_counters () =
  let module T = Ncdrf_telemetry.Telemetry in
  T.enable true;
  T.reset ();
  Fun.protect ~finally:(fun () -> T.enable false) (fun () ->
      check_int "fresh counter" 0 (T.counter "test.c");
      T.incr "test.c";
      T.incr ~by:3 "test.c";
      check_int "counter accumulates" 4 (T.counter "test.c");
      let v = T.time "test.span" (fun () -> 41 + 1) in
      check_int "time returns the thunk's value" 42 v;
      (match List.assoc_opt "test.span" (T.spans ()) with
       | Some s ->
         check_int "span count" 1 s.T.count;
         check_bool "span total >= 0" true (s.T.total_s >= 0.0)
       | None -> Alcotest.fail "span not recorded");
      (* Counters recorded from worker domains land in the registry. *)
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore (Pool.map pool (fun _ -> T.incr "test.domains") (List.init 50 Fun.id)));
      check_int "domain-side increments" 50 (T.counter "test.domains");
      let json = T.Json.to_string (T.to_json ()) in
      check_bool "json mentions the span" true (Helpers.contains json "test.span");
      T.reset ();
      check_int "reset clears" 0 (T.counter "test.c");
      (* Monotonic clock never goes backwards. *)
      let a = T.now () in
      let b = T.now () in
      check_bool "monotonic" true (b >= a))

let suite =
  [
    Alcotest.test_case "pool map preserves input order" `Quick test_pool_map_preserves_order;
    Alcotest.test_case "pool with jobs=1 is serial" `Quick test_pool_serial_equivalence;
    Alcotest.test_case "pool captures per-item failures" `Quick test_pool_exception_capture;
    Alcotest.test_case "parallel suite stats == serial (guard)" `Quick
      test_parallel_matches_serial;
    Alcotest.test_case "suite generation is deterministic" `Quick
      test_suite_generation_deterministic;
    Alcotest.test_case "count_swaps counts exchanged pairs only" `Quick
      test_count_swaps_pairs_only;
    Alcotest.test_case "bucketed swap candidates == all-pairs scan" `Quick
      test_candidates_match_naive_scan;
    Alcotest.test_case "csv atomic write round-trips" `Quick test_csv_round_trip;
    Alcotest.test_case "csv parser edge cases" `Quick test_csv_parse_edge_cases;
    Alcotest.test_case "telemetry spans and counters" `Quick
      test_telemetry_spans_and_counters;
  ]
