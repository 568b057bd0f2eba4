(* Tests for the extensions beyond the paper: modulo variable expansion,
   pipelined code generation, spill-victim heuristics, cluster-aware
   scheduling and the report/CSV helpers. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc
open Ncdrf_spill
open Ncdrf_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- MVE --- *)

let test_mve_quanta_example () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Lifetime.of_schedule sched in
  (* II = 1: quanta are the lifetimes themselves. *)
  check_int "min unroll" 13 (Mve.min_unroll ~ii:1 lifetimes);
  let q = Mve.quanta ~ii:1 lifetimes in
  check_int "sum of quanta" 42 (List.fold_left ( + ) 0 q)

let test_mve_lcm_gives_sum_of_quanta () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Lifetime.of_schedule sched in
  let u = Mve.lcm_unroll ~ii:1 lifetimes in
  (* lcm(13,7,6,6,6,4) = 1092 *)
  check_int "lcm" 1092 u;
  check_int "registers at lcm" 42 (Mve.registers ~ii:1 ~unroll:u lifetimes)

let test_mve_prime_unroll_penalty () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Lifetime.of_schedule sched in
  (* At the minimum unroll (13, prime) every multi-register value must
     cycle through a divisor of 13 that is >= its quantum: 13. *)
  check_int "registers at u=13" (6 * 13) (Mve.registers ~ii:1 ~unroll:13 lifetimes)

let test_mve_best_never_worse_than_min () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Lifetime.of_schedule sched in
  let best = Mve.best ~ii:1 lifetimes in
  check_bool "best <= min-unroll registers" true
    (best.Mve.registers <= Mve.registers ~ii:1 ~unroll:13 lifetimes);
  check_bool "best >= sum of quanta" true (best.Mve.registers >= 42)

let test_mve_rejects_small_unroll () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Lifetime.of_schedule sched in
  try
    ignore (Mve.registers ~ii:1 ~unroll:5 lifetimes);
    Alcotest.fail "unroll below minimum accepted"
  with Invalid_argument _ -> ()

let prop_mve_registers_at_least_rotating =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 30_000) in
  QCheck.Test.make ~count:40 ~name:"MVE uses at least as many registers as quanta sum" arb
    (fun seed ->
      let g =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default ~seed
          ~name:"mve-prop"
      in
      let sched = Modulo.schedule (Config.dual ~latency:3) g in
      let ii = Schedule.ii sched in
      let lifetimes = Lifetime.of_schedule sched in
      match lifetimes with
      | [] -> true
      | _ ->
        let sum_q = List.fold_left ( + ) 0 (Mve.quanta ~ii lifetimes) in
        let best = Mve.best ~ii lifetimes in
        best.Mve.registers >= sum_q
        && best.Mve.unroll >= Mve.min_unroll ~ii lifetimes
        && best.Mve.kernel_instructions = best.Mve.unroll * ii)

(* --- Codegen --- *)

let test_codegen_phases_example () =
  let sched = Helpers.paper_schedule () in
  let rows = Codegen.generate sched in
  (* 14 stages, II 1: 13 prologue rows + 1 kernel row + 13 epilogue. *)
  let size = Codegen.size sched in
  check_int "prologue" 13 size.Codegen.prologue_rows;
  check_int "kernel" 1 size.Codegen.kernel_rows;
  check_int "epilogue" 13 size.Codegen.epilogue_rows;
  check_int "total" 27 size.Codegen.total_rows;
  check_int "rows listed" 27 (List.length rows)

let test_codegen_operation_count () =
  (* Each of the 7 ops appears once per prologue block at stages <= p,
     once in the kernel, and in epilogue blocks with stage > p.  Total
     operation slots = sum over ops of (13 - stage) + 1 + stage = 14 per
     op = 98. *)
  let sched = Helpers.paper_schedule () in
  let size = Codegen.size sched in
  check_int "operation slots" (7 * 14) size.Codegen.operations

let test_codegen_unrolled () =
  let sched = Helpers.paper_schedule () in
  let base = Codegen.size sched in
  let unrolled = Codegen.size_with_unroll sched ~unroll:4 in
  check_int "kernel rows scale" (4 * base.Codegen.kernel_rows) unrolled.Codegen.kernel_rows;
  check_int "prologue unchanged" base.Codegen.prologue_rows unrolled.Codegen.prologue_rows;
  check_bool "operations grow" true (unrolled.Codegen.operations > base.Codegen.operations)

let test_codegen_stage_filter () =
  let sched = Helpers.paper_schedule () in
  let rows = Codegen.generate sched in
  let bad =
    List.exists
      (fun r ->
        match r.Codegen.phase with
        | Codegen.Prologue p -> List.exists (fun s -> s.Kernel.stage > p) r.Codegen.ops
        | Codegen.Epilogue p -> List.exists (fun s -> s.Kernel.stage <= p) r.Codegen.ops
        | Codegen.Kernel -> false)
      rows
  in
  check_bool "phase filters respected" false bad

(* --- Spill victims --- *)

let unified_requirement sched = (sched, Requirements.unified sched)

let test_spill_victims_all_fit () =
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  List.iter
    (fun victim ->
      let outcome =
        Spiller.run ~config ~requirement:unified_requirement ~capacity:30 ~victim ddg
      in
      check_bool "fits" true outcome.Spiller.fits;
      check_bool "valid" true (Schedule.validate outcome.Spiller.schedule = Ok ()))
    [ Spiller.Longest_lifetime; Spiller.Best_ratio; Spiller.Fewest_consumers ]

let test_best_ratio_prefers_cheap_spills () =
  (* Best_ratio must never add more memops per spilled value than
     longest-lifetime when both spill the same count... weaker, checked
     on aggregate: ratio of added memops to spills is minimal among
     heuristics for a pressured kernel. *)
  let config = Config.dual ~latency:6 in
  let ddg =
    match Ncdrf_workloads.Kernels.find "ll9-integrate" with
    | Some g -> g
    | None -> Alcotest.fail "kernel missing"
  in
  let per_spill victim =
    let o = Spiller.run ~config ~requirement:unified_requirement ~capacity:20 ~victim ddg in
    if o.Spiller.spilled = 0 then 0.0
    else float_of_int o.Spiller.added_memops /. float_of_int o.Spiller.spilled
  in
  let ratio = per_spill Spiller.Best_ratio in
  check_bool "ratio heuristic keeps reload cost low" true
    (ratio <= per_spill Spiller.Longest_lifetime +. 1e-9
     || ratio <= per_spill Spiller.Fewest_consumers +. 1e-9)

(* --- Sacks --- *)

let test_single_use_detection () =
  let sched = Helpers.paper_schedule () in
  let su = Sacks.single_use sched in
  (* Everything but L1 (consumed by M3 and A6) is single-use. *)
  check_int "five single-use values" 5 (List.length su);
  let ddg = sched.Schedule.ddg in
  let l1 = Helpers.node_by_label ddg "L1" in
  check_bool "L1 not single-use" false
    (List.exists (fun l -> l.Lifetime.producer = l1.Ddg.id) su)

let test_sacks_relieve_primary () =
  let sched = Helpers.paper_schedule () in
  let a = Sacks.assign ~config:{ Sacks.sacks = 4; read_ports = 1; write_ports = 1 } sched in
  check_int "values" 6 a.Sacks.values;
  check_int "eligible" 5 a.Sacks.eligible;
  (* II=1: each sack serves one read per cycle, so at most one value per
     sack -> 4 of the 5 eligible values placed. *)
  check_int "placed" 4 a.Sacks.placed;
  check_bool "primary shrinks below unified" true
    (a.Sacks.primary_requirement < Ncdrf_core.Requirements.unified sched);
  (* Conservation: primary + sacks together hold at least MaxLive. *)
  let total =
    a.Sacks.primary_requirement + Array.fold_left ( + ) 0 a.Sacks.sack_requirements
  in
  check_bool "total capacity at least maxlive" true
    (total >= Lifetime.max_live ~ii:1 (Lifetime.of_schedule sched))

let test_sacks_port_limits_bind () =
  let sched = Helpers.paper_schedule () in
  (* One sack, one read port, II=1: only one value can be placed. *)
  let a = Sacks.assign ~config:{ Sacks.sacks = 1; read_ports = 1; write_ports = 1 } sched in
  check_int "one value placed" 1 a.Sacks.placed;
  (* Two read ports allow two values whose writes do not collide... at
     II=1 the single write port also binds: still 1. *)
  let a2 = Sacks.assign ~config:{ Sacks.sacks = 1; read_ports = 2; write_ports = 1 } sched in
  check_int "write port binds" 1 a2.Sacks.placed;
  let a3 = Sacks.assign ~config:{ Sacks.sacks = 1; read_ports = 2; write_ports = 2 } sched in
  check_int "two ports, two values" 2 a3.Sacks.placed

let prop_sacks_account_for_all_values =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 30_000) in
  QCheck.Test.make ~count:30 ~name:"sack assignment accounts for every value" arb
    (fun seed ->
      let g =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default ~seed
          ~name:"sack-prop"
      in
      let sched = Modulo.schedule (Config.dual ~latency:6) g in
      let a = Sacks.assign sched in
      a.Sacks.placed <= a.Sacks.eligible
      && a.Sacks.eligible <= a.Sacks.values
      && a.Sacks.primary_requirement >= 0)

(* --- Lifetime post-pass --- *)

let test_push_late_all_ops_saves_registers () =
  (* Pushing an op later shortens its own value's lifetime but extends
     the lifetimes of inputs whose last use it is, so individual kernels
     can get worse; the pass must stay valid, keep the II, and win on
     aggregate. *)
  let config = Config.dual ~latency:6 in
  let before_total = ref 0 and after_total = ref 0 in
  List.iter
    (fun (g, _) ->
      let sched = Modulo.schedule config g in
      let _, adjusted = Modulo.schedule_late ~late:(fun _ -> true) ~min_ii:1 config g in
      Helpers.check_valid (Ddg.name g ^ " pushed") adjusted;
      check_int (Ddg.name g ^ " same II") (Schedule.ii sched) (Schedule.ii adjusted);
      before_total := !before_total + Requirements.unified sched;
      after_total := !after_total + Requirements.unified adjusted)
    (Ncdrf_workloads.Kernels.all ());
  check_bool "saves registers on aggregate" true (!after_total < !before_total)

(* --- Chart --- *)

let test_chart_render_example () =
  let sched = Helpers.paper_schedule () in
  let text = Chart.render sched in
  List.iter
    (fun s -> check_bool s true (Helpers.contains text s))
    [ "L1"; "GL"; "LO"; "RO"; "peak 42"; "len  13" ];
  (* A schedule spanning more than the 72-column cap is scaled down:
     every bar (the third field of a value's row) fits 73 columns. *)
  let long =
    Schedule.make ~config:sched.Schedule.config ~ii:1
      ~placements:
        (Array.map
           (fun p -> { p with Schedule.cycle = 10 * p.Schedule.cycle })
           (Schedule.placements sched))
      sched.Schedule.ddg
  in
  let scaled = Chart.render long in
  check_bool "scaled" true (Helpers.contains scaled "1 col =");
  let bars =
    List.filter_map
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | _ :: _ :: bar :: _ when String.contains bar '#' -> Some bar
        | _ -> None)
      (String.split_on_char '\n' scaled)
  in
  check_int "one bar per value" 6 (List.length bars);
  check_bool "respects width cap" true (List.for_all (fun b -> String.length b <= 73) bars)

(* --- Report helpers --- *)

let test_stats_summary () =
  let values = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  (match Ncdrf_report.Stats.summarize values with
   | None -> Alcotest.fail "summary of non-empty series"
   | Some s ->
     check_int "count" 5 s.Ncdrf_report.Stats.count;
     Alcotest.(check (float 1e-9)) "mean" 3.0 s.Ncdrf_report.Stats.mean;
     Alcotest.(check (float 1e-9)) "median" 3.0 s.Ncdrf_report.Stats.p50;
     Alcotest.(check (float 1e-9)) "min" 1.0 s.Ncdrf_report.Stats.min;
     Alcotest.(check (float 1e-9)) "max" 5.0 s.Ncdrf_report.Stats.max);
  check_bool "empty series" true (Ncdrf_report.Stats.summarize [] = None);
  (try
     ignore (Ncdrf_report.Stats.percentile 50.0 []);
     Alcotest.fail "empty percentile accepted"
   with Invalid_argument _ -> ())

let test_stats_histogram () =
  let values = [ 0.5; 1.5; 1.7; 3.2 ] in
  let buckets = Ncdrf_report.Stats.histogram ~lo:0.0 ~width:1.0 values in
  check_int "buckets span the data" 4 (List.length buckets);
  check_bool "counts" true (List.map snd buckets = [ 1; 2; 0; 1 ]);
  let text =
    Ncdrf_report.Stats.render_histogram ~label:(fun l -> Printf.sprintf "%.0f" l) buckets
  in
  check_bool "renders bars" true (Helpers.contains text "#")

let test_csv_escaping () =
  let path = Filename.temp_file "ncdrf" ".csv" in
  Ncdrf_report.Csv.write path [ [ "abc"; "a,b"; "a\"b" ]; [ "a"; "b,c"; "d" ] ];
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "quoted where needed" "abc,\"a,b\",\"a\"\"b\"\na,\"b,c\",d\n" text

let test_csv_write_roundtrip () =
  let path = Filename.temp_file "ncdrf" ".csv" in
  Ncdrf_report.Csv.write path [ [ "h1"; "h2" ]; [ "1"; "x,y" ] ];
  let ic = open_in path in
  let first = input_line ic in
  let second = input_line ic in
  let lines = [ first; second ] in
  close_in ic;
  Sys.remove path;
  check_bool "header" true (List.nth lines 0 = "h1,h2");
  check_bool "escaped row" true (List.nth lines 1 = "1,\"x,y\"")

let suite =
  [
    Alcotest.test_case "mve: quanta on example" `Quick test_mve_quanta_example;
    Alcotest.test_case "mve: lcm reaches sum of quanta" `Quick test_mve_lcm_gives_sum_of_quanta;
    Alcotest.test_case "mve: prime unroll penalty" `Quick test_mve_prime_unroll_penalty;
    Alcotest.test_case "mve: best between bounds" `Quick test_mve_best_never_worse_than_min;
    Alcotest.test_case "mve: rejects small unroll" `Quick test_mve_rejects_small_unroll;
    QCheck_alcotest.to_alcotest prop_mve_registers_at_least_rotating;
    Alcotest.test_case "codegen: phases on example" `Quick test_codegen_phases_example;
    Alcotest.test_case "codegen: operation count" `Quick test_codegen_operation_count;
    Alcotest.test_case "codegen: unrolled kernel" `Quick test_codegen_unrolled;
    Alcotest.test_case "codegen: stage filters" `Quick test_codegen_stage_filter;
    Alcotest.test_case "spill victims all fit" `Quick test_spill_victims_all_fit;
    Alcotest.test_case "best-ratio keeps reloads cheap" `Quick
      test_best_ratio_prefers_cheap_spills;
    Alcotest.test_case "sacks: single-use detection" `Quick test_single_use_detection;
    Alcotest.test_case "sacks: relieve the primary file" `Quick test_sacks_relieve_primary;
    Alcotest.test_case "sacks: port limits bind" `Quick test_sacks_port_limits_bind;
    QCheck_alcotest.to_alcotest prop_sacks_account_for_all_values;
    Alcotest.test_case "push-late on all ops saves registers" `Quick
      test_push_late_all_ops_saves_registers;
    Alcotest.test_case "chart renders the example" `Quick test_chart_render_example;
    Alcotest.test_case "report: stats summary" `Quick test_stats_summary;
    Alcotest.test_case "report: stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "report: csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "report: csv write" `Quick test_csv_write_roundtrip;
  ]
