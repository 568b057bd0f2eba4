(* Benchmark harness: regenerates every table and figure of the paper
   (Table 1, Tables 2-4 via the worked example, Figures 3-9) on the
   synthetic Perfect-Club-like suite, plus ablation studies and Bechamel
   timing benches of the core algorithms.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- fig8 --quick -- smaller suite

   Experiment ids: example table1 fig6 fig7 fig8 fig9 ablation spill-victims
   cluster-policy mve doubling fission cost sacks lifetime-postpass
   cluster-sweep store serve-concurrency bechamel.
   --csv DIR mirrors the figure series to CSV files.
   --clusters K / --read-ports N / --write-ports N swap the machine
   under test for a K-cluster NCDRF with per-subfile port budgets; the
   defaults (2, uncapped) reproduce the paper's dual machine exactly.
   --jobs N runs the per-loop pipeline on N domains (default: the
   recommended domain count); results are identical to --jobs 1.
   --metrics FILE emits a JSON report (wall clock and per-stage span
   breakdown per experiment, loops/sec, cache.hits/misses/evictions,
   and — when N > 1 — measured speedup against a silenced serial
   rerun), in a shape suitable for committing as BENCH_*.json.  Under
   --metrics the artifact cache is cleared before each experiment's
   timed region so every report is self-contained.
   --no-cache disables the artifact compile cache (every stage
   recomputes); results are byte-identical either way.
   --trace FILE buffers begin/end events around every pipeline stage
   and writes a Chrome trace-event JSON (chrome://tracing, Perfetto),
   one track per pool domain, spanning all selected experiments.
   --ledger FILE writes one JSONL record per executed (config, loop)
   point — stage durations, cache traffic, II vs MII, spill rounds,
   error category — identity-sorted so --jobs N matches --jobs 1;
   inspect it with `ncdrf profile FILE`.
   --size N / --seed N pick the suite; the suite cache is keyed on
   (size, seed) so mixed-size runs never see stale entries.
   --cache-dir DIR opens the persistent on-disk artifact store there
   (--cache-max-mb N bounds it; 0 = unbounded): a second process over
   the same suite replays its compiles from disk instead of
   recomputing, with byte-identical output.
   --shard I/N keeps only the loops assigned to shard I of N — a
   deterministic, jobs-invariant partition by loop content digest — so
   N cooperating processes can split a suite and `ncdrf merge` their
   --metrics/--ledger outputs back into one run.
   --timeout SECS gives every (loop, model) point a wall budget on the
   monotonic clock; over-budget points fail with the typed
   deadline_exceeded category and land in the failure manifest. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc
open Ncdrf_core
module Pool = Ncdrf_parallel.Pool
module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace
module Ledger = Ncdrf_telemetry.Ledger
module Json = Telemetry.Json
module Error = Ncdrf_error.Error
module Failures = Ncdrf_error.Failures
module Fault = Ncdrf_fault.Fault
module Store = Ncdrf_cache.Store

let suite_size = ref 795
let suite_seed = ref 42
let quick () = suite_size := 150
let csv_dir : string option ref = ref None
let metrics_path : string option ref = ref None
let trace_path : string option ref = ref None
let ledger_path : string option ref = ref None
let requested_jobs = ref (Pool.default_jobs ())

(* The run's failure collector (keep-going by default; --fail-fast /
   --max-failures tighten the policy at startup).  Every suite sweep
   records its failed (loop, model) points here and carries on with the
   survivors. *)
let the_failures = ref (Failures.create ())
let failures_csv : string option ref = ref None

(* The session pool; [None] means serial.  The serial-baseline rerun
   (see [run_experiment]) swaps this to [None] temporarily. *)
let the_pool : Pool.t option ref = ref None
let current_jobs () = match !the_pool with Some p -> Pool.jobs p | None -> 1
let pool () = !the_pool

(* Per-point wall budget (--timeout); an over-budget point fails with
   the typed deadline_exceeded category and is recorded like any other
   failure. *)
let point_timeout : float option ref = ref None

(* Machine under test for every dual-machine experiment
   (--clusters / --read-ports / --write-ports).  The defaults build
   exactly [Config.dual], so committed figures are byte-identical
   unless a flag opts into the generalized k-cluster machine. *)
let cluster_count = ref 2
let rf_read_ports : int option ref = ref None
let rf_write_ports : int option ref = ref None

(* Persistent store (--cache-dir / --cache-max-mb) and suite shard
   (--shard I/N); both fixed at startup. *)
let cache_dir : string option ref = ref None
let cache_max_mb = ref 0
let shard_spec : (int * int) option ref = ref None

let machine ~latency =
  Config.k_cluster ?read_ports:!rf_read_ports ?write_ports:!rf_write_ports
    ~k:!cluster_count ~latency ()

(* Map the per-loop stage of an experiment over the session pool,
   keeping input order; serial when no pool is active.  Failing loops
   are classified, recorded in [the_failures] (in input order, so the
   manifest is deterministic) and dropped. *)
let pool_map f loops =
  let f l =
    Ncdrf_error.Deadline.with_timeout ?timeout_s:!point_timeout (fun () -> f l)
  in
  let outcomes =
    match !the_pool with
    | None ->
      List.map
        (fun l -> try Ok (f l) with e -> Stdlib.Error (Ddg.name l.Suite_stats.ddg, e))
        loops
    | Some p -> Pool.try_map_exn p ~label:(fun l -> Ddg.name l.Suite_stats.ddg) f loops
  in
  List.filter_map
    (function
      | Ok v -> Some v
      | Stdlib.Error (loop, e) ->
        Failures.record !the_failures (Error.classify_exn ~stage:"pipeline" ~loop e);
        None)
    outcomes

let banner title = Printf.printf "\n==== %s ====\n%!" title

(* Optionally mirror an experiment's series to CSV for plotting. *)
let emit_csv name rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    Ncdrf_report.Csv.write path rows;
    Printf.printf "  [csv: %s]\n%!" path

(* Keyed on (size, seed): a run that builds the suite at one size must
   not serve stale entries to a figure that needs a different one. *)
let suite_cache : ((int * int) * Suite_stats.workload list) option ref = ref None

let workloads () =
  let key = (!suite_size, !suite_seed) in
  match !suite_cache with
  | Some (k, w) when k = key -> w
  | Some _ | None ->
    let entries = Ncdrf_workloads.Suite.full ~size:!suite_size ~seed:!suite_seed () in
    let w =
      List.map
        (fun e ->
          {
            Suite_stats.ddg = e.Ncdrf_workloads.Suite.ddg;
            weight = e.Ncdrf_workloads.Suite.iterations;
          })
        entries
    in
    let w =
      match !shard_spec with
      | None -> w
      | Some (index, count) -> Suite_stats.shard ~index ~count w
    in
    suite_cache := Some (key, w);
    w

(* ------------------------------------------------------------------ *)
(* Worked example: Tables 2-4, Figures 3-5.                            *)
(* ------------------------------------------------------------------ *)

let paper_schedule () =
  (* The exact schedule of the paper's Figure 3 (cycles normalized). *)
  let ddg = Ncdrf_workloads.Kernels.paper_example () in
  let config = Config.example () in
  let table =
    [ ("L1", 0, 0); ("L2", 0, 0); ("M3", 1, 0); ("A4", 4, 0); ("M5", 7, 1);
      ("A6", 10, 1); ("S7", 13, 1) ]
  in
  let placements = Array.make (Ddg.num_nodes ddg) { Schedule.cycle = 0; cluster = 0 } in
  let set (label, cycle, cluster) =
    Ddg.iter_nodes ddg ~f:(fun n ->
        if String.equal n.Ddg.label label then
          placements.(n.Ddg.id) <- { Schedule.cycle; cluster })
  in
  List.iter set table;
  Schedule.make ~config ~ii:1 ~placements ddg

let run_example () =
  banner "Worked example (paper Section 4.1)";
  let sched = paper_schedule () in
  Printf.printf "Figure 3/4: modulo schedule and kernel (before swapping)\n";
  print_string (Kernel.render_schedule_table sched);
  print_string (Kernel.render sched);
  Printf.printf "\nTable 2: lifetimes of loop variants\n";
  let ddg = sched.Schedule.ddg in
  let lifetimes = Lifetime.of_schedule sched in
  List.iter
    (fun l ->
      let n = Ddg.node ddg l.Lifetime.producer in
      Printf.printf "  %-4s start %2d  end %2d  lifetime %2d\n" n.Ddg.label
        l.Lifetime.start l.Lifetime.stop (Lifetime.length l))
    lifetimes;
  Printf.printf "  total (unified registers at II=1): %d\n" (Requirements.unified sched);
  let show_alloc label sched =
    let detail = Requirements.partitioned sched in
    Printf.printf "\n%s\n" label;
    List.iter
      (fun (n, cls) ->
        Printf.printf "  %-4s %s\n" n.Ddg.label (Format.asprintf "%a" Classify.pp cls))
      (Classify.classify sched);
    Printf.printf
      "  global %d | left-only %d | right-only %d | per-cluster %s | required %d\n"
      (Lazy.force detail.Requirements.global_requirement)
      (Lazy.force detail.Requirements.local_requirements).(0)
      (Lazy.force detail.Requirements.local_requirements).(1)
      (String.concat "/"
         (Array.to_list
            (Array.map string_of_int (Lazy.force detail.Requirements.cluster_requirements))))
      detail.Requirements.requirement
  in
  show_alloc "Table 3: allocation classes (before swapping)" sched;
  let swapped, stats = Swap.improve sched in
  Printf.printf "\nFigure 5: kernel after greedy swapping (%d swaps, estimate %d -> %d)\n"
    stats.Swap.swaps stats.Swap.initial_cost stats.Swap.final_cost;
  print_string (Kernel.render swapped);
  show_alloc "Table 4: allocation classes (after swapping)" swapped

(* ------------------------------------------------------------------ *)
(* Table 1: allocatable loops under 16/32/64 registers, PxLy configs.  *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  banner "Table 1: % loops (and % cycles) allocatable without spilling, unified file";
  let configs =
    [ Config.pxly ~parallelism:1 ~latency:3; Config.pxly ~parallelism:2 ~latency:3;
      Config.pxly ~parallelism:1 ~latency:6; Config.pxly ~parallelism:2 ~latency:6 ]
  in
  let loops = workloads () in
  Printf.printf "%-6s | %8s %8s | %8s %8s | %8s %8s\n" "config" "<=16" "cyc" "<=32" "cyc"
    "<=64" "cyc";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun cfg ->
      let ms =
        Suite_stats.measure ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures ~config:cfg
          ~model:Model.Unified loops
      in
      let cell r =
        let s, d = Suite_stats.allocatable ms ~r in
        Printf.sprintf "%7.1f%% %7.1f%%" s d
      in
      Printf.printf "%-6s | %s | %s | %s\n" cfg.Config.name (cell 16) (cell 32) (cell 64))
    configs;
  emit_csv "table1"
    ([ "config"; "r"; "static_pct"; "dynamic_pct" ]
     :: List.concat_map
          (fun cfg ->
            let ms =
              Suite_stats.measure ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures ~config:cfg
                ~model:Model.Unified loops
            in
            List.map
              (fun r ->
                let s, d = Suite_stats.allocatable ms ~r in
                [ cfg.Config.name; string_of_int r; Printf.sprintf "%.2f" s;
                  Printf.sprintf "%.2f" d ])
              [ 16; 32; 64 ])
          configs)

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: cumulative distributions.                          *)
(* ------------------------------------------------------------------ *)

let distribution_points = [ 8; 16; 24; 32; 40; 48; 56; 64; 80; 96; 112; 128 ]

let run_distribution ~dynamic () =
  let which = if dynamic then "Figure 7 (dynamic, cycle-weighted)" else "Figure 6 (static)" in
  banner (which ^ ": cumulative distribution of loops vs registers required");
  let loops = workloads () in
  List.iter
    (fun latency ->
      let config = machine ~latency in
      Printf.printf "\n-- latency %d (%s), %% of %s with requirement <= R\n" latency
        config.Config.name
        (if dynamic then "cycles" else "loops");
      Printf.printf "%-12s" "R:";
      List.iter (fun r -> Printf.printf "%6d" r) distribution_points;
      print_newline ();
      (* One scheduling pass per loop; the three models read the same
         artifact (one Modulo.schedule per (config, loop)). *)
      let by_model =
        Suite_stats.measure_all ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures ~config
          ~models:[ Model.Unified; Model.Partitioned; Model.Swapped ]
          loops
      in
      List.iter
        (fun (model, ms) ->
          let dist =
            if dynamic then Suite_stats.dynamic_cumulative ms ~points:distribution_points
            else Suite_stats.static_cumulative ms ~points:distribution_points
          in
          Printf.printf "%-12s" (Model.to_string model);
          List.iter (fun (_, pct) -> Printf.printf "%6.1f" pct) dist;
          print_newline ();
          emit_csv
            (Printf.sprintf "%s-L%d-%s"
               (if dynamic then "fig7" else "fig6")
               latency (Model.to_string model))
            ([ "registers"; "cumulative_pct" ]
             :: List.map (fun (r, pct) -> [ string_of_int r; Printf.sprintf "%.2f" pct ]) dist))
        by_model)
    [ 3; 6 ]

(* ------------------------------------------------------------------ *)
(* Figures 8 and 9: performance and traffic with limited registers.    *)
(* ------------------------------------------------------------------ *)

let performance_grid () =
  let loops = workloads () in
  let grid = ref [] in
  List.iter
    (fun latency ->
      List.iter
        (fun capacity ->
          let config = machine ~latency in
          let cells =
            List.map
              (fun model ->
                let p =
                  Suite_stats.performance ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures
                    ~config ~model ~capacity loops
                in
                (model, p))
              Model.all
          in
          grid := ((latency, capacity), cells) :: !grid)
        [ 32; 64 ])
    [ 3; 6 ];
  List.rev !grid

(* Keyed by the active job count so the serial-baseline rerun never
   reuses (or poisons) the parallel run's grid. *)
let grid_cache = ref []

let get_grid () =
  let key = current_jobs () in
  match List.assoc_opt key !grid_cache with
  | Some g -> g
  | None ->
    let g = performance_grid () in
    grid_cache := (key, g) :: !grid_cache;
    g

let run_fig8 () =
  banner "Figure 8: performance (relative to ideal = 1.00)";
  Printf.printf "%-14s" "config";
  List.iter (fun m -> Printf.printf "%14s" (Model.to_string m)) Model.all;
  Printf.printf "%10s\n" "spills";
  List.iter
    (fun ((latency, capacity), cells) ->
      Printf.printf "L=%d,R=%-8d" latency capacity;
      List.iter (fun (_, p) -> Printf.printf "%14.3f" p.Suite_stats.relative) cells;
      let spills =
        List.fold_left (fun acc (_, p) -> acc + p.Suite_stats.total_spills) 0 cells
      in
      Printf.printf "%10d\n" spills)
    (get_grid ());
  emit_csv "fig8"
    ([ "latency"; "registers"; "model"; "relative_performance"; "total_spills" ]
     :: List.concat_map
          (fun ((latency, capacity), cells) ->
            List.map
              (fun (model, p) ->
                [ string_of_int latency; string_of_int capacity; Model.to_string model;
                  Printf.sprintf "%.4f" p.Suite_stats.relative;
                  string_of_int p.Suite_stats.total_spills ])
              cells)
          (get_grid ()))

let run_fig9 () =
  banner "Figure 9: density of memory traffic (fraction of bus bandwidth)";
  Printf.printf "%-14s" "config";
  List.iter (fun m -> Printf.printf "%14s" (Model.to_string m)) Model.all;
  print_newline ();
  List.iter
    (fun ((latency, capacity), cells) ->
      Printf.printf "L=%d,R=%-8d" latency capacity;
      List.iter (fun (_, p) -> Printf.printf "%14.3f" p.Suite_stats.density) cells;
      print_newline ())
    (get_grid ());
  emit_csv "fig9"
    ([ "latency"; "registers"; "model"; "traffic_density" ]
     :: List.concat_map
          (fun ((latency, capacity), cells) ->
            List.map
              (fun (model, p) ->
                [ string_of_int latency; string_of_int capacity; Model.to_string model;
                  Printf.sprintf "%.4f" p.Suite_stats.density ])
              cells)
          (get_grid ()))

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  banner "Ablation: allocation schema (Wands-Only order)";
  let loops = workloads () in
  let config = machine ~latency:6 in
  let schedules =
    List.map (fun l -> Artifact.raw_schedule ~config l.Suite_stats.ddg) loops
  in
  let total strategy order =
    List.fold_left (fun acc sched -> acc + Requirements.unified ~strategy ~order sched) 0
      schedules
  in
  Printf.printf "total unified registers over the suite (lower is better):\n";
  List.iter
    (fun (name, strategy) ->
      Printf.printf "  %-10s %d\n%!" name (total strategy Alloc.Start_time))
    [ ("first-fit", Alloc.First_fit); ("best-fit", Alloc.Best_fit);
      ("end-fit", Alloc.End_fit) ];
  banner "Ablation: lifetime ordering (First-Fit schema)";
  List.iter
    (fun (name, order) -> Printf.printf "  %-14s %d\n%!" name (total Alloc.First_fit order))
    [ ("start-time", Alloc.Start_time); ("longest-first", Alloc.Longest_first);
      ("node-order", Alloc.Node_order) ];
  banner "Ablation: swap estimate (MaxLive vs exact allocation)";
  let swap_cost estimate =
    List.fold_left
      (fun acc sched ->
        let swapped, _ = Swap.improve ~estimate sched in
        acc + (Requirements.partitioned swapped).Requirements.requirement)
      0 schedules
  in
  Printf.printf "  %-10s %d\n%!" "maxlive" (swap_cost Swap.Max_live);
  Printf.printf "  %-10s %d\n%!" "exact" (swap_cost Swap.Exact);
  banner "Ablation: spilling vs rescheduling at increased II (paper 5.4 option 1)";
  let capacity = 32 in
  let spill_time, bump_time =
    List.fold_left
      (fun (st, bt) l ->
        let spill = Pipeline.run ~config ~model:Model.Unified ~capacity l.Suite_stats.ddg in
        (* II escalation only: reschedule with growing II until the
           requirement fits, no spill code. *)
        let rec escalate ii guard =
          let sched = Modulo.schedule_with_min_ii ~min_ii:ii config l.Suite_stats.ddg in
          let req = Requirements.unified sched in
          if req <= capacity || guard > 64 then sched
          else escalate (Schedule.ii sched + 1) (guard + 1)
        in
        let bumped = escalate 1 0 in
        ( st +. (l.Suite_stats.weight *. float_of_int spill.Pipeline.ii),
          bt +. (l.Suite_stats.weight *. float_of_int (Schedule.ii bumped)) ))
      (0.0, 0.0) loops
  in
  Printf.printf "  weighted cycles, spilling:    %.3e\n" spill_time;
  Printf.printf "  weighted cycles, II increase: %.3e  (%.2fx)\n" bump_time
    (bump_time /. spill_time)

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper.                                        *)
(* ------------------------------------------------------------------ *)

let run_spill_victims () =
  banner "Extension: spill-victim heuristics (the paper asks for better ones)";
  let loops = workloads () in
  let config = machine ~latency:6 in
  let capacity = 32 in
  Printf.printf "%-18s %10s %12s %10s %8s\n" "victim" "rel.perf" "density" "spills" "unfit";
  List.iter
    (fun (name, victim) ->
      let ideal = ref 0.0 and achieved = ref 0.0 in
      let num = ref 0.0 and den = ref 0.0 in
      let spills = ref 0 and unfit = ref 0 in
      let bandwidth = float_of_int (Config.memory_bandwidth config) in
      let compiled =
        pool_map
          (fun l ->
            (l, Pipeline.run ~config ~model:Model.Swapped ~capacity ~victim l.Suite_stats.ddg))
          loops
      in
      List.iter
        (fun (l, st) ->
          ideal := !ideal +. (l.Suite_stats.weight *. float_of_int st.Pipeline.mii);
          achieved := !achieved +. (l.Suite_stats.weight *. float_of_int st.Pipeline.ii);
          num := !num +. (l.Suite_stats.weight *. float_of_int st.Pipeline.memops_per_iter);
          den := !den +. (l.Suite_stats.weight *. float_of_int st.Pipeline.ii *. bandwidth);
          spills := !spills + st.Pipeline.spilled;
          if not st.Pipeline.fits then incr unfit)
        compiled;
      Printf.printf "%-18s %10.3f %12.3f %10d %8d\n%!" name (!ideal /. !achieved)
        (!num /. !den) !spills !unfit)
    [ ("longest (paper)", Ncdrf_spill.Spiller.Longest_lifetime);
      ("best-ratio", Ncdrf_spill.Spiller.Best_ratio);
      ("fewest-consumers", Ncdrf_spill.Spiller.Fewest_consumers) ]

let run_cluster_policy () =
  banner "Extension: cluster-aware scheduling (paper 4.1 option 1, declined there)";
  let loops = workloads () in
  List.iter
    (fun latency ->
      let config = machine ~latency in
      Printf.printf "\n-- latency %d: registers required over the suite\n" latency;
      let total policy swap =
        List.fold_left
          (fun acc l ->
            let sched = Modulo.schedule ~cluster_policy:policy config l.Suite_stats.ddg in
            let sched = if swap then fst (Swap.improve sched) else sched in
            acc + (Requirements.partitioned sched).Requirements.requirement)
          0 loops
      in
      Printf.printf "  %-26s %d\n%!" "balance (paper, no swap)" (total Modulo.Balance false);
      Printf.printf "  %-26s %d\n%!" "balance + swap (paper)" (total Modulo.Balance true);
      Printf.printf "  %-26s %d\n%!" "affinity (no swap)" (total Modulo.Affinity false);
      Printf.printf "  %-26s %d\n%!" "affinity + swap" (total Modulo.Affinity true))
    [ 3; 6 ]

let run_mve () =
  banner "Extension: rotating register file vs modulo variable expansion";
  let loops = workloads () in
  let config = machine ~latency:6 in
  let rotating = ref 0 and mve_regs = ref 0 and mve_min_unroll = ref 0 in
  let kernel_rows = ref 0 and unrolled_rows = ref 0 in
  let count = ref 0 in
  List.iter
    (fun l ->
      let sched = Artifact.raw_schedule ~config l.Suite_stats.ddg in
      let ii = Schedule.ii sched in
      let lifetimes = Lifetime.of_schedule sched in
      let best = Mve.best ~ii lifetimes in
      rotating := !rotating + Requirements.unified sched;
      mve_regs := !mve_regs + best.Mve.registers;
      mve_min_unroll := !mve_min_unroll + best.Mve.unroll;
      let base = Codegen.size sched in
      let unrolled = Codegen.size_with_unroll sched ~unroll:best.Mve.unroll in
      kernel_rows := !kernel_rows + base.Codegen.total_rows;
      unrolled_rows := !unrolled_rows + unrolled.Codegen.total_rows;
      incr count)
    loops;
  Printf.printf "over %d loops (latency 6, unified allocation):\n" !count;
  Printf.printf "  rotating file registers:        %d\n" !rotating;
  Printf.printf "  MVE registers (best unroll):    %d  (%.2fx)\n" !mve_regs
    (float_of_int !mve_regs /. float_of_int !rotating);
  Printf.printf "  mean best unroll factor:        %.2f\n"
    (float_of_int !mve_min_unroll /. float_of_int !count);
  Printf.printf "  code rows, rotating:            %d\n" !kernel_rows;
  Printf.printf "  code rows, MVE-unrolled:        %d  (%.2fx)\n" !unrolled_rows
    (float_of_int !unrolled_rows /. float_of_int !kernel_rows)

let run_doubling () =
  banner "Extension: NCDRF with R registers vs doubling to a 2R unified file";
  let loops = workloads () in
  Printf.printf "%-10s %22s %22s\n" "config" "swapped dual @ R" "unified @ 2R";
  List.iter
    (fun latency ->
      List.iter
        (fun r ->
          let config = machine ~latency in
          let dual =
            Suite_stats.performance ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures
              ~config ~model:Model.Swapped ~capacity:r loops
          in
          let doubled =
            Suite_stats.performance ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures
              ~config ~model:Model.Unified ~capacity:(2 * r) loops
          in
          Printf.printf "L=%d,R=%-4d %22.3f %22.3f%s\n%!" latency r
            dual.Suite_stats.relative doubled.Suite_stats.relative
            (if dual.Suite_stats.relative >= doubled.Suite_stats.relative -. 0.005 then
               "   (as effective)"
             else ""))
        [ 16; 32 ])
    [ 3; 6 ]

let run_scheduler_policy () =
  banner "Extension: lifetime-sensitive bidirectional placement (Huff'93-style)";
  let loops = workloads () in
  List.iter
    (fun latency ->
      let config = machine ~latency in
      let asap_regs = ref 0 and bidir_regs = ref 0 in
      let asap_ii = ref 0 and bidir_ii = ref 0 in
      List.iter
        (fun l ->
          let a = Modulo.schedule ~placement_policy:Modulo.Asap config l.Suite_stats.ddg in
          let b =
            Modulo.schedule ~placement_policy:Modulo.Bidirectional config l.Suite_stats.ddg
          in
          asap_regs := !asap_regs + Requirements.unified a;
          bidir_regs := !bidir_regs + Requirements.unified b;
          asap_ii := !asap_ii + Schedule.ii a;
          bidir_ii := !bidir_ii + Schedule.ii b)
        loops;
      Printf.printf
        "latency %d: ASAP %d regs (II sum %d) vs bidirectional %d regs (II sum %d), %.1f%% saved\n%!"
        latency !asap_regs !asap_ii !bidir_regs !bidir_ii
        (100.0 *. float_of_int (!asap_regs - !bidir_regs) /. float_of_int !asap_regs))
    [ 3; 6 ]

let run_memory () =
  banner "Extension: banked-memory back-pressure (completing Figure 9's argument)";
  let loops = workloads () in
  let config = machine ~latency:6 in
  let capacity = 32 in
  let mem = { Ncdrf_sim.Memory_system.banks = 4; service_time = 2; tolerance = 4 } in
  Printf.printf "L=6, R=%d, memory: %d banks, %d-cycle service, tolerance %d\n" capacity
    mem.Ncdrf_sim.Memory_system.banks mem.Ncdrf_sim.Memory_system.service_time
    mem.Ncdrf_sim.Memory_system.tolerance;
  Printf.printf "%-14s %10s %12s %14s\n" "model" "density" "slowdown" "eff. relative";
  List.iter
    (fun model ->
      let density_num = ref 0.0 and density_den = ref 0.0 in
      let base = ref 0.0 and effective = ref 0.0 and ideal = ref 0.0 in
      let bw = float_of_int (Config.memory_bandwidth config) in
      let compiled =
        pool_map
          (fun l ->
            let st = Pipeline.run ~config ~model ~capacity l.Suite_stats.ddg in
            let r =
              Ncdrf_sim.Memory_system.simulate ~config:mem ~iterations:25
                st.Pipeline.schedule
            in
            (l, st, r))
          loops
      in
      List.iter
        (fun (l, st, r) ->
          let w = l.Suite_stats.weight in
          density_num := !density_num +. (w *. float_of_int st.Pipeline.memops_per_iter);
          density_den := !density_den +. (w *. float_of_int st.Pipeline.ii *. bw);
          base := !base +. (w *. float_of_int st.Pipeline.ii);
          effective :=
            !effective
            +. (w *. float_of_int st.Pipeline.ii *. r.Ncdrf_sim.Memory_system.slowdown);
          ideal := !ideal +. (w *. float_of_int st.Pipeline.mii))
        compiled;
      Printf.printf "%-14s %10.3f %12.3f %14.3f\n%!" (Model.to_string model)
        (!density_num /. !density_den)
        (!effective /. !base) (!ideal /. !effective))
    Model.all

let run_fission () =
  banner "Extension: all three pressure-reduction options of Section 5.4";
  let loops = workloads () in
  let config = machine ~latency:6 in
  let capacity = 32 in
  let requirement g = Requirements.unified (Artifact.raw_schedule ~config g) in
  let spill_t = ref 0.0 and bump_t = ref 0.0 and fission_t = ref 0.0 in
  let fission_unfit = ref 0 and fission_memops = ref 0 in
  List.iter
    (fun l ->
      let g = l.Suite_stats.ddg in
      let w = l.Suite_stats.weight in
      (* Option 3 (the paper's evaluated choice): spill. *)
      let spill = Pipeline.run ~config ~model:Model.Unified ~capacity g in
      spill_t := !spill_t +. (w *. float_of_int spill.Pipeline.ii);
      (* Option 1: reschedule at increased II. *)
      let rec escalate ii guard =
        let sched = Modulo.schedule_with_min_ii ~min_ii:ii config g in
        if Requirements.unified sched <= capacity || guard > 64 then sched
        else escalate (Schedule.ii sched + 1) (guard + 1)
      in
      bump_t := !bump_t +. (w *. float_of_int (Schedule.ii (escalate 1 0)));
      (* Option 2: loop fission; the pieces run back to back, so their
         IIs add. *)
      let pieces, fits = Ncdrf_spill.Fission.split_until ~requirement ~capacity g in
      if not fits then incr fission_unfit;
      let total_ii =
        List.fold_left
          (fun acc p -> acc + Schedule.ii (Artifact.raw_schedule ~config p))
          0 pieces
      in
      let extra_mem =
        List.fold_left (fun acc p -> acc + Ddg.num_memory_ops p) 0 pieces
        - Ddg.num_memory_ops g
      in
      fission_memops := !fission_memops + extra_mem;
      fission_t := !fission_t +. (w *. float_of_int total_ii))
    loops;
  Printf.printf "weighted cycles at L=6, R=%d (lower is better):\n" capacity;
  Printf.printf "  %-34s %.3e\n" "option 3: naive spilling (paper)" !spill_t;
  Printf.printf "  %-34s %.3e  (%.2fx)\n" "option 1: reschedule at higher II" !bump_t
    (!bump_t /. !spill_t);
  Printf.printf "  %-34s %.3e  (%.2fx)  +%d memops, %d loops not fully split\n"
    "option 2: loop fission" !fission_t (!fission_t /. !spill_t) !fission_memops
    !fission_unfit

let run_cost () =
  banner "Hardware cost (paper Section 3.2 models): area / access time / operand bits";
  let config = machine ~latency:6 in
  Printf.printf "machine: %s (per-cluster 1 add + 1 mul + 1 ld/st)\n\n" config.Config.name;
  Printf.printf "%-22s %5s %8s %6s %6s %12s %9s %6s\n" "organization" "regs" "copies" "rd" "wr"
    "area" "access" "bits";
  let orgs =
    [ Cost.Unified; Cost.consistent_dual; Cost.non_consistent_dual; Cost.Doubled_unified ]
  in
  List.iter
    (fun registers ->
      List.iter
        (fun org ->
          let spec, copies = Cost.specify config ~registers org in
          Printf.printf "%-22s %5d %8d %6d %6d %12.0f %9.2f %6d\n"
            (Cost.organization_name org) spec.Cost.registers copies spec.Cost.read_ports
            spec.Cost.write_ports
            (Cost.total_area config ~registers org)
            (Cost.organization_access_time config ~registers org)
            (Cost.operand_field_bits ~registers:spec.Cost.registers))
        orgs;
      print_newline ())
    [ 32; 64 ];
  let ncdrf32 = Cost.total_area config ~registers:32 Cost.non_consistent_dual in
  let doubled32 = Cost.total_area config ~registers:32 Cost.Doubled_unified in
  Printf.printf "claims: NCDRF@32 area / doubled-unified@64 area = %.2f (cheaper %s)\n"
    (ncdrf32 /. doubled32)
    (if ncdrf32 < doubled32 then "yes" else "NO");
  let t_ncdrf = Cost.organization_access_time config ~registers:32 Cost.non_consistent_dual in
  let t_unified = Cost.organization_access_time config ~registers:32 Cost.Unified in
  Printf.printf "        NCDRF@32 access %.2f vs unified@32 %.2f (no penalty %s)\n" t_ncdrf
    t_unified
    (if t_ncdrf <= t_unified then "yes" else "NO")

let run_sacks () =
  banner "Extension: sacked register files (CONPAR'94) vs NCDRF on the same schedules";
  let loops = workloads () in
  let config = machine ~latency:6 in
  let unified = ref 0 and ncdrf = ref 0 in
  let primary2 = ref 0 and primary4 = ref 0 in
  let placed = ref 0 and eligible = ref 0 and values = ref 0 in
  List.iter
    (fun l ->
      let sched = Artifact.raw_schedule ~config l.Suite_stats.ddg in
      unified := !unified + Requirements.unified sched;
      let swapped, _ = Swap.improve sched in
      ncdrf := !ncdrf + (Requirements.partitioned swapped).Requirements.requirement;
      let a2 = Sacks.assign ~config:{ Sacks.default_config with sacks = 2 } sched in
      let a4 = Sacks.assign ~config:{ Sacks.default_config with sacks = 4 } sched in
      primary2 := !primary2 + a2.Sacks.primary_requirement;
      primary4 := !primary4 + a4.Sacks.primary_requirement;
      placed := !placed + a4.Sacks.placed;
      eligible := !eligible + a4.Sacks.eligible;
      values := !values + a4.Sacks.values)
    loops;
  Printf.printf "single-use values: %d of %d (%.0f%%); placed into 4 sacks: %d\n" !eligible
    !values
    (100.0 *. float_of_int !eligible /. float_of_int (max 1 !values))
    !placed;
  Printf.printf "total registers over the suite (multiported file only):\n";
  Printf.printf "  %-26s %d\n" "unified (all multiported)" !unified;
  Printf.printf "  %-26s %d\n" "NCDRF per-subfile (swapped)" !ncdrf;
  Printf.printf "  %-26s %d\n" "sacked primary, 2 sacks" !primary2;
  Printf.printf "  %-26s %d\n" "sacked primary, 4 sacks" !primary4

let run_lifetime_postpass () =
  banner "Extension: lifetime-sensitive post-pass (push every op as late as possible)";
  let loops = workloads () in
  List.iter
    (fun latency ->
      let config = machine ~latency in
      let base = ref 0 and pushed = ref 0 in
      List.iter
        (fun l ->
          let sched = Artifact.raw_schedule ~config l.Suite_stats.ddg in
          base := !base + Requirements.unified sched;
          let adjusted = Adjust.push_late sched ~eligible:(fun _ -> true) in
          pushed := !pushed + Requirements.unified adjusted)
        loops;
      Printf.printf "latency %d: unified registers %d -> %d (%.1f%% saved), same II\n%!"
        latency !base !pushed
        (100.0 *. float_of_int (!base - !pushed) /. float_of_int !base))
    [ 3; 6 ]

let run_cluster_sweep () =
  banner "Extension: k-cluster NCDRF sweep (cluster count x subfile port budget)";
  let loops = workloads () in
  let latency = 3 in
  let capacity = 32 in
  (* Executor IPC is measured on a fixed prefix of the suite: the
     cycle-accurate machine is far slower than the analytic sweep, and a
     deterministic sample keeps the column comparable across rows. *)
  let exec_sample = List.filteri (fun i _ -> i < 12) loops in
  let grid =
    List.concat_map
      (fun k -> List.map (fun ports -> (k, ports)) [ None; Some (4, 2); Some (2, 1) ])
      [ 2; 3; 4 ]
  in
  Printf.printf "latency %d, capacity %d, swapped model; IPC over %d sample loops\n"
    latency capacity (List.length exec_sample);
  Printf.printf "%-16s %8s %8s %9s %9s %7s %6s %7s %7s\n" "machine" "alloc%" "dyn%"
    "rel.perf" "density" "spills" "unfit" "ipc" "stalls";
  let rows = ref [] in
  List.iter
    (fun (k, ports) ->
      let config =
        match ports with
        | None -> Config.k_cluster ~k ~latency ()
        | Some (r, w) -> Config.k_cluster ~read_ports:r ~write_ports:w ~k ~latency ()
      in
      let ms =
        Suite_stats.measure ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures ~config
          ~model:Model.Swapped loops
      in
      let static, dynamic = Suite_stats.allocatable ms ~r:capacity in
      let perf =
        Suite_stats.performance ?pool:(pool ()) ?timeout_s:!point_timeout ~failures:!the_failures
          ~config ~model:Model.Swapped ~capacity loops
      in
      let ops = ref 0 and cycles = ref 0 and stalls = ref 0 in
      List.iter
        (fun l ->
          let sched = Artifact.raw_schedule ~config l.Suite_stats.ddg in
          let swapped, _ = Swap.improve sched in
          let iterations = 8 in
          let o = Ncdrf_sim.Executor.run_clustered ~iterations swapped in
          ops := !ops + (iterations * Ddg.num_nodes l.Suite_stats.ddg);
          cycles := !cycles + o.Ncdrf_sim.Executor.cycles;
          stalls := !stalls + o.Ncdrf_sim.Executor.port_stalls)
        exec_sample;
      let ipc = float_of_int !ops /. float_of_int (max 1 !cycles) in
      let ports_label =
        match ports with None -> "-" | Some (r, w) -> Printf.sprintf "r%d,w%d" r w
      in
      Printf.printf "k=%d ports=%-6s %8.1f %8.1f %9.3f %9.3f %7d %6d %7.2f %7d\n%!" k
        ports_label static dynamic perf.Suite_stats.relative perf.Suite_stats.density
        perf.Suite_stats.total_spills perf.Suite_stats.unfit ipc !stalls;
      rows :=
        [ string_of_int k;
          (match ports with None -> "" | Some (r, _) -> string_of_int r);
          (match ports with None -> "" | Some (_, w) -> string_of_int w);
          Printf.sprintf "%.2f" static; Printf.sprintf "%.2f" dynamic;
          Printf.sprintf "%.4f" perf.Suite_stats.relative;
          Printf.sprintf "%.4f" perf.Suite_stats.density;
          string_of_int perf.Suite_stats.total_spills;
          string_of_int perf.Suite_stats.unfit; Printf.sprintf "%.3f" ipc;
          string_of_int !stalls ]
        :: !rows)
    grid;
  emit_csv "cluster-sweep"
    ([ "clusters"; "read_ports"; "write_ports"; "allocatable_pct"; "dynamic_pct";
       "rel_perf"; "density"; "spills"; "unfit"; "exec_ipc"; "port_stalls" ]
     :: List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches: one Test.make per experiment + micro.      *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let small = Ncdrf_workloads.Suite.full ~size:40 () in
  let small_wl =
    List.map
      (fun e ->
        { Suite_stats.ddg = e.Ncdrf_workloads.Suite.ddg;
          weight = e.Ncdrf_workloads.Suite.iterations })
      small
  in
  let config = machine ~latency:3 in
  let example = Ncdrf_workloads.Kernels.paper_example () in
  let sched = Modulo.schedule config example in
  [
    Test.make ~name:"table1:unified-measure"
      (Staged.stage (fun () ->
           Suite_stats.measure ~config:(Config.pxly ~parallelism:2 ~latency:6)
             ~model:Model.Unified small_wl));
    Test.make ~name:"fig6:partitioned-measure"
      (Staged.stage (fun () -> Suite_stats.measure ~config ~model:Model.Partitioned small_wl));
    Test.make ~name:"fig7:swapped-measure"
      (Staged.stage (fun () -> Suite_stats.measure ~config ~model:Model.Swapped small_wl));
    Test.make ~name:"fig8:performance-32"
      (Staged.stage (fun () ->
           Suite_stats.performance ~config ~model:Model.Partitioned ~capacity:32
             (List.filteri (fun i _ -> i < 10) small_wl)));
    Test.make ~name:"fig9:density-32"
      (Staged.stage (fun () ->
           Suite_stats.performance ~config ~model:Model.Unified ~capacity:32
             (List.filteri (fun i _ -> i < 10) small_wl)));
    Test.make ~name:"micro:modulo-schedule"
      (Staged.stage (fun () -> Modulo.schedule config example));
    Test.make ~name:"micro:min-capacity" (Staged.stage (fun () -> Requirements.unified sched));
    Test.make ~name:"micro:swap-improve" (Staged.stage (fun () -> Swap.improve sched));
    Test.make ~name:"micro:mii" (Staged.stage (fun () -> Mii.mii config example));
    Test.make ~name:"micro:executor-dual"
      (Staged.stage (fun () -> Ncdrf_sim.Executor.run_dual ~iterations:20 sched));
    Test.make ~name:"micro:reference"
      (Staged.stage (fun () -> Ncdrf_sim.Reference.run ~iterations:20 example));
    Test.make ~name:"micro:mve-best"
      (Staged.stage (fun () ->
           Mve.best ~ii:(Schedule.ii sched) (Lifetime.of_schedule sched)));
    Test.make ~name:"micro:sacks-assign" (Staged.stage (fun () -> Sacks.assign sched));
  ]

let run_bechamel () =
  banner "Bechamel timing benches";
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  (* Timing benches must measure the algorithms, not cache hits: the
     second iteration of a memoized stage would be a table lookup. *)
  let was_cached = Artifact.cache_enabled () in
  Artifact.set_cache_enabled false;
  Fun.protect
    ~finally:(fun () -> Artifact.set_cache_enabled was_cached)
    (fun () ->
      List.iter
        (fun test ->
          let results = Benchmark.all cfg instances test in
          let analyzed =
            Analyze.all
              (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |])
              (List.hd instances) results
          in
          Hashtbl.iter
            (fun name ols ->
              match Analyze.OLS.estimates ols with
              | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/run\n%!" name est
              | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
            analyzed)
        (bechamel_tests ()))

(* ------------------------------------------------------------------ *)
(* Persistent-store wall clock: the capacity sweep run with no store,
   against an empty store (cold), replayed from disk (warm — the
   in-memory cache is cleared between passes, so each pass models a
   fresh process over a shared --cache-dir), and split in two shards
   against a second empty store (the cooperating-process partition;
   the slower shard is the critical path of a 2-process run).         *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let run_store () =
  banner "Persistent store: cold vs disk-warm vs sharded wall clock";
  let all = workloads () in
  let config = machine ~latency:6 in
  let capacities = [ 16; 32 ] in
  let sweep loops =
    (* A fresh in-memory cache per pass: only the disk store persists
       across passes, exactly as it would across processes. *)
    Artifact.clear_cache ();
    let t0 = Telemetry.now () in
    List.iter
      (fun capacity ->
        ignore
          (Suite_stats.performance ?pool:(pool ()) ?timeout_s:!point_timeout
             ~failures:!the_failures ~config ~model:Model.Swapped ~capacity loops))
      capacities;
    Telemetry.now () -. t0
  in
  let saved = Store.ambient () in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ncdrf-store-bench.%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Store.set_ambient saved;
      Artifact.clear_cache ();
      rm_rf root)
    (fun () ->
      Store.set_ambient None;
      let no_store = sweep all in
      let full = Store.open_store ~dir:(Filename.concat root "full") () in
      Store.set_ambient (Some full);
      let cold = sweep all in
      let warm = sweep all in
      let st = Store.stats full in
      Store.set_ambient
        (Some (Store.open_store ~dir:(Filename.concat root "sharded") ()));
      let shard_walls =
        List.init 2 (fun i -> sweep (Suite_stats.shard ~index:i ~count:2 all))
      in
      Printf.printf "  %-24s %8.3f s\n" "no store" no_store;
      Printf.printf "  %-24s %8.3f s\n" "cold (empty store)" cold;
      Printf.printf "  %-24s %8.3f s  (%.2fx vs cold)\n" "disk-warm" warm
        (if warm > 0.0 then cold /. warm else 0.0);
      List.iteri
        (fun i w ->
          Printf.printf "  %-24s %8.3f s\n" (Printf.sprintf "shard %d/2 (cold)" i) w)
        shard_walls;
      let critical = List.fold_left Float.max 0.0 shard_walls in
      Printf.printf "  %-24s %8.3f s  (%.2fx vs cold)\n" "2-process critical path"
        critical
        (if critical > 0.0 then cold /. critical else 0.0);
      Printf.printf
        "  full store: %d hit(s), %d miss(es), %d write(s), %d byte(s)\n%!"
        st.Store.hits st.Store.misses st.Store.writes st.Store.bytes)

(* ------------------------------------------------------------------ *)
(* Serve concurrency: requests/s and client-observed latency of an
   in-process daemon at 1/2/4 concurrent clients, max_inflight 1 vs 4.
   The artifact cache is disabled so every request performs identical
   work; on a single-core box the inflight-4 gain is bounded by the
   overlap of protocol/socket time with compute, not by parallel
   compute, so ratios near 1.0 are expected there.                     *)
(* ------------------------------------------------------------------ *)

module Server = Ncdrf_server.Server
module Client = Ncdrf_server.Client
module Protocol = Ncdrf_server.Protocol

let run_serve_concurrency () =
  banner "Serve concurrency: requests/s vs max_inflight and client count";
  let size = 12 and registers = 32 and per_client = 4 in
  let was_cached = Artifact.cache_enabled () in
  Artifact.set_cache_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Artifact.set_cache_enabled was_cached;
      Artifact.clear_cache ())
  @@ fun () ->
  let run_config ~max_inflight ~clients =
    Artifact.clear_cache ();
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ncdrf-bench-serve.%d.%d.%d.sock" (Unix.getpid ())
           max_inflight clients)
    in
    (try Sys.remove path with Sys_error _ -> ());
    let stop = Atomic.make false in
    let opts =
      { (Server.default_opts ~socket_path:path) with jobs = 1; max_inflight }
    in
    let code = ref (-1) in
    let daemon =
      Thread.create
        (fun () -> code := Server.run ~stop ~handle_signals:false opts)
        ()
    in
    let latencies = ref [] in
    let lat_lock = Mutex.create () in
    let client_thread ci =
      (* Client.connect polls for the socket, so no explicit daemon
         startup handshake is needed. *)
      let client = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      for r = 0 to per_client - 1 do
        let req =
          {
            Protocol.id = Printf.sprintf "bench-%d-%d" ci r;
            timeout_s = None;
            kind = Protocol.Suite { spec = Config.default_spec; size; registers };
          }
        in
        let t0 = Telemetry.now () in
        (match Client.request client req with
         | Ok { Protocol.body = Protocol.Suite_report _; _ } -> ()
         | Ok _ -> failwith "serve bench: unexpected response body"
         | Stdlib.Error e -> failwith ("serve bench: " ^ Error.to_string e));
        let dt = Telemetry.now () -. t0 in
        Mutex.lock lat_lock;
        latencies := dt :: !latencies;
        Mutex.unlock lat_lock
      done
    in
    let t0 = Telemetry.now () in
    let threads = List.init clients (fun ci -> Thread.create client_thread ci) in
    List.iter Thread.join threads;
    let wall = Telemetry.now () -. t0 in
    Atomic.set stop true;
    Thread.join daemon;
    if !code <> 0 then failwith "serve bench: daemon did not drain to exit 0";
    let lats = !latencies in
    let pct p = match lats with [] -> 0.0 | l -> Ncdrf_report.Stats.percentile p l in
    (wall, float_of_int (clients * per_client) /. wall, pct 50.0, pct 90.0,
     pct 99.0)
  in
  Printf.printf "  %-9s %-8s %9s %9s %9s %9s %9s\n" "inflight" "clients"
    "wall s" "req/s" "p50 s" "p90 s" "p99 s";
  List.iter
    (fun clients ->
      let baseline = ref 0.0 in
      List.iter
        (fun max_inflight ->
          let wall, rps, p50, p90, p99 = run_config ~max_inflight ~clients in
          if max_inflight = 1 then baseline := rps;
          let note =
            if max_inflight = 1 || !baseline <= 0.0 then ""
            else Printf.sprintf "  (%.2fx vs inflight 1)" (rps /. !baseline)
          in
          Printf.printf "  %-9d %-8d %9.3f %9.2f %9.4f %9.4f %9.4f%s\n%!"
            max_inflight clients wall rps p50 p90 p99 note)
        [ 1; 4 ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("example", run_example);
    ("table1", run_table1);
    ("fig6", run_distribution ~dynamic:false);
    ("fig7", run_distribution ~dynamic:true);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("ablation", run_ablation);
    ("spill-victims", run_spill_victims);
    ("cluster-policy", run_cluster_policy);
    ("mve", run_mve);
    ("doubling", run_doubling);
    ("scheduler-policy", run_scheduler_policy);
    ("memory", run_memory);
    ("fission", run_fission);
    ("cost", run_cost);
    ("sacks", run_sacks);
    ("lifetime-postpass", run_lifetime_postpass);
    ("cluster-sweep", run_cluster_sweep);
    ("store", run_store);
    ("serve-concurrency", run_serve_concurrency);
    ("bechamel", run_bechamel);
  ]

(* ------------------------------------------------------------------ *)
(* Metrics-instrumented driver.                                        *)
(* ------------------------------------------------------------------ *)

(* Experiments whose per-loop stage runs on the pool — the only ones
   worth a serial-baseline rerun for the speedup figure. *)
let pooled_experiments =
  [ "table1"; "fig6"; "fig7"; "fig8"; "fig9"; "doubling"; "spill-victims"; "memory";
    "cluster-sweep" ]

type experiment_metric = {
  ex_name : string;
  wall_s : float;
  loops : int;  (** pipeline invocations during the timed run *)
  spans : (string * Telemetry.span) list;
  dists : (string * Telemetry.distribution) list;
  counters : (string * int) list;
  serial_wall_s : float option;
}

(* Run [f] with stdout sent to /dev/null: the serial-baseline rerun
   must not duplicate the experiment's report. *)
let silence_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)
    f

let run_experiment ~collect (name, f) =
  (* The ledger can be armed without --metrics; records carry the
     experiment name either way. *)
  Ledger.set_label name;
  match !metrics_path with
  | None -> f ()
  | Some _ ->
    (* Warm the suite cache outside the timed region so the parallel
       run and the serial baseline both measure the pipeline, not the
       one-off suite generation.  The artifact cache is cleared so each
       experiment's metrics are self-contained: its hit/miss counters
       and span counts describe the sharing within that experiment, not
       leftovers from the previous one. *)
    ignore (workloads ());
    Artifact.clear_cache ();
    Telemetry.reset ();
    let t0 = Telemetry.now () in
    f ();
    let wall_s = Telemetry.now () -. t0 in
    let spans = Telemetry.spans () in
    let dists = Telemetry.distributions () in
    let counters = Telemetry.counters () in
    let loops = Telemetry.counter "pipeline.loops" in
    let serial_wall_s =
      if current_jobs () > 1 && List.mem name pooled_experiments then begin
        Artifact.clear_cache ();
        Telemetry.reset ();
        let saved_pool = !the_pool in
        let saved_failures = !the_failures in
        (* The rerun would double every trace event and ledger record;
           it is a measurement artefact, not part of the run. *)
        let saved_trace = Trace.enabled () in
        let saved_ledger = Ledger.enabled () in
        Trace.enable false;
        Ledger.enable false;
        the_pool := None;
        (* The baseline rerun replays the same sweep; a throwaway
           collector keeps it from double-recording the run's
           failures. *)
        the_failures := Failures.create ();
        let t1 = Telemetry.now () in
        silence_stdout f;
        let serial = Telemetry.now () -. t1 in
        the_pool := saved_pool;
        the_failures := saved_failures;
        Trace.enable saved_trace;
        Ledger.enable saved_ledger;
        Some serial
      end
      else None
    in
    collect { ex_name = name; wall_s; loops; spans; dists; counters; serial_wall_s }

let metric_json m =
  let span_json (name, s) =
    (* Percentiles ride along after the original keys so pre-existing
       consumers see an unchanged prefix. *)
    let dist =
      match List.assoc_opt name m.dists with
      | None -> []
      | Some (d : Telemetry.distribution) ->
        [ ("p50_s", Json.Float d.Telemetry.p50_s);
          ("p90_s", Json.Float d.Telemetry.p90_s);
          ("p99_s", Json.Float d.Telemetry.p99_s) ]
    in
    ( name,
      Json.Obj
        ([ ("total_s", Json.Float s.Telemetry.total_s);
           ("count", Json.Int s.Telemetry.count);
           ("max_s", Json.Float s.Telemetry.max_s) ]
         @ dist) )
  in
  let base =
    [
      ("name", Json.String m.ex_name);
      ("wall_s", Json.Float m.wall_s);
      ("loops", Json.Int m.loops);
      ( "loops_per_sec",
        if m.wall_s > 0.0 then Json.Float (float_of_int m.loops /. m.wall_s)
        else Json.Null );
      ("stages", Json.Obj (List.map span_json m.spans));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) m.counters));
    ]
  in
  let speedup =
    match m.serial_wall_s with
    | None -> []
    | Some s ->
      [ ("serial_wall_s", Json.Float s);
        ( "speedup_vs_serial",
          if m.wall_s > 0.0 then Json.Float (s /. m.wall_s) else Json.Null ) ]
  in
  Json.Obj (base @ speedup)

let write_metrics ~total_wall_s collected =
  match !metrics_path with
  | None -> ()
  | Some path ->
    let failures = !the_failures in
    (* Only present when something failed, so a clean run's metrics are
       byte-identical to a pre-taxonomy run's. *)
    let failure_block =
      if Failures.count failures = 0 then []
      else [ ("failures", Failures.to_json failures) ]
    in
    let json =
      Json.Obj
        ([
           ("schema", Json.String "ncdrf-bench-metrics/1");
           ("jobs", Json.Int !requested_jobs);
           ("recommended_jobs", Json.Int (Pool.default_jobs ()));
           ("suite_size", Json.Int !suite_size);
           ("suite_seed", Json.Int !suite_seed);
           ("total_wall_s", Json.Float total_wall_s);
           ("experiments", Json.List (List.map metric_json (List.rev collected)));
         ]
         @ failure_block)
    in
    Telemetry.write_json ~path json;
    Printf.printf "\n[metrics: %s]\n%!" path

(* Mirror of the suite driver's failure report: silent on a clean run
   (so default output stays byte-identical), a per-category count block
   plus one line per failure otherwise. *)
let report_failures () =
  let failures = !the_failures in
  let n = Failures.count failures in
  if n > 0 then begin
    Printf.printf "\n%d point(s) failed (excluded from the results above):\n" n;
    List.iter
      (fun (cat, c) -> Printf.printf "  errors.%-20s %d\n" cat c)
      (Failures.by_category failures);
    List.iter (fun e -> Printf.printf "  - %s\n" (Error.to_string e)) (Failures.list failures)
  end;
  Option.iter
    (fun path ->
      Ncdrf_report.Csv.write path (Failures.to_csv_rows failures);
      Printf.printf "[failures: %s]\n%!" path)
    !failures_csv

let usage () =
  Printf.eprintf
    "usage: main.exe [EXPERIMENT...] [--quick] [--size N] [--seed N] [--jobs N]\n\
    \       [--clusters K] [--read-ports N] [--write-ports N]\n\
    \       [--csv DIR] [--metrics FILE] [--trace FILE] [--ledger FILE] [--no-cache]\n\
    \       [--cache-dir DIR] [--cache-max-mb N] [--shard I/N]\n\
    \       [--fail-fast] [--max-failures N] [--failures FILE] [--timeout SECS]\n\
    \       [--inject stage=NAME[,loop=REGEX][,every=N]]\n";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "%s: not an integer: %S\n" flag v;
      usage ()
  in
  let float_arg flag v =
    match float_of_string_opt v with
    | Some f -> f
    | None ->
      Printf.eprintf "%s: not a number: %S\n" flag v;
      usage ()
  in
  let fail_fast = ref false in
  let max_failures = ref None in
  let rec parse = function
    | "--quick" :: rest ->
      quick ();
      parse rest
    | "--fail-fast" :: rest ->
      fail_fast := true;
      parse rest
    | "--max-failures" :: n :: rest ->
      max_failures := Some (max 0 (int_arg "--max-failures" n));
      parse rest
    | "--failures" :: file :: rest ->
      failures_csv := Some file;
      parse rest
    | "--inject" :: spec :: rest ->
      (match Fault.arm spec with
       | Ok () -> ()
       | Stdlib.Error msg ->
         Printf.eprintf "bad --inject spec: %s\n" msg;
         exit 2);
      parse rest
    | "--no-cache" :: rest ->
      Artifact.set_cache_enabled false;
      parse rest
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      parse rest
    | "--jobs" :: n :: rest ->
      requested_jobs := max 1 (int_arg "--jobs" n);
      parse rest
    | "--metrics" :: file :: rest ->
      metrics_path := Some file;
      parse rest
    | "--trace" :: file :: rest ->
      trace_path := Some file;
      parse rest
    | "--ledger" :: file :: rest ->
      ledger_path := Some file;
      parse rest
    | "--seed" :: n :: rest ->
      suite_seed := int_arg "--seed" n;
      parse rest
    | "--size" :: n :: rest ->
      suite_size := max 1 (int_arg "--size" n);
      parse rest
    | "--clusters" :: n :: rest ->
      let k = int_arg "--clusters" n in
      if k > Config.max_clusters then begin
        Printf.eprintf "--clusters: at most %d clusters\n" Config.max_clusters;
        usage ()
      end;
      cluster_count := max 1 k;
      parse rest
    | "--read-ports" :: n :: rest ->
      rf_read_ports := Some (max 1 (int_arg "--read-ports" n));
      parse rest
    | "--write-ports" :: n :: rest ->
      rf_write_ports := Some (max 1 (int_arg "--write-ports" n));
      parse rest
    | "--timeout" :: s :: rest ->
      point_timeout := Some (Float.max 0.0 (float_arg "--timeout" s));
      parse rest
    | "--cache-dir" :: dir :: rest ->
      cache_dir := Some dir;
      parse rest
    | "--cache-max-mb" :: n :: rest ->
      cache_max_mb := max 0 (int_arg "--cache-max-mb" n);
      parse rest
    | "--shard" :: spec :: rest ->
      (match String.index_opt spec '/' with
       | Some slash ->
         let index = int_of_string_opt (String.sub spec 0 slash) in
         let count =
           int_of_string_opt
             (String.sub spec (slash + 1) (String.length spec - slash - 1))
         in
         (match (index, count) with
          | Some i, Some n when n >= 1 && i >= 0 && i < n -> shard_spec := Some (i, n)
          | _ ->
            Printf.eprintf "--shard: expected I/N with 0 <= I < N, got %S\n" spec;
            usage ())
       | None ->
         Printf.eprintf "--shard: expected I/N, got %S\n" spec;
         usage ());
      parse rest
    | ("--csv" | "--jobs" | "--metrics" | "--trace" | "--ledger" | "--seed" | "--size"
      | "--max-failures" | "--failures" | "--inject" | "--clusters"
      | "--read-ports" | "--write-ports" | "--timeout" | "--cache-dir" | "--cache-max-mb"
      | "--shard")
      :: [] ->
      usage ()
    | a :: rest -> a :: parse rest
    | [] -> []
  in
  let selected = parse args in
  (match !cache_dir with
  | None -> ()
  | Some dir -> (
    try
      Store.set_ambient
        (Some (Store.open_store ~max_bytes:(!cache_max_mb * 1024 * 1024) ~dir ()))
    with Sys_error msg ->
      Printf.eprintf "--cache-dir: %s\n" msg;
      exit 2));
  the_failures := Failures.create ~fail_fast:!fail_fast ?max_failures:!max_failures ();
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat " " (List.map fst experiments));
            exit 2)
        names
  in
  if !requested_jobs > 1 then the_pool := Some (Pool.create ~jobs:!requested_jobs ());
  Telemetry.enable (!metrics_path <> None);
  Trace.enable (!trace_path <> None);
  Ledger.enable (!ledger_path <> None);
  let collected = ref [] in
  let collect m = collected := m :: !collected in
  let t0 = Telemetry.now () in
  let exit_code = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Option.iter Pool.shutdown !the_pool)
    (fun () ->
      try List.iter (run_experiment ~collect) to_run with
      | Failures.Abort { recorded; last; reason } ->
        Printf.eprintf "aborted (%s) after %d failure(s); last: %s\n" reason recorded
          (Error.to_string last);
        exit_code := 1
      | Error.Error e ->
        Printf.eprintf "error: %s\n" (Error.to_string e);
        exit_code := 1);
  write_metrics ~total_wall_s:(Telemetry.now () -. t0) !collected;
  (* Trace and ledger accumulate across every selected experiment;
     publish them once, after the pool has quiesced. *)
  Option.iter
    (fun path ->
      Trace.write_chrome ~path;
      Printf.printf "[trace: %s]\n%!" path)
    !trace_path;
  Option.iter
    (fun path ->
      Ledger.write ~path;
      Printf.printf "[ledger: %s]\n%!" path)
    !ledger_path;
  report_failures ();
  if !exit_code <> 0 then exit !exit_code
