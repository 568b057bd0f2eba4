(* The paper's evaluation behind `ncdrf bench`: the worked example
   (Tables 2-4, Figures 3-5), Table 1 and Figures 6-9 on the synthetic
   Perfect-Club-like suite, plus ablations and extensions beyond the
   paper.  Each experiment prints its table to stdout and, with --csv,
   mirrors its series to CSV files. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc
open Ncdrf_core
module Pool = Ncdrf_parallel.Pool
module Telemetry = Ncdrf_telemetry.Telemetry
module Ledger = Ncdrf_telemetry.Ledger
module Json = Telemetry.Json
module Failures = Ncdrf_error.Failures

type grid = ((int * int) * (Model.t * Suite_stats.performance) list) list

type t = {
  pool : Pool.t;
  failures : Failures.t;
  timeout_s : float option;
  machine : latency:int -> Config.t;
  csv_dir : string option;
  suite : Suite_stats.workload list Lazy.t;
  grid : grid Lazy.t;
}

let loops c = Lazy.force c.suite

(* The suite sweeps run on the session pool, record failing points in
   the run's collector and drop them. *)
let measure c =
  Suite_stats.measure ~pool:c.pool ?timeout_s:c.timeout_s ~failures:c.failures

let measure_all c =
  Suite_stats.measure_all ~pool:c.pool ?timeout_s:c.timeout_s ~failures:c.failures

let performance c =
  Suite_stats.performance ~pool:c.pool ?timeout_s:c.timeout_s ~failures:c.failures

(* An experiment's own per-loop stage, with the same pool, failure
   handling and per-point deadline as the suite sweeps. *)
let map c = Suite_stats.map ~pool:c.pool ?timeout_s:c.timeout_s ~failures:c.failures

let banner title = Printf.printf "\n==== %s ====\n%!" title

let emit_csv c name rows =
  match c.csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    Ncdrf_report.Csv.write path rows;
    Printf.printf "  [csv: %s]\n%!" path

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

let run_example _ =
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

let run_table1 c =
  banner "Table 1: % loops (and % cycles) allocatable without spilling, unified file";
  let configs =
    [ Config.pxly ~parallelism:1 ~latency:3; Config.pxly ~parallelism:2 ~latency:3;
      Config.pxly ~parallelism:1 ~latency:6; Config.pxly ~parallelism:2 ~latency:6 ]
  in
  let loops = loops c in
  Printf.printf "%-6s | %8s %8s | %8s %8s | %8s %8s\n" "config" "<=16" "cyc" "<=32" "cyc"
    "<=64" "cyc";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun cfg ->
      let ms =
        measure c ~config:cfg ~model:Model.Unified loops
      in
      let cell r =
        let s, d = Suite_stats.allocatable ms ~r in
        Printf.sprintf "%7.1f%% %7.1f%%" s d
      in
      Printf.printf "%-6s | %s | %s | %s\n" cfg.Config.name (cell 16) (cell 32) (cell 64))
    configs;
  emit_csv c "table1"
    ([ "config"; "r"; "static_pct"; "dynamic_pct" ]
     :: List.concat_map
          (fun cfg ->
            let ms =
              measure c ~config:cfg ~model:Model.Unified loops
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

let run_distribution ~dynamic c =
  let which = if dynamic then "Figure 7 (dynamic, cycle-weighted)" else "Figure 6 (static)" in
  banner (which ^ ": cumulative distribution of loops vs registers required");
  let loops = loops c in
  List.iter
    (fun latency ->
      let config = c.machine ~latency in
      Printf.printf "\n-- latency %d (%s), %% of %s with requirement <= R\n" latency
        config.Config.name
        (if dynamic then "cycles" else "loops");
      Printf.printf "%-12s" "R:";
      List.iter (fun r -> Printf.printf "%6d" r) distribution_points;
      print_newline ();
      (* One scheduling pass per loop; the three models read the same
         artifact (one Modulo.schedule per (config, loop)). *)
      let by_model =
        measure_all c ~config
          ~models:[ Model.Unified; Model.Partitioned; Model.Swapped ] loops
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
          emit_csv c
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

let performance_grid c =
  let loops = loops c in
  let grid = ref [] in
  List.iter
    (fun latency ->
      List.iter
        (fun capacity ->
          let config = c.machine ~latency in
          let cells =
            List.map
              (fun model ->
                (model, performance c ~config ~model ~capacity loops))
              Model.all
          in
          grid := ((latency, capacity), cells) :: !grid)
        [ 32; 64 ])
    [ 3; 6 ];
  List.rev !grid

let run_fig8 c =
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
    (Lazy.force c.grid);
  emit_csv c "fig8"
    ([ "latency"; "registers"; "model"; "relative_performance"; "total_spills" ]
     :: List.concat_map
          (fun ((latency, capacity), cells) ->
            List.map
              (fun (model, p) ->
                [ string_of_int latency; string_of_int capacity; Model.to_string model;
                  Printf.sprintf "%.4f" p.Suite_stats.relative;
                  string_of_int p.Suite_stats.total_spills ])
              cells)
          (Lazy.force c.grid))

let run_fig9 c =
  banner "Figure 9: density of memory traffic (fraction of bus bandwidth)";
  Printf.printf "%-14s" "config";
  List.iter (fun m -> Printf.printf "%14s" (Model.to_string m)) Model.all;
  print_newline ();
  List.iter
    (fun ((latency, capacity), cells) ->
      Printf.printf "L=%d,R=%-8d" latency capacity;
      List.iter (fun (_, p) -> Printf.printf "%14.3f" p.Suite_stats.density) cells;
      print_newline ())
    (Lazy.force c.grid);
  emit_csv c "fig9"
    ([ "latency"; "registers"; "model"; "traffic_density" ]
     :: List.concat_map
          (fun ((latency, capacity), cells) ->
            List.map
              (fun (model, p) ->
                [ string_of_int latency; string_of_int capacity; Model.to_string model;
                  Printf.sprintf "%.4f" p.Suite_stats.density ])
              cells)
          (Lazy.force c.grid))

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)
(* ------------------------------------------------------------------ *)

let run_ablation c =
  let loops = loops c in
  let config = c.machine ~latency:6 in
  let schedules =
    List.map (fun l -> Artifact.raw_schedule ~config l.Suite_stats.ddg) loops
  in
  banner "Ablation: lifetime ordering (First-Fit schema)";
  Printf.printf "total unified registers over the suite at L=6 (lower is better):\n";
  let total order =
    List.fold_left
      (fun acc sched ->
        acc
        + Alloc.min_capacity ~order ~ii:(Schedule.ii sched) (Lifetime.of_schedule sched))
      0 schedules
  in
  List.iter
    (fun (name, order) -> Printf.printf "  %-14s %d\n%!" name (total order))
    [ ("start-time", Alloc.Start_time); ("longest-first", Alloc.Longest_first);
      ("node-order", Alloc.Node_order) ];
  banner "Ablation: swap estimate (MaxLive vs exact allocation)";
  Printf.printf
    "total partitioned registers after swapping over the suite at L=6 (lower is better):\n";
  let swap_cost improve =
    List.fold_left
      (fun acc sched ->
        let swapped, _ = improve sched in
        acc + (Requirements.partitioned swapped).Requirements.requirement)
      0 schedules
  in
  Printf.printf "  %-10s %d\n%!" "maxlive" (swap_cost (fun s -> Swap.improve s));
  Printf.printf "  %-10s %d\n%!" "exact" (swap_cost Swap.improve_exact);
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

let run_spill_victims c =
  banner "Extension: spill-victim heuristics (the paper asks for better ones)";
  let loops = loops c in
  let config = c.machine ~latency:6 in
  let capacity = 32 in
  Printf.printf "%-18s %10s %12s %10s %8s\n" "victim" "rel.perf" "density" "spills" "unfit";
  List.iter
    (fun (name, victim) ->
      let ideal = ref 0.0 and achieved = ref 0.0 in
      let num = ref 0.0 and den = ref 0.0 in
      let spills = ref 0 and unfit = ref 0 in
      let bandwidth = float_of_int (Config.memory_bandwidth config) in
      let compiled =
        map c
          ~f:(fun l ->
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

let run_mve c =
  banner "Extension: rotating register file vs modulo variable expansion";
  let loops = loops c in
  let config = c.machine ~latency:6 in
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

let run_doubling c =
  banner "Extension: NCDRF with R registers vs doubling to a 2R unified file";
  let loops = loops c in
  Printf.printf "%-10s %22s %22s\n" "config" "swapped dual @ R" "unified @ 2R";
  List.iter
    (fun latency ->
      List.iter
        (fun r ->
          let config = c.machine ~latency in
          let dual = performance c ~config ~model:Model.Swapped ~capacity:r loops in
          let doubled = performance c ~config ~model:Model.Unified ~capacity:(2 * r) loops in
          Printf.printf "L=%d,R=%-4d %22.3f %22.3f%s\n%!" latency r
            dual.Suite_stats.relative doubled.Suite_stats.relative
            (if dual.Suite_stats.relative >= doubled.Suite_stats.relative -. 0.005 then
               "   (as effective)"
             else ""))
        [ 16; 32 ])
    [ 3; 6 ]

let run_memory c =
  banner "Extension: banked-memory back-pressure (completing Figure 9's argument)";
  let loops = loops c in
  let config = c.machine ~latency:6 in
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
        map c
          ~f:(fun l ->
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

let run_fission c =
  banner "Extension: all three pressure-reduction options of Section 5.4";
  let loops = loops c in
  let config = c.machine ~latency:6 in
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

let run_cost c =
  banner "Hardware cost (paper Section 3.2 models): area / access time / operand bits";
  let config = c.machine ~latency:6 in
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

let run_sacks c =
  banner "Extension: sacked register files (CONPAR'94) vs NCDRF on the same schedules";
  let loops = loops c in
  let config = c.machine ~latency:6 in
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

let run_lifetime_postpass c =
  banner "Extension: lifetime-sensitive post-pass (push every op as late as possible)";
  let loops = loops c in
  List.iter
    (fun latency ->
      let config = c.machine ~latency in
      let base = ref 0 and pushed = ref 0 in
      List.iter
        (fun l ->
          let sched = Artifact.raw_schedule ~config l.Suite_stats.ddg in
          base := !base + Requirements.unified sched;
          let adjusted =
            snd (Modulo.schedule_late ~late:(fun _ -> true) ~min_ii:1 config l.Suite_stats.ddg)
          in
          pushed := !pushed + Requirements.unified adjusted)
        loops;
      Printf.printf "latency %d: unified registers %d -> %d (%.1f%% saved), same II\n%!"
        latency !base !pushed
        (100.0 *. float_of_int (!base - !pushed) /. float_of_int !base))
    [ 3; 6 ]

let run_cluster_sweep c =
  banner "Extension: k-cluster NCDRF sweep (cluster count x subfile port budget)";
  let loops = loops c in
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
      let ms = measure c ~config ~model:Model.Swapped loops in
      let static, dynamic = Suite_stats.allocatable ms ~r:capacity in
      let perf = performance c ~config ~model:Model.Swapped ~capacity loops in
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
  emit_csv c "cluster-sweep"
    ([ "clusters"; "read_ports"; "write_ports"; "allocatable_pct"; "dynamic_pct";
       "rel_perf"; "density"; "spills"; "unfit"; "exec_ipc"; "port_stalls" ]
     :: List.rev !rows)


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
    ("mve", run_mve);
    ("doubling", run_doubling);
    ("memory", run_memory);
    ("fission", run_fission);
    ("cost", run_cost);
    ("sacks", run_sacks);
    ("lifetime-postpass", run_lifetime_postpass);
    ("cluster-sweep", run_cluster_sweep);
  ]

let names = List.map fst experiments

let create ~pool ~failures ~timeout_s ~machine ~csv_dir suite =
  let rec c =
    { pool; failures; timeout_s; machine; csv_dir; suite; grid = lazy (performance_grid c) }
  in
  c

(* One experiment under --metrics.  The suite is built outside the
   timed region, and the artifact cache and telemetry are reset before
   it, so the experiment's hit/miss counters and span counts describe
   the sharing within that experiment, not leftovers from the previous
   one. *)
let timed c name f =
  ignore (loops c);
  Artifact.clear_cache ();
  Telemetry.reset ();
  let t0 = Telemetry.now () in
  f c;
  let wall_s = Telemetry.now () -. t0 in
  let points = Telemetry.counter "pipeline.loops" in
  Json.Obj
    [
      ("name", Json.String name);
      ("wall_s", Json.Float wall_s);
      ("loops", Json.Int points);
      ( "loops_per_sec",
        if wall_s > 0.0 then Json.Float (float_of_int points /. wall_s) else Json.Null );
      ("stages", Telemetry.spans_json ());
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Telemetry.counters ())) );
    ]

let run c ~metrics ~size ~seed names =
  let t0 = Telemetry.now () in
  let reports = ref [] in
  let run_one name =
    let f = List.assoc name experiments in
    (* Ledger records carry the experiment name, with or without
       --metrics. *)
    Ledger.set_label name;
    match metrics with
    | None -> f c
    | Some _ -> reports := timed c name f :: !reports
  in
  (* A run that aborts still reports the experiments that finished
     before re-raising. *)
  let stopped =
    match List.iter run_one names with
    | () -> None
    | exception ((Failures.Abort _ | Ncdrf_error.Error.Error _) as e) -> Some e
  in
  let total_wall_s = Telemetry.now () -. t0 in
  print_string
    (Ncdrf_server.Protocol.render_failure_summary (Failures.list c.failures));
  Option.iter
    (fun path ->
      Telemetry.write_json ~path
        (Json.Obj
           ([
              ("schema", Json.String "ncdrf-bench-metrics/1");
              ("jobs", Json.Int (Pool.jobs c.pool));
              ("recommended_jobs", Json.Int (Pool.default_jobs ()));
              ("suite_size", Json.Int size);
              ("suite_seed", Json.Int seed);
              ("total_wall_s", Json.Float total_wall_s);
              ("experiments", Json.List (List.rev !reports));
            ]
           @
           if Failures.count c.failures = 0 then []
           else [ ("failures", Failures.to_json c.failures) ]));
      Printf.printf "\n[metrics: %s]\n%!" path)
    metrics;
  Option.iter raise stopped
