(* Execution demo: actually RUN a software-pipelined loop on the
   simulated machine — rotating register files, cycle-accurate issue and
   completion, dual subfiles with global/local write policies — and
   check the results against the sequential reference interpreter.

     dune exec examples/simulate.exe [-- --kernel fft-butterfly --iterations 25] *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
open Ncdrf_sim

let arg name default =
  let rec scan = function
    | flag :: v :: _ when flag = "--" ^ name -> v
    | _ :: rest -> scan rest
    | [] -> default
  in
  scan (Array.to_list Sys.argv)

let () =
  let kernel = arg "kernel" "ll5-tridiag" in
  let iterations = int_of_string (arg "iterations" "24") in
  let ddg =
    match Ncdrf_workloads.Kernels.find kernel with
    | Some g -> g
    | None ->
      Printf.eprintf "unknown kernel %s\n" kernel;
      exit 2
  in
  let config = Config.dual ~latency:3 in
  let sched = Modulo.schedule config ddg in
  Format.printf "%a on %a: II=%d, %d stages@.@." Ddg.pp_stats ddg Config.pp config
    (Schedule.ii sched) (Schedule.stages sched);
  print_string (Chart.render sched);
  Format.printf "@.";

  let expected = Reference.run ~iterations ddg in
  let show tag outcome =
    Format.printf
      "%-10s %3d registers/file, %4d cycles for %d iterations, %d checked register reads@."
      tag outcome.Executor.capacity outcome.Executor.cycles iterations
      outcome.Executor.register_reads;
    if Reference.equal_stores outcome.Executor.stores expected then
      Format.printf "%-10s results match the sequential reference exactly@." ""
    else begin
      Format.printf "%-10s RESULTS DIVERGE from the reference!@." "";
      exit 1
    end
  in
  show "unified" (Executor.run_unified ~iterations sched);
  show "dual" (Executor.run_clustered ~iterations sched);
  let swapped, stats = Swap.improve sched in
  Format.printf "@.after %d swap(s):@." stats.Swap.swaps;
  show "swapped" (Executor.run_clustered ~iterations swapped);
  Format.printf "@.first stores computed by the pipeline:@.";
  List.iteri
    (fun i e ->
      if i < 6 then
        Format.printf "  %s[%d] = %+.6f@." e.Reference.array e.Reference.iteration
          e.Reference.value)
    expected
