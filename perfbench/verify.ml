(* Output verification outside the timed region: execute a final
   schedule on the cycle-accurate executor and compare its array stores
   with the reference interpreter run on the original graph. *)

open Ncdrf_core
module Executor = Ncdrf_sim.Executor
module Reference = Ncdrf_sim.Reference

let iterations = 8

type tally = {
  mutable points : int;
  mutable diverged : int;
  mutable seconds : float;
}

let tally () = { points = 0; diverged = 0; seconds = 0.0 }

(* The reference stores of each original graph, computed once per loop
   however many models and capacities verify against it. *)
let reference_of () =
  let memo = Hashtbl.create 1024 in
  fun ddg ->
    let key = Ncdrf_ir.Ddg.digest ddg in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r = Reference.run ~iterations ddg in
      Hashtbl.add memo key r;
      r

let point t ~reference ~model ~original sched =
  let t0 = Samples.now () in
  let ok =
    match
      match model with
      | Model.Ideal | Model.Unified -> Executor.run_unified ~iterations sched
      | Model.Partitioned | Model.Swapped -> Executor.run_clustered ~iterations sched
    with
    | o -> Reference.equal_stores o.Executor.stores (reference original)
    | exception (Executor.Corrupted _ | Ncdrf_error.Error.Error _) -> false
  in
  t.points <- t.points + 1;
  if not ok then t.diverged <- t.diverged + 1;
  t.seconds <- t.seconds +. (Samples.now () -. t0)

let share t = if t.points = 0 then 0.0 else float_of_int t.diverged /. float_of_int t.points

let report t =
  Samples.addi "verify.points" "count" t.points;
  Samples.addi "verify.diverged" "count" t.diverged;
  Samples.add "verify_s" "s" t.seconds
