(* The steepest-descent swap loop as it stood before [Swap.improve]
   scored candidates incrementally, kept verbatim as the test oracle:
   every pass copies the schedule once per candidate pair and recomputes
   the estimate from scratch. *)

open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core

(* The estimates the descent can minimise: [Swap.improve]'s and
   [Swap.improve_exact]'s. *)
type estimate =
  | Max_live
  | Exact

let cost ~estimate sched =
  match estimate with
  | Max_live -> Requirements.max_live_cost sched
  | Exact -> (Requirements.partitioned sched).Requirements.requirement

let improve ?(estimate = Max_live) ?(max_passes = 1000) sched =
  if Config.num_clusters sched.Schedule.config < 2 then
    ( sched,
      {
        Swap.swaps = 0;
        initial_cost = cost ~estimate sched;
        final_cost = cost ~estimate sched;
      } )
  else begin
    let initial_cost = cost ~estimate sched in
    let rec loop sched current swaps passes =
      if passes >= max_passes then (sched, current, swaps)
      else begin
        let best =
          List.fold_left
            (fun acc (a, b) ->
              let swapped = Schedule.swap_clusters sched a b in
              let c = cost ~estimate swapped in
              match acc with
              | Some (_, best_cost) when best_cost <= c -> acc
              | Some _ | None -> if c < current then Some (swapped, c) else acc)
            None (Swap.candidates sched)
        in
        match best with
        | Some (swapped, c) -> loop swapped c (swaps + 1) (passes + 1)
        | None -> (sched, current, swaps)
      end
    in
    let sched, final_cost, swaps = loop sched initial_cost 0 0 in
    (sched, { Swap.swaps; initial_cost; final_cost })
  end
