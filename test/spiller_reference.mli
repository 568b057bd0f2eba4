(** The pre-optimization iterative spiller, kept verbatim as the
    behavioural oracle for {!Spiller}.

    [Spiller.run ~ii_floor:false] must produce outcomes byte-identical
    to this module's (same schedules, same graphs, same counters, same
    errors); test/test_spill.ml pins the equivalence with qcheck over
    random graphs and a fixed-seed digest over a spill-heavy slice.  The
    default [Spiller.run], II floor on, may diverge (seed 14923 in
    test_spill.ml is one such graph).  This mirrors the [Alloc_reference]
    pattern: the optimized path is free to get faster, never to drift.

    Do not modify this module except to track signature changes of the
    modules it calls. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_spill

type victim = Spiller.victim =
  | Longest_lifetime
  | Best_ratio
  | Fewest_consumers

type outcome = Spiller.outcome = {
  schedule : Schedule.t;
  raw_schedule : Schedule.t;
  ddg : Ddg.t;
  requirement : int;
  fits : bool;
  spilled : int;
  added_memops : int;
  ii_bumps : int;
  rounds : int;
  error : Ncdrf_error.Error.t option;
}

val next_spill_slot : Ddg.t -> int

(** The spill rewrite through {!Transform_reference.transform}: the
    oracle of [Ddg.spill]. *)
val spill_value : Ddg.t -> slot:int -> int -> Ddg.t

(** Identical contract to [Spiller.run ~ii_floor:false]; see that
    module's documentation. *)
val run :
  config:Config.t ->
  requirement:(Schedule.t -> Schedule.t * int) ->
  capacity:int ->
  ?victim:victim ->
  ?schedule:(min_ii:int -> Ddg.t -> Schedule.t) ->
  ?max_rounds:int ->
  ?max_ii_bumps:int ->
  Ddg.t ->
  outcome
