(** Greedy post-scheduling operation swapping (paper Sections 4.1 and
    5.2).

    Two operations can swap clusters when they use the same kind of
    functional unit and occupy the same kernel cycle (the same slot
    modulo II), which keeps the schedule resource-valid by symmetry.
    Swapping aims to (1) turn global values into locals and (2) balance
    the two subfiles.

    The algorithm is the paper's: repeatedly pick the candidate pair
    whose swap yields the largest reduction of the register estimate —
    the per-cluster MaxLive lower bound, because running the full
    allocator inside the search loop would be too costly — and stop when
    no pair improves it; ties go to the first pair in candidate order.
    {!improve_exact} runs the same descent under full allocation, for
    the swap-estimate ablation only.

    The MaxLive estimate is maintained incrementally.  Lifetimes depend
    only on cycles, which an exchange does not move, so they are read
    once per call from the schedule's {!Requirements.analysis}, and the
    per-cluster live counts per kernel slot start from its
    {!Requirements.occupancy}.  A pair is scored by moving only the
    values whose subfiles can change — the two operations' own values
    and the values they consume — and moving them back.  Candidates are recomputed after every
    accepted swap: when more than two operations share a (class, slot)
    bucket, an exchange changes which pairs sit on different clusters. *)

open Ncdrf_sched

type stats = {
  swaps : int;  (** swaps applied *)
  initial_cost : int;  (** estimate before the pass *)
  final_cost : int;  (** estimate after the pass *)
}

(** All swappable pairs of the schedule: distinct clusters, same
    functional-unit class, same kernel slot, in ascending [(a, b)]
    order with [a < b]. *)
val candidates : Schedule.t -> (int * int) list

(** Run the greedy pass under the MaxLive estimate.  Single-cluster
    schedules are returned unchanged, and so is a schedule no swap
    improves (the same value, physically).  [max_passes] (default
    [1000]) bounds the loop; the estimate strictly decreases each swap,
    so it rarely binds. *)
val improve : ?max_passes:int -> Schedule.t -> Schedule.t * stats

(** [improve_occupancy a sched] is {!improve} [sched] with lifetimes and
    consumers read from [a], which must be [Requirements.analyse] of a
    schedule with [sched]'s cycles, plus the occupancy of the returned
    schedule's assignment, which the pass keeps up to date as it swaps:
    {!Requirements.requirement_of} reads its bound from it.  Do not
    mutate it: on a single-cluster machine it is the analysis's own. *)
val improve_occupancy :
  ?max_passes:int ->
  Requirements.analysis ->
  Schedule.t ->
  Schedule.t * stats * Requirements.occupancy

(** {!improve} with each candidate scored by the Partitioned
    requirement, a full joint allocation of the swapped schedule, in
    place of the MaxLive estimate; [stats] costs are requirements.  The
    swap-estimate ablation's comparison, slower by a joint search per
    candidate. *)
val improve_exact : Schedule.t -> Schedule.t * stats
