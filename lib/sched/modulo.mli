(** Iterative Modulo Scheduling (Rau, MICRO-27 flavour).

    Operations are scheduled highest-priority first (priority = height,
    the longest dependence path to any sink at the candidate II; ties
    go to the lower node id).  Each
    operation searches the [II]-wide window starting at its earliest
    dependence-feasible cycle, earliest cycle first, for a free resource
    slot, taking the cluster with the most free units of its class; if
    none exists it is force-placed and conflicting operations are
    ejected and rescheduled.  A budget bounds the total number of
    placements; on exhaustion the II is increased and scheduling
    restarts.

    The scheduler aims at maximum performance (minimum II) and ignores
    register pressure, as in the paper (Section 5.3): it balances
    clusters, places as soon as possible, and leaves cluster
    assignments to the swap pass ([Swap.improve]).  Register-aware
    placement (an affinity cluster choice, Huff-style bidirectional
    placement) lies outside the paper's scheduler; EXPERIMENTS.md
    records what it measured. *)

open Ncdrf_ir
open Ncdrf_machine

(** [schedule config ddg] returns a normalized valid schedule.

    [budget_ratio] (default 8) bounds placements per attempt at
    [budget_ratio * num_nodes]; [max_ii_slack] (default 128) bounds the
    II search above MII.  Wall-clock limits come from the ambient
    {!Ncdrf_error.Deadline} tokens, polled once per II attempt.

    All failures raise the classified [Ncdrf_error.Error.Error]:
    [Schedule_infeasible] when no II up to [mii + max_ii_slack] admits a
    schedule or a unit class has zero capacity (does not happen for
    valid graphs with sane bounds); [Deadline_exceeded] or [Canceled]
    when an installed token fires; [Invalid_graph] if the graph fails
    {!Ddg.validate}. *)
val schedule : ?budget_ratio:int -> ?max_ii_slack:int -> Config.t -> Ddg.t -> Schedule.t

(** Like {!schedule} but starting the II search at
    [max mii min_ii] — used to force larger IIs (e.g. the paper's
    "reschedule with increased II" alternative to spilling). *)
val schedule_with_min_ii :
  ?budget_ratio:int ->
  ?max_ii_slack:int ->
  min_ii:int ->
  Config.t ->
  Ddg.t ->
  Schedule.t

(** [schedule_with_mii config ddg] is [(Mii.mii config ddg, schedule
    config ddg)] from one flattening of the graph: the MII is the bound
    the II search started from, not a second computation. *)
val schedule_with_mii : Config.t -> Ddg.t -> int * Schedule.t

(** [schedule_late ~late ~min_ii config ddg] is
    [schedule_with_min_ii ~min_ii config ddg] followed by a push-late
    pass: every operation whose opcode satisfies [late] and that has a
    successor moves to the latest cycle its successors and a free
    resource slot allow (latest operations first, so chained ones
    cascade down); the others keep their placement, and the II is
    unchanged.  The pass runs on the II search's own placement and
    reservation table, before the schedule is normalized.  The spiller
    pushes its spill loads down this way
    ([Spiller.schedule_once]): placed as early as
    possible, a reload would keep its value live from just after the
    store to its consumer and defeat the spill. *)
val schedule_late :
  late:(Opcode.t -> bool) -> min_ii:int -> Config.t -> Ddg.t -> Schedule.t
