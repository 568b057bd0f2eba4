(** Iterative Modulo Scheduling (Rau, MICRO-27 flavour).

    Operations are scheduled highest-priority first (priority = height,
    the longest dependence path to any sink at the candidate II; ties
    go to the lower node id).  Each
    operation searches the [II]-wide window starting at its earliest
    dependence-feasible cycle for a free resource slot; if none exists
    it is force-placed and conflicting operations are ejected and
    rescheduled.  A budget bounds the total number of placements; on
    exhaustion the II is increased and scheduling restarts.

    The scheduler aims at maximum performance (minimum II) and ignores
    register pressure, as in the paper (Section 5.3). *)

open Ncdrf_ir
open Ncdrf_machine

(** Cluster selection policy.  The paper's scheduler is register-blind
    and balances load ([Balance]); it declines to integrate cluster
    assignment into scheduling because of compiler cost (Section 4.1,
    option 1) and fixes assignments post hoc by swapping.  [Affinity]
    implements that declined option as an extension: prefer the cluster
    where most already-placed dependence neighbours live, localizing
    values at scheduling time. *)
type cluster_policy =
  | Balance
  | Affinity

(** Placement direction within an operation's feasible window.  [Asap]
    is classic IMS (earliest cycle first — the paper's register-blind
    scheduler).  [Bidirectional] is a Huff'93-style lifetime-sensitive
    variant: an operation with more scheduled consumers than producers
    is placed as {e late} as its consumers allow, shrinking the operand
    lifetimes feeding it; others go early.  Same II, usually fewer
    registers (ablation bench [scheduler-policy]). *)
type placement_policy =
  | Asap
  | Bidirectional

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
val schedule :
  ?budget_ratio:int ->
  ?max_ii_slack:int ->
  ?cluster_policy:cluster_policy ->
  ?placement_policy:placement_policy ->
  Config.t ->
  Ddg.t ->
  Schedule.t

(** Like {!schedule} but starting the II search at
    [max mii min_ii] — used to force larger IIs (e.g. the paper's
    "reschedule with increased II" alternative to spilling). *)
val schedule_with_min_ii :
  ?budget_ratio:int ->
  ?max_ii_slack:int ->
  ?cluster_policy:cluster_policy ->
  ?placement_policy:placement_policy ->
  min_ii:int ->
  Config.t ->
  Ddg.t ->
  Schedule.t
