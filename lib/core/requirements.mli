(** Register requirements of a schedule under the register-file models.

    For the non-consistent clustered register file, each replicated
    value occupies the {e same} register index in every subfile that
    holds it (on a two-cluster machine every replicated value is global
    and written to both subfiles, exactly like a consistent dual file
    would), while local values use the remaining registers of their
    cluster's subfile.  A loop is allocatable with subfiles of [R]
    registers iff the replicated values plus each cluster's locals can
    be jointly allocated within [R].  At [k > 2] clusters a value
    consumed by a proper subset of the clusters ([Classify.Shared]) is
    replicated only in those subfiles. *)

open Ncdrf_regalloc
open Ncdrf_sched

(** Only [requirement] is computed by {!partitioned}; the breakdown
    fields are computed on first force ([Lazy.force]), so a caller that
    reads [requirement] alone pays one joint search.  A [detail] must
    not be forced from two domains at once (OCaml 5 lazy values raise
    [CamlinternalLazy.Undefined] on a concurrent force); force it on
    the domain that built it. *)
type detail = {
  requirement : int;  (** registers per subfile: max over clusters *)
  cluster_requirements : int array Lazy.t;
      (** smallest capacity at which the replicated values that
          cluster holds, then its locals, allocate, taken per cluster in
          isolation.  At [k = 2] every cluster holds all the globals,
          placed the same way as in the joint search, so [requirement]
          is at least the max of these.  At [k >= 3] a cluster in
          isolation places only its own replicated subset, and First-Fit
          can need more registers for it than the joint placement does,
          so a cluster's entry may exceed [requirement]. *)
  global_requirement : int Lazy.t;  (** replicated values allocated alone *)
  local_requirements : int array Lazy.t;  (** each cluster's locals alone *)
  max_live : int array Lazy.t;  (** per-cluster MaxLive lower bound *)
}

(** The part of a register-requirement computation that depends only
    on a schedule's cycles: every value's lifetime, its consumers and
    one conflict table over all values.  Swapping moves no cycle, so one
    analysis serves the Unified, Partitioned and Swapped views of a
    schedule and every schedule {!Swap.improve} derives from it; a view
    adds only each value's cluster set under its assignment.

    The conflict table is built on first use.  An analysis holds
    mutable allocation scratch: use it from one domain at a time. *)
type analysis = private {
  ddg : Ncdrf_ir.Ddg.t;
  ii : int;
  num_clusters : int;
  value_of : int array;  (** node id -> value index, -1 for a store *)
  start : int array;  (** value index -> issue cycle of its producer *)
  stop : int array;  (** value index -> cycle its last consumer finishes *)
  consumer_start : int array;
      (** node [v]'s flow consumers are
          [consumers.(consumer_start.(v) .. consumer_start.(v + 1) - 1)],
          in [Ddg.consumers] order *)
  consumers : int array;
  table : Conflict.t Lazy.t;  (** all values, by value index *)
  scratch : Alloc.scratch Lazy.t;
  mutable orders : (Alloc.order * int array) list;  (** sorted value indices *)
}

(** The analysis of a schedule's cycles.  Values are indexed in node
    order, as {!Lifetime.of_schedule} lists them. *)
val analyse : Schedule.t -> analysis

(** Every value index of the analysis in [order]'s placement order (as
    {!Alloc.sorted} sorts them), computed once per order and kept in
    [orders].  [Start_time] is a counting sort on start cycles. *)
val sorted : analysis -> Alloc.order -> int array

(** Requirement with a unified (or consistent dual) register file:
    smallest capacity allocating all values. *)
val unified : ?strategy:Alloc.strategy -> ?order:Alloc.order -> Schedule.t -> int

(** {!unified} from an analysis of the schedule. *)
val unified_of : ?strategy:Alloc.strategy -> ?order:Alloc.order -> analysis -> int

(** Requirement detail with a non-consistent clustered register file
    under the schedule's current cluster assignment, allocated First-Fit
    in start-time order. *)
val partitioned : Schedule.t -> detail

(** [partitioned_of a sched] is {!partitioned} [sched] for any [sched]
    with the cycles [a] was built from (the analysed schedule or a
    swapped copy of it).

    @raise Invalid_argument if [sched] is of another graph or II. *)
val partitioned_of : analysis -> Schedule.t -> detail

(** Per-cluster MaxLive lower bound, maximised over clusters (each
    replicated value counted in every cluster holding it): the estimate
    the swap pass minimises and the spiller's Partitioned lower bound.
    For a single-cluster machine this is plain MaxLive.  [lifetimes],
    when supplied, must equal [Lifetime.of_schedule sched] — callers
    that already hold the list (the spiller's lower-bound hook) pass it
    to skip the recompute. *)
val max_live_cost : ?lifetimes:Lifetime.t list -> Schedule.t -> int

(** {!max_live_cost} from an analysis of the schedule's cycles. *)
val max_live_cost_of : analysis -> Schedule.t -> int

(** Concrete register assignment for a non-consistent clustered
    register file at the minimal capacity: each replicated value
    occupies the same index in every subfile of its replica set
    (carried alongside the placement), locals their own cluster's.
    Used by the execution simulator. *)
type allocation = {
  capacity : int;  (** registers per subfile *)
  globals : (Alloc.placement * int list) list;
      (** replicated values with their replica clusters *)
  locals : Alloc.placement list array;  (** per cluster *)
}

val partitioned_allocation : Schedule.t -> allocation
