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

(** A cluster assignment's occupancy of the subfiles, over the values
    of an {!analysis}: each value counted in every subfile that holds
    it, one live-instance row per cluster over the kernel slots, the
    same accumulation as {!Lifetime.max_live}.  The swap pass keeps one
    up to date across its exchanges. *)
type occupancy = {
  members : int array;
      (** value index -> the clusters whose subfiles hold it, as a bit
          set (bit [c] for cluster [c]): its consumers' clusters, its
          producer's when it has none.  Two or more bits make it
          replicated. *)
  whole : int array;  (** per cluster: instances live at every slot *)
  rows : int array array;
      (** per cluster and kernel slot: the instances live there beyond
          [whole] *)
  peaks : int array;  (** per cluster: its MaxLive, [whole] plus its row's maximum *)
}

(** The part of a register-requirement computation that depends only
    on a schedule's cycles: every value's lifetime, its consumers, the
    longest and summed register needs of the values, and one conflict
    table over all values.  Swapping moves no cycle, so one analysis
    serves the Unified, Partitioned and Swapped views of a schedule
    and every schedule {!Swap.improve} derives from it; a view adds only
    each value's cluster set under its assignment.  The occupancy of
    the analysed schedule's own assignment is computed once, for both
    the Partitioned requirement's bound and the swap pass's start.

    The conflict table and the occupancy are built on first use.  An
    analysis holds mutable allocation scratch: use it from one domain
    at a time. *)
type analysis = private {
  sched : Schedule.t;  (** the analysed schedule *)
  ii : int;
  num_clusters : int;
  value_of : int array;  (** node id -> value index, -1 for a store *)
  producer : int array;  (** value index -> node id *)
  start : int array;  (** value index -> issue cycle of its producer *)
  stop : int array;  (** value index -> cycle its last consumer finishes *)
  consumer_start : int array;
      (** node [v]'s flow consumers are
          [consumers.(consumer_start.(v) .. consumer_start.(v + 1) - 1)],
          in [Ddg.consumers] order *)
  consumers : int array;
  longest : int;  (** the most registers one value needs, at least 1 *)
  total : int;  (** the registers the values need, summed *)
  occupancy : occupancy Lazy.t;  (** of [sched]'s assignment *)
  table : Conflict.t Lazy.t;  (** all values, by value index *)
  scratch : Alloc.scratch Lazy.t;
  orders : int array array;
      (** sorted value indices per {!Alloc.order}, filled by {!sorted} *)
}

(** The analysis of a schedule's cycles.  Values are indexed in node
    order, as {!Lifetime.of_schedule} lists them. *)
val analyse : Schedule.t -> analysis

(** [occupancy_of a sched] is the occupancy of [sched]'s assignment, for
    any [sched] with the cycles [a] was built from: [a.occupancy] when
    [sched] is the analysed schedule itself, computed otherwise.  Do not
    mutate it.

    @raise Invalid_argument if [sched] is of another graph or II. *)
val occupancy_of : analysis -> Schedule.t -> occupancy

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

(** [requirement_of a occ] is [(partitioned_of a sched).requirement]
    for the schedule whose assignment has occupancy [occ]: the joint
    search alone, its lower bound read off [occ.peaks] and [a.longest].
    It allocates nothing beyond what the analysis builds on first use. *)
val requirement_of : analysis -> occupancy -> int

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
