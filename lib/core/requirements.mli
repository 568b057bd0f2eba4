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
      (** smallest capacity at which that cluster's replicated prefix +
          locals allocate, taken per cluster in isolation.  At [k = 2]
          every cluster's prefix is all the globals, placed the same way
          as in the joint search, so [requirement] is at least the max
          of these.  At [k >= 3] a cluster in isolation places only its
          own replicated subset, and First-Fit can need more registers
          for it than the joint placement does, so a cluster's entry may
          exceed [requirement]. *)
  global_requirement : int Lazy.t;  (** replicated values allocated alone *)
  local_requirements : int array Lazy.t;  (** each cluster's locals alone *)
  max_live : int array Lazy.t;  (** per-cluster MaxLive lower bound *)
}

(** Requirement with a unified (or consistent dual) register file:
    smallest capacity allocating all values. *)
val unified : ?strategy:Alloc.strategy -> ?order:Alloc.order -> Schedule.t -> int

(** Requirement detail with a non-consistent clustered register file
    under the schedule's current cluster assignment. *)
val partitioned :
  ?strategy:Alloc.strategy -> ?order:Alloc.order -> Schedule.t -> detail

(** Smallest capacity jointly allocating the globals (one shared
    placement, replicated in every cluster) plus each cluster's locals
    on top of it.  [upper] caps the search (default: a generous
    internal bound).

    @raise Ncdrf_error.Error.Error with category [Alloc_infeasible] and
    the range searched when no capacity up to [upper] is feasible (only
    reachable with a small explicit [upper]). *)
val joint_requirement :
  ?strategy:Alloc.strategy ->
  ?order:Alloc.order ->
  ?upper:int ->
  ii:int ->
  globals:Lifetime.t list ->
  locals:Lifetime.t list array ->
  unit ->
  int

(** Per-cluster MaxLive lower bound (each replicated value counted in
    every cluster holding it); the estimate the swap pass minimises.
    For a single-cluster machine this is plain MaxLive.  [lifetimes],
    when supplied, must equal [Lifetime.of_schedule sched] — callers
    that already hold the list (the spiller's lower-bound hook) pass it
    to skip the recompute. *)
val cluster_max_live : ?lifetimes:Lifetime.t list -> Schedule.t -> int array

(** [max] of {!cluster_max_live} — the scalar swap cost. *)
val max_live_cost : ?lifetimes:Lifetime.t list -> Schedule.t -> int

(** Lifetimes grouped by class: [(replicated, per-cluster locals)].
    [Global] and [Shared] values both land in the first component. *)
val grouped_lifetimes :
  ?lifetimes:Lifetime.t list -> Schedule.t -> Lifetime.t list * Lifetime.t list array

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

val partitioned_allocation :
  ?strategy:Alloc.strategy -> ?order:Alloc.order -> Schedule.t -> allocation
