(** Register allocation for modulo-scheduled loops on a rotating
    register file.

    With a rotating file of [capacity] registers, the instance of value
    [v] born in iteration [k] occupies physical register
    [(reg v + k) mod capacity] for [length v] cycles from its birth at
    [start v + k * ii].  Allocation therefore assigns each value a
    {e virtual} register so that no two live instances share a physical
    register; conflicts are modular: values [v] at [rv] and [w] at [rw]
    collide iff [(rw - rv) mod capacity] falls inside a residue window
    derived from how their lifetimes overlap when shifted by multiples
    of [ii].

    The paper allocates with the {e Wands-Only} strategy (process values
    by start time) and the {e First-Fit} schema (smallest conflict-free
    register), citing Rau et al. 1992, and so does every placement here:
    Best-Fit and End-Fit measured more registers (EXPERIMENTS.md,
    ablations).  Alternative orderings are provided for the ordering
    ablation ({!min_capacity} [~order]). *)

type order =
  | Start_time  (** Wands-Only order (the paper's choice) *)
  | Longest_first
  | Node_order

type placement = {
  value : Lifetime.t;
  register : int;
}

(** [conflict ~ii ~capacity (v, rv) (w, rw)] decides whether the two
    allocations collide in some steady-state cycle. *)
val conflict :
  ii:int -> capacity:int -> Lifetime.t * int -> Lifetime.t * int -> bool

(** [allocate ~ii ~capacity lifetimes] places every lifetime First-Fit
    in start-time order, returning the placements in that order.  [None]
    if some value cannot be placed within [capacity].  Pre-placed values
    (the globals shared by the subfiles of a non-consistent register
    file) go through a {!scratch}'s {!registers} instead. *)
val allocate : ii:int -> capacity:int -> Lifetime.t list -> placement list option

(** Smallest capacity at which First-Fit in [order] (default
    [Start_time], as {!allocate}) places every value, searched upward
    from the [max_live]/longest-value lower bound.  0 for an empty value
    list.  [upper] caps the search (default: twice the values' summed
    {!Lifetime.min_registers}, plus 64).

    @raise Ncdrf_error.Error.Error with category [Alloc_infeasible] and
    the capacity range searched if no capacity up to [upper] works
    (never happens with the default bound — property-tested; reachable
    by passing a small [upper]). *)
val min_capacity : ?order:order -> ?upper:int -> ii:int -> Lifetime.t list -> int

(** {2 Flat allocation over one table}

    The calls the register-requirement searches make: one {!scratch}
    per table, indices sorted once with {!sorted}, and a {!place} pass
    per capacity probe that allocates nothing. *)

(** [sorted ~order table indices] is a copy of [indices] in placement
    order (default [Start_time]).  Every order breaks ties by producer
    node, so over the values of one schedule the order is total:
    filtering a sorted array to a subset gives that subset sorted. *)
val sorted : ?order:order -> Conflict.t -> int array -> int array

(** The mutable state of passes over one table: the register of every
    table index (-1 when unplaced), the placed indices and the occupancy
    marks.  Not safe to share across domains. *)
type scratch

val scratch : Conflict.t -> scratch

(** The register of every table index, -1 when unplaced.  {!place}
    honours every register set here; callers set and clear entries to
    choose which values count as already placed. *)
val registers : scratch -> int array

(** Set every register of the scratch to -1. *)
val unassign_all : scratch -> unit

(** [place table s ~capacity ordered ~pos ~len] places the values
    [ordered.(pos) .. ordered.(pos + len - 1)], in that order, each in
    the lowest register free of conflicts with the registers already in
    [s] (First-Fit), writing each one's register into [registers s].
    [false] as soon as one does not fit (the values placed before it
    keep their registers); [true] when [len = 0].  Placing a value
    walks only the values already placed.  Allocates nothing.  Work is
    counted in [s] until {!flush}.

    @raise Invalid_argument if a value to place already holds a
    register. *)
val place :
  Conflict.t ->
  scratch ->
  capacity:int ->
  int array ->
  pos:int ->
  len:int ->
  bool

(** Add the work counted since the last flush to [alloc.probes]
    (placed values with a non-empty window against the value being
    placed) and [alloc.table_reuse] (passes after the scratch's
    first). *)
val flush : scratch -> unit

(** Smallest capacity at which {!place} fits [ordered] (already in
    placement order) on an empty scratch, searched upward from
    [max floor lower], where [lower] is the values' MaxLive and longest
    value and [floor] (default: computed) is one more than the widest
    pair among them.  0 for an empty array; [upper] as for
    {!min_capacity}.

    @raise Ncdrf_error.Error.Error as {!min_capacity}. *)
val min_capacity_sorted :
  ?upper:int -> ?floor:int -> Conflict.t -> scratch -> int array -> int

(** Exhaustive check that a set of placements is conflict-free —
    [Ok ()] or a message naming the colliding pair.  Test helper. *)
val check : ii:int -> capacity:int -> placement list -> (unit, string) result
