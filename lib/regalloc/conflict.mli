(** Precomputed pairwise conflict structure for cyclic allocation.

    For values [v] and [w] of a modulo schedule with initiation interval
    [ii], the residue window of iteration shifts at which their
    instances overlap — [(d_min, d_max)] with [width = d_max - d_min + 1]
    — depends only on the two lifetimes and [ii], {e not} on the file
    capacity.  A conflict table therefore computes every pair's window
    once and serves all capacities probed by {!Alloc.min_capacity} and
    every search of one requirement computation (the joint, per-cluster,
    global and local searches share the caller's tables).

    Placed at register [rj], neighbour [j] of value [i] forbids exactly
    the [width] residues [(rj + d_min(j→i)) mod capacity + [0, width)]
    — an O(width) marking instead of an O(placed) scan per candidate
    register.  Pairs whose window is empty ([width <= 0]) never conflict
    at any capacity and are not stored; a pair with
    [width >= capacity] conflicts at {e every} register distance.

    Tables are immutable after construction (bar the atomic pass
    counter of {!note_pass}) and safe to share across domains.  There is
    no cross-call memo: a table lives as long as the allocation problem
    that built it. *)

type t

(** [shift_window ~ii v w] is the window [(d_min, d_max)] of shifts [d]
    such that instance [k + d] of [v] overlaps instance [k] of [w].
    Antisymmetric: the window of [(w, v)] is [(-d_max, -d_min)]. *)
val shift_window : ii:int -> Lifetime.t -> Lifetime.t -> int * int

(** Positive remainder: [pos_mod a m] is in [[0, m)] for [m > 0]. *)
val pos_mod : int -> int -> int

(** Build a table for the lifetimes, in the given (significant) order:
    index [i] of the table is element [i] of the list.  O(n²) window
    computations, done once.  Bumps the [alloc.pairs] counter by the
    number of stored (non-empty-window) pairs. *)
val make : ii:int -> Lifetime.t list -> t

val ii : t -> int

(** Number of lifetimes in the table. *)
val size : t -> int

(** The lifetime at an index. *)
val lifetime : t -> int -> Lifetime.t

(** [min_registers t i] is [Lifetime.min_registers] of lifetime [i],
    precomputed. *)
val min_registers : t -> int -> int

(** [neighbours t i] is a flat stride-3 array of triples
    [(j, d_min(j→i), width)]: for neighbour [j] placed at [rj], value
    [i] is forbidden the residues [(rj + d_min(j→i)) + [0, width)] mod
    capacity.  Only pairs with [width >= 1] appear.  Do not mutate. *)
val neighbours : t -> int -> int array

(** Largest pair width in the table: any capacity [<= max_width] is
    infeasible for a set that includes both members of a widest pair.
    0 when no pair conflicts. *)
val max_width : t -> int

(** Record the start of an allocation pass over [t].  Every pass after
    the first bumps the [alloc.table_reuse] counter: reuse across the
    capacity probes and searches of one allocation problem is the
    engine's win. *)
val note_pass : t -> unit
