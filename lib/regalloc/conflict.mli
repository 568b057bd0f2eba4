(** Per-value bounds for cyclic allocation.

    For values [v] and [w] of a modulo schedule with initiation interval
    [ii], the residue window of iteration shifts at which their
    instances overlap — [(d_min, d_max)] with [width = d_max - d_min + 1]
    — depends only on the two lifetimes and [ii], {e not} on the file
    capacity.  A table keeps each value's start and stop as quotient
    and remainder by [ii] ({!bounds}), from which a pair's window takes
    no division, and serves every capacity probed and every search over
    one schedule's cycles (index subsets of one table).

    Placed at register [rj], value [j] forbids value [i] exactly the
    [width] residues [(rj + d_min(j→i)) mod capacity + [0, width)].
    Pairs with an empty window ([width <= 0]) never conflict; a pair
    with [width >= capacity] conflicts at {e every} register distance.

    Construction is one O(n²) pass with no scratch.  Tables are
    immutable and safe to share across domains; there is no cross-call
    memo. *)

type t

(** [shift_window ~ii v w] is the window [(d_min, d_max)] of shifts [d]
    such that instance [k + d] of [v] overlaps instance [k] of [w].
    Antisymmetric: the window of [(w, v)] is [(-d_max, -d_min)]. *)
val shift_window : ii:int -> Lifetime.t -> Lifetime.t -> int * int

(** Positive remainder: [pos_mod a m] is in [[0, m)] for [m > 0]. *)
val pos_mod : int -> int -> int

(** [borrow words] is an int array of at least [words] elements with
    arbitrary contents: the calling domain's scratch, taken out of its
    cell, or a fresh array when the cell is empty or too small.  The
    allocation searches take their temporaries from it so that they do
    not allocate per call.  Hand it back with {!give_back}; a borrow
    that is never handed back (an exception) only costs the next
    borrow an allocation. *)
val borrow : int -> int array

(** Put a borrowed array back in the calling domain's cell (arrays
    over 2{^17} words are left to the GC).  Do not use it afterwards. *)
val give_back : int array -> unit

(** Build a table for the lifetimes, in the given (significant) order:
    index [i] of the table is element [i] of the list.  Bumps the
    [alloc.pairs] counter by the number of pairs with a non-empty
    window. *)
val make : ii:int -> Lifetime.t list -> t

(** {!make} over flat arrays: index [i] is the lifetime of node
    [producer.(i)] from [start.(i)] to [stop.(i)].  The arrays are
    shared with the table, not copied; do not mutate them. *)
val create : ii:int -> producer:int array -> start:int array -> stop:int array -> t

val ii : t -> int

(** Number of lifetimes in the table. *)
val size : t -> int

(** The lifetime at an index (a fresh record). *)
val lifetime : t -> int -> Lifetime.t

(** The fields of {!lifetime}, without building the record. *)
val producer : t -> int -> int

val start : t -> int -> int
val stop : t -> int -> int

(** [min_registers t i] is [Lifetime.min_registers] of lifetime [i],
    precomputed. *)
val min_registers : t -> int -> int

(** Four ints per table index [i]: at [4 * i] the quotient and
    remainder of [start t i] by [ii] (floor division), at [4 * i + 2]
    those of [stop t i].  The window of [(j→i)] is
    [d_min = qs_i - qe_j + (if rs_i < re_j then 0 else 1)],
    [d_max = qe_i - qs_j - (if re_i > rs_j then 0 else 1)], empty when
    [d_max < d_min].  Do not mutate. *)
val bounds : t -> int array

(** The width of a pair's window, at most 0 when it is empty. *)
val width : t -> int -> int -> int

(** Largest pair width in the table: any capacity [<= max_width] is
    infeasible for a set that includes both members of a widest pair.
    0 when no pair conflicts. *)
val max_width : t -> int
