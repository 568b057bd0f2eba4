(** The original list-based cyclic allocator, kept verbatim as the
    oracle for the conflict-engine rewrite of {!Alloc}.

    Every function re-derives conflicts from scratch — [allocate] checks
    each candidate register against an [acc @ placed] list rebuilt per
    placement, and [min_capacity] restarts the whole allocation at every
    probed capacity.  That [O(n² · capacity)] behaviour is exactly what
    {!Alloc} now avoids; the equivalence tests in [test_conflict.ml]
    pin the rewrite to this implementation placement-by-placement.

    Types are shared with {!Alloc} so results compare structurally. *)

open Ncdrf_regalloc

(** Same placement semantics as {!Alloc.allocate}, computed the original
    way. *)
val allocate :
  ?strategy:Alloc.strategy ->
  ?order:Alloc.order ->
  ?placed:Alloc.placement list ->
  ii:int ->
  capacity:int ->
  Lifetime.t list ->
  Alloc.placement list option

(** Same search as {!Alloc.min_capacity}, restarting [allocate] from
    zero at every capacity.

    @raise Ncdrf_error.Error.Error as {!Alloc.min_capacity} does. *)
val min_capacity :
  ?strategy:Alloc.strategy ->
  ?order:Alloc.order ->
  ?upper:int ->
  ii:int ->
  Lifetime.t list ->
  int
