(** Domain-safe bounded memo table for compilation artifacts.

    A cache is a set of [stripes], each a [Mutex]-protected hash table
    keyed by strings; a key's stripe is fixed by its hash, so lookups of
    distinct keys from the {!Ncdrf_parallel.Pool} worker domains mostly
    take distinct locks.  A lookup hashes its key once: the stripe and
    the bucket are both read off that hash.  Each stripe evicts
    least-recently-used entries once it exceeds its share of the
    capacity.

    {b Determinism contract:} [find_or_add] may only be used with
    [compute] functions that are pure functions of the key — then a hit
    returns a value structurally identical to what [compute] would have
    produced, and caching is observably a no-op (apart from time).  Two
    domains racing on the same absent key may both run [compute]; the
    first insertion wins and both callers return equal values.

    Every hit/miss/eviction bumps the global telemetry counters
    [cache.hits] / [cache.misses] / [cache.evictions] (when telemetry is
    enabled) as well as per-cache atomic counters returned by {!stats},
    which work regardless of telemetry. *)

type 'a t

(** Cumulative per-cache counters plus the current entry count. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;  (** entries currently resident, across all stripes *)
}

(** [create ~name ~capacity ()] makes an empty cache holding at most
    (approximately) [capacity] entries; [capacity] is split evenly over
    [stripes] (default 8, minimum 1), and each stripe holds at least one
    entry, so a capacity smaller than the stripe count admits up to one
    entry per stripe.  [name] labels error messages only; telemetry
    counters are global across caches.

    @raise Invalid_argument if [capacity < 1] or [stripes < 1]. *)
val create : ?stripes:int -> name:string -> capacity:int -> unit -> 'a t

(** [find_or_add t ~key compute] returns the cached value for [key],
    running [compute ()] (outside the stripe lock) and inserting its
    result on a miss.  LRU bookkeeping counts both hits and inserts as
    uses. *)
val find_or_add : 'a t -> key:string -> (unit -> 'a) -> 'a

(** [find t ~key] peeks without computing; counts as a use on hit but
    records neither a hit nor a miss. *)
val find : 'a t -> key:string -> 'a option

(** A write-once cell carried inside a cached value, for a result
    derived from that value alone (a schedule's register views), so
    the derived result costs no key and no entry of its own.  It is
    dropped with the value that carries it. *)
type 'b slot

(** A fresh, empty slot. *)
val slot : unit -> 'b slot

(** [find_or_fill t slot compute] returns the slot's value, running
    [compute ()] and filling the slot when it is empty.  It counts in
    [t]'s statistics and telemetry like {!find_or_add}: a read of a
    full slot is a hit, a fill a miss.  The same purity contract
    holds: two domains racing on an empty slot may both compute, the
    first fill wins and both return equal values. *)
val find_or_fill : _ t -> 'b slot -> (unit -> 'b) -> 'b

val stats : _ t -> stats

(** Drop every entry (counters are preserved).  The stripes keep the
    bucket arrays they grew to, so refilling a cleared cache to its
    former size does not resize them again. *)
val clear : _ t -> unit
