(** Staged compilation artifacts with a content-addressed compile cache.

    Compiling a loop factors into stages that later stages and other
    register-file models can reuse:

    {v ddg --> (MII, raw schedule) --> per-model view v}

    - the {e raw schedule} (register-blind modulo schedule) and the
      {e MII} its II search started from depend only on
      [(config, ddg)], and are one stage: one scheduler run computes
      both, and one entry holds them;
    - a {e view} — the model-transformed schedule, its register
      requirement and the swaps applied — depends on the schedule and
      the model, but not on any capacity;
    - the spiller's per-round schedules depend on [(config, ddg, min_ii)]
      where [ddg] is the current (spill-augmented) graph.

    The memory tier is one bounded, domain-safe {!Ncdrf_cache.Cache}
    holding one {!entry} per schedule it computed — a raw schedule,
    keyed by [Config.fingerprint] + [Ddg.digest] + ["#raw"], or a spill
    round's, keyed by the same plus ["#spill:"] and [min_ii] — so the
    four models and every capacity of the same [(config, loop)] share
    one scheduling pass, and repeated experiments (Figure 6 then
    Figure 7, the CSV re-emission of Table 1, ...) hit instead of
    recomputing.  An entry carries a write-once slot per view
    transform (Ideal and Unified share one), filled on the first
    request for that view: a view of an entry the caller holds costs
    no key and no lookup, a slot read counts as a cache hit and a fill
    as a miss, and the views leave with their entry when it is
    evicted.  The cache's capacity still counts entries.  Building a
    schedule key costs no rendering: the fingerprint is computed once
    per configuration by [Config.make] and the graph digest once per
    graph, so a hit is one hash of the key and a lookup.

    When an ambient {!Ncdrf_cache.Store} is open, a second, on-disk
    tier keeps one entry per stage: the raw and spill keys above, and
    per view the schedule's content key ({!schedule_key}) plus the
    view tag.  A memory miss or an empty slot consults the store before
    computing, and a computed artifact is published back, so results
    survive the process and are shared across concurrent processes.
    Disk payloads carry only integers (MII, IIs, placements,
    requirements); schedules are rebuilt through
    [Schedule.of_arrays], and any malformed entry degrades to a miss.

    {b Determinism rule:} every compute function is a pure function of
    its key — the scheduler, allocator and swap pass are deterministic —
    so a cached run is byte-for-byte identical to a cold or
    cache-disabled run; the cache may only change wall time and
    telemetry span counts.  Telemetry spans ([schedule], [alloc],
    [swap]) are recorded inside the compute functions, so span counts
    count {e cold} stage executions: one ["schedule"] record per
    (config, loop) however many models consume it.

    {b Failure model:} each stage runs inside an
    [Ncdrf_error.Error.boundary], so anything escaping a stage is a
    classified [Ncdrf_error.Error.Error] carrying the loop name and
    config fingerprint.  Each stage also compiles in an
    [Ncdrf_fault.Fault.point] (stages ["schedule"], ["alloc"], and
    ["cache"] in front of every lookup, slot reads included), armed
    only by explicit [--inject]; failures — injected or real — are
    never cached. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

(** One register-file model's reading of a schedule. *)
type view = {
  sched : Schedule.t;  (** transformed schedule (swapped for [Swapped]) *)
  requirement : int;  (** registers (per subfile for the dual models) *)
  swaps : int;  (** exchanged pairs versus the input schedule *)
}

(** A schedule the cache computed — a raw schedule or a spill round's —
    with its view slots. *)
type entry

(** The schedule an entry holds. *)
val entry_schedule : entry -> Schedule.t

(** A loop scheduled under a configuration: the stage every model
    shares.  [raw] carries the graph and the configuration. *)
type t = private {
  mii : int;  (** lower bound of the graph *)
  raw : Schedule.t;  (** register-blind modulo schedule *)
  entry : entry;  (** the cache entry holding [raw] *)
}

(** MII and raw modulo schedule of the graph, from one scheduler run
    (cached under one key).  With a trace point installed, stamps the
    point's MII and II, on hits too. *)
val scheduled : config:Config.t -> Ddg.t -> t

(** [(scheduled ~config ddg).raw]. *)
val raw_schedule : config:Config.t -> Ddg.t -> Schedule.t

(** The model's view of the entry's schedule, read from (or filled
    into) the entry's slot for that model. *)
val view : model:Model.t -> entry -> view

(** The views of several models of one entry's schedule, in the order
    of [models]: each is {!view}'s, but the empty slots share one
    {!Requirements.analysis} of the schedule's cycles, built by the
    first view computed, and a Swapped view whose pass applies no swap
    reuses the Partitioned requirement (computing it once if no
    Partitioned view of this call has).  With observability on, the
    analysis build is timed in the span of the first view computed:
    [alloc], or [swap] for a Swapped view. *)
val views : models:Model.t list -> entry -> view list

(** The model's view of any schedule: {!view} of the raw entry when
    [sched] is the raw schedule the cache holds for its graph and
    configuration, otherwise computed without the memory tier (an open
    store is still consulted under {!schedule_key}). *)
val view_of_schedule : model:Model.t -> Schedule.t -> view

(** The store key of a schedule's views, before the model tag: the
    graph's key, then the II and every placement's cycle and cluster
    as zigzag varints.  Equal schedules of one graph under one
    configuration get equal keys; schedules differing in II, in any
    cycle or in any cluster get different ones. *)
val schedule_key : Schedule.t -> string

(** [sched] encoded and decoded by the store payload codec of the raw,
    view or spill stage (the MII, requirement and swaps in front of the
    schedule set to fixed values); [None] if the payload does not
    decode. *)
val store_roundtrip : [ `Raw | `View | `Spill ] -> Schedule.t -> Schedule.t option

(** The spiller's per-round scheduling step — modulo scheduling at
    [min_ii], spill loads pushed late — as a cache entry, keyed on
    [(config, ddg, min_ii)].  Round 0 (the unspilled graph at
    [min_ii <= 1]) is the raw entry itself. *)
val spill_entry : config:Config.t -> min_ii:int -> Ddg.t -> entry

(** [entry_schedule (spill_entry ~config ~min_ii ddg)]. *)
val spill_schedule : config:Config.t -> min_ii:int -> Ddg.t -> Schedule.t

(** Swaps applied between two schedules of the same graph, for the
    [Swapped] model: pairs of nodes that exchanged clusters (moves in
    opposite directions between the same two clusters, paired up).
    One-sided migrations are not swaps and are not counted.  Other
    models report 0. *)
val count_swaps : Model.t -> Schedule.t -> Schedule.t -> int

(** {2 Cache control} *)

(** Turn memoization off (every call recomputes) or back on.  Default:
    on. *)
val set_cache_enabled : bool -> unit

(** Replace the cache with an empty one of the given entry capacity
    (striping shrinks with small capacities, so [set_cache_capacity 1]
    really holds one entry).  Default capacity: {!default_capacity}. *)
val set_cache_capacity : int -> unit

val default_capacity : int

(** Drop every cached entry (capacity and counters unchanged) —
    everything a benchmark must reset between runs for isolation. *)
val clear_cache : unit -> unit

(** Hit/miss/eviction counters and resident size of the current cache. *)
val cache_stats : unit -> Ncdrf_cache.Cache.stats
