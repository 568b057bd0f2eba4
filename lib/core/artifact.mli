(** Staged compilation artifacts with a content-addressed compile cache.

    Compiling a loop factors into stages that later stages and other
    register-file models can reuse:

    {v ddg --> (MII, raw schedule) --> per-model view v}

    - the {e raw schedule} (register-blind modulo schedule) and the
      {e MII} its II search started from depend only on
      [(config, ddg)], and are one stage: one scheduler run computes
      both, and one entry holds them;
    - a {e view} — the model-transformed schedule, its register
      requirement and the swaps applied — depends on the raw schedule
      and the model, but not on any capacity;
    - the spiller's per-round schedules depend on [(config, ddg, min_ii)]
      where [ddg] is the current (spill-augmented) graph.

    Every stage is memoized in one bounded, domain-safe
    {!Ncdrf_cache.Cache} keyed by [Config.fingerprint] +
    [Ddg.digest] (+ stage tag), so the four models and every capacity of
    the same [(config, loop)] share one scheduling pass, and repeated
    experiments (Figure 6 then Figure 7, the CSV re-emission of
    Table 1, ...) hit instead of recomputing.  A view's key adds the
    schedule's II and placements as zigzag varints ({!schedule_key}).
    Building a key costs no rendering: the fingerprint is computed once
    per configuration by [Config.make] and the graph digest once per
    graph, so a hit is one hash of the key and a lookup.

    When an ambient {!Ncdrf_cache.Store} is open, the same keys address
    a second, on-disk tier: a memory miss consults the store before
    computing, and a computed artifact is published back, so results
    survive the process and are shared across concurrent processes.
    Disk payloads carry only integers (MII, IIs, placements,
    requirements); schedules are rebuilt through [Schedule.make], and
    any malformed entry degrades to a miss.

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
    ["cache"] in front of every lookup), armed only by explicit
    [--inject]; failures — injected or real — are never cached. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

(** A loop scheduled under a configuration: the stage every model
    shares.  [raw] carries the graph and the configuration. *)
type t = private {
  mii : int;  (** lower bound of the graph *)
  raw : Schedule.t;  (** register-blind modulo schedule *)
}

(** One register-file model's reading of a raw schedule. *)
type view = {
  sched : Schedule.t;  (** transformed schedule (swapped for [Swapped]) *)
  requirement : int;  (** registers (per subfile for the dual models) *)
  swaps : int;  (** exchanged pairs versus the raw schedule *)
}

(** MII and raw modulo schedule of the graph, from one scheduler run
    (cached under one key).  With a trace point installed, stamps the
    point's MII and II, on hits too. *)
val scheduled : config:Config.t -> Ddg.t -> t

(** [(scheduled ~config ddg).raw]. *)
val raw_schedule : config:Config.t -> Ddg.t -> Schedule.t

(** The cache and store key of a schedule's views, before the model
    tag: the graph's key, then the II and every placement's cycle and
    cluster as zigzag varints.  Equal schedules of one graph under one
    configuration get equal keys; schedules differing in II, in any
    cycle or in any cluster get different ones. *)
val schedule_key : Schedule.t -> string

(** The model's view of a schedule — a raw schedule or one of the
    spiller's rounds — keyed on the schedule's content (cached; [Ideal]
    and [Unified] share one entry — same transform). *)
val view_of_schedule : model:Model.t -> Schedule.t -> view

(** The views of several models of one schedule, in the order of
    [models]: each is {!view_of_schedule}'s view, memoized and stored
    under the same key, but the misses share one
    {!Requirements.analysis} of the schedule's cycles, built by the
    first of them, and a Swapped view whose pass applies no swap reuses
    the Partitioned requirement (computing it once if no Partitioned
    view of this call has).  With observability on, the analysis build
    is timed in the span of the first view computed: [alloc], or
    [swap] for a Swapped view. *)
val views_of_schedule : models:Model.t list -> Schedule.t -> view list

(** The spiller's per-round scheduling step — modulo scheduling at
    [min_ii], spill loads pushed late — cached on
    [(config, ddg, min_ii)]. *)
val spill_schedule : config:Config.t -> min_ii:int -> Ddg.t -> Schedule.t

(** The model's transform on a fixed schedule, uncached: returns the
    (possibly swapped) schedule and its register requirement.  [Ideal]
    reports the unified requirement but never fails to fit. *)
val apply_model : Model.t -> Schedule.t -> Schedule.t * int

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

val cache_enabled : unit -> bool

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
