(** Suite-level statistics: the aggregations behind Table 1 and
    Figures 6-9.

    A workload is a list of loops with execution weights (the paper
    weights each loop by its measured iteration count; executing time is
    then [weight * ii]). *)

open Ncdrf_ir
open Ncdrf_machine

type workload = {
  ddg : Ddg.t;
  weight : float;  (** iterations executed (dynamic weighting) *)
}

type measurement = {
  loop : workload;
  requirement : int;
  ii : int;  (** spill-free II: execution time is [weight * ii] *)
}

(** [shard ~index ~count loops] keeps the loops assigned to shard
    [index] of [count], partitioning by a hash of each loop's content
    digest — the same identity the ledger sorts on — so the partition is
    deterministic, jobs-invariant, and identical on every machine: the
    shards are disjoint and their union is the input.  [count = 1]
    returns the input unchanged.  Raises [Invalid_argument] unless
    [0 <= index < count]. *)
val shard : index:int -> count:int -> workload list -> workload list

(** Requirement of every loop under each of [models] with unlimited
    registers (Figures 6 and 7 input), from {b one} scheduling pass per
    loop: the raw schedule is an {!Artifact} every model's view reuses,
    so passing all the models of a figure here issues one
    [Modulo.schedule] per [(config, loop)].  Returns the measurement
    lists in the order of [models].

    [pool] fans the per-loop work out over domains; results keep input
    order, so output is identical to the serial run.

    [failures] switches the sweep to graceful degradation: a loop whose
    compilation raises is classified ({!Ncdrf_error.Error.classify_exn}),
    recorded in the collector — in input order, after the whole map has
    settled, so the failure manifest is deterministic under any worker
    count — and dropped from the results; the collector's policy
    ([fail_fast] / [max_failures]) may raise
    {!Ncdrf_error.Failures.Abort} during recording.  Without
    [failures], any loop failure propagates (via
    [Ncdrf_parallel.Pool.Worker_failure] under a pool), as before.

    [timeout_s] gives each point its own wall deadline (the [--timeout]
    flag): an over-budget point raises the typed
    [Error.Deadline_exceeded], which [failures] records like any other
    category.  Deadline tokens installed on the calling thread (the
    serving daemon's per-request token) bound every point too: the pool
    re-installs them on its workers.  The two compose (whichever
    constraint fires first wins). *)
val measure_all :
  ?pool:Ncdrf_parallel.Pool.t ->
  ?failures:Ncdrf_error.Failures.t ->
  ?timeout_s:float ->
  config:Config.t ->
  models:Model.t list ->
  workload list ->
  (Model.t * measurement list) list

(** [measure_all] for a single model. *)
val measure :
  ?pool:Ncdrf_parallel.Pool.t ->
  ?failures:Ncdrf_error.Failures.t ->
  ?timeout_s:float ->
  config:Config.t -> model:Model.t -> workload list -> measurement list

(** [map ?pool ?failures ?timeout_s ~f loops] is the per-loop engine
    behind {!measure_all} and {!performance}, for experiments with a
    per-loop stage of their own: [f] over [loops] in input order, with
    the same pool fan-out, failure recording and per-point deadline. *)
val map :
  ?pool:Ncdrf_parallel.Pool.t ->
  ?failures:Ncdrf_error.Failures.t ->
  ?timeout_s:float ->
  f:(workload -> 'a) ->
  workload list ->
  'a list

(** Static cumulative distribution: fraction (in percent) of loops whose
    requirement is [<= r], for each [r] in [points]. *)
val static_cumulative : measurement list -> points:int list -> (int * float) list

(** Dynamic cumulative distribution: same, weighted by execution time
    [weight * ii] (Figure 7). *)
val dynamic_cumulative : measurement list -> points:int list -> (int * float) list

(** Percentage of loops allocatable within [r] registers and percentage
    of execution time those loops represent (one Table 1 cell pair). *)
val allocatable : measurement list -> r:int -> float * float

type performance = {
  relative : float;
      (** sum of ideal execution times / sum of achieved execution
          times, in [0, 1]; 1.0 means no loss versus infinite
          registers *)
  density : float;  (** weighted average density of memory traffic *)
  total_spills : int;
  loops_spilled : int;
  unfit : int;  (** loops the spiller could not fit (should be 0) *)
}

(** Run the full spill pipeline on every loop at a register capacity and
    aggregate (Figures 8 and 9 input).

    [pool] parallelizes the per-loop pipeline; the aggregation itself is
    a serial fold in input order, so every float sum is bit-identical to
    the serial run's.

    [failures] degrades gracefully exactly as in {!measure_all}:
    failing loops are classified, recorded, and excluded from the
    aggregates.  A spiller that gives up is {e not} a failure here — it
    stays in the aggregates and is counted in [unfit], with the
    divergence detail on [Pipeline.stats.error].

    [timeout_s] and installed tokens bound each point exactly as in
    {!measure_all}. *)
val performance :
  ?pool:Ncdrf_parallel.Pool.t ->
  ?failures:Ncdrf_error.Failures.t ->
  ?timeout_s:float ->
  config:Config.t -> model:Model.t -> capacity:int -> workload list -> performance
