(** End-to-end compilation of one loop under one register-file model:
    modulo scheduling, optional swapping, register allocation, and —
    when a register capacity is given — the naive spill loop.

    This is the function every experiment in the paper is built from.

    Since the artifact refactor this is a thin wrapper over {!Artifact}:
    the MII with the raw schedule, and the per-model view, are memoized
    in the compile cache, so running the four models (or several capacities) on
    the same [(config, loop)] schedules it once.  Results are
    byte-identical to a cache-disabled run.

    When telemetry is enabled ([Ncdrf_telemetry.Telemetry.enable]),
    cache-missing runs record wall-time spans for their stages —
    ["schedule"], ["alloc"], ["swap"], ["spill"] — and every
    run bumps the ["pipeline.loops"], ["pipeline.spilled"] and
    ["pipeline.ii_bumps"] counters; the cache itself bumps
    ["cache.hits"] / ["cache.misses"] / ["cache.evictions"].  The
    ["spill"] span wraps the whole iterative spill loop, so the
    schedule/allocation/swap records of its inner rounds nest inside
    it: its [total_s] is inclusive, its [self_s] (and the ledger's
    ["spill"] stage) is the spill loop's own time without them.  A warm
    (cache-hitting) stage records no span. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

type stats = {
  name : string;
  model : Model.t;
  mii : int;  (** lower bound of the original (pre-spill) graph *)
  ii : int;  (** achieved initiation interval *)
  stages : int;
  requirement : int;  (** registers (per subfile for dual models) *)
  capacity : int option;
  fits : bool;  (** requirement <= capacity (always true for Ideal) *)
  spilled : int;
  added_memops : int;
  ii_bumps : int;
  memops_per_iter : int;  (** including spill code *)
  density : float;
  swaps : int;  (** swaps applied (Swapped model only) *)
  schedule : Schedule.t;  (** final schedule *)
  error : Ncdrf_error.Error.t option;
      (** soft degradation: the spiller's [Spill_diverged], if it gave
          up ([None] whenever [fits]).  Hard failures — infeasible
          schedules, exhausted budgets, injected faults — raise
          [Ncdrf_error.Error.Error] instead, classified by the stage
          boundaries in {!Artifact}. *)
}

(** [with_point ~config ~models ?capacity ddg f] runs [f] as one
    observed (config, loop) point: {!observe} under the loop name, the
    config name and a short fingerprint digest, with the machine's
    cluster count stamped on the point.  A pass-through when neither
    tracing nor the ledger is armed ([Ncdrf_telemetry.Trace.active]).
    {!run} wraps itself in it; drivers that measure loops without
    {!run} (the suite tables) wrap their per-loop work the same way. *)
val with_point :
  config:Ncdrf_machine.Config.t ->
  models:Model.t list ->
  ?capacity:int ->
  Ddg.t ->
  (unit -> 'a) ->
  'a

(** The generic observed-unit wrapper {!with_point} is built on.
    When tracing or the ledger is armed it builds one
    {!Ncdrf_telemetry.Trace.point} under the given labels, installs it
    as the ambient context while [f] runs (the stages stamp its fields
    in place), then stamps [total_ns] and [ok] and adds it to the
    ledger when [f] returns {e or} raises: failed units record their
    error category and re-raise ([Sys.Break] is exempt).  The ledger
    keeps the point itself, and nothing writes it after it is added.
    The serving daemon wraps each request in it ([loop] = request id,
    [config] = ["serve/<kind>"]), so a ledger of a serving session
    carries one record per request alongside the per-point records of
    the work it fanned out.  A pass-through when neither tracing nor
    the ledger is armed. *)
val observe :
  loop:string ->
  config:string ->
  ?fp:string ->
  ?models:string ->
  ?capacity:int ->
  (unit -> 'a) ->
  'a

(** [run ~config ~model ?capacity ddg] compiles the loop.  Without
    [capacity], registers are unlimited (the paper's Section 5.3
    measurement).  With [capacity], the spiller runs for every model
    except [Ideal] (Section 5.4); [victim] selects its heuristic
    (default: the paper's longest-lifetime).  A capacity run whose first schedule
    already fits never enters the spill stage: the pipeline measures
    the free-running schedule first and returns it directly (same
    result, shared with the capacity-less memo entries).  The spiller,
    when it does run, is handed a per-model MaxLive lower bound so
    rounds that are provably still over capacity skip the exact
    allocation measurement. *)
val run :
  config:Config.t ->
  model:Model.t ->
  ?capacity:int ->
  ?victim:Ncdrf_spill.Spiller.victim ->
  Ddg.t ->
  stats
