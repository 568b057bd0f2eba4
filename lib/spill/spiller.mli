(** The naive iterative spiller of the paper (Section 5.4):

    {v
    DO
      modulo scheduling
      register allocation
      IF registers needed > physical registers
        select a value to spill out
        modify the dependence graph
    UNTIL registers needed <= physical registers
    v}

    The selected value is the one with the longest lifetime (it frees
    the most registers).  Spilling value [v] adds a store of [v] to a
    fresh spill slot right after its producer and one reload per
    consumer; the consumers then read the reloaded values.  Values
    created by spill loads, and values already spilled, are not
    candidates.

    Spill slots behave as per-value rotating buffers (one live cell per
    concurrent iteration), so no anti-dependences are added; the cost
    model — more memory traffic, higher ResMII — is exactly the paper's.

    If register pressure cannot be reduced below the capacity by
    spilling alone (no candidates left), the loop is rescheduled with
    II+1, the paper's first alternative, as a documented safety valve.

    With the II floor off ([~ii_floor:false]) the loop is byte-identical
    to the verbatim pre-optimization spiller kept as the test oracle
    test/spiller_reference.ml (test/test_spill.ml pins the
    equivalence).  The default, floor on, may diverge from it; see
    [run]. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

(** How to pick the value to spill.  The paper uses [Longest_lifetime]
    ("the value with the highest lifetime, which in general will free a
    higher number of registers") and explicitly calls for better
    heuristics; the other two are the obvious candidates, compared in
    the ablation bench. *)
type victim =
  | Longest_lifetime  (** the paper's choice *)
  | Best_ratio
      (** maximize registers freed per memory operation added:
          [ceil(len/II) / (1 + consumers)] *)
  | Fewest_consumers
      (** cheapest reload cost first; lifetime length breaks ties *)

(** Next free spill slot of a graph: one past the highest slot named by
    any spill load/store, 0 for a graph with no spill code.  [run]
    tracks this incrementally across rounds (each spill consumes exactly
    one slot) and asserts agreement with this fold; exported so tests
    can check the invariant on final outcomes. *)
val next_spill_slot : Ddg.t -> int

(** [spill_value ddg ~slot v] is the graph with node [v]'s value
    spilled to spill slot [slot]: a store after [v] and one reload per
    flow consumer, which then reads the reload.  [slot] must be
    [next_spill_slot ddg]. *)
val spill_value : Ddg.t -> slot:int -> int -> Ddg.t

(** One round's scheduling step, [run]'s default [schedule]: the modulo
    schedule at II floor [min_ii], then every spill load pushed as late
    as its consumers allow ({!Modulo.schedule_late}), so a reloaded
    value is live only just before its use. *)
val schedule_once : Config.t -> min_ii:int -> Ddg.t -> Schedule.t

type outcome = {
  schedule : Schedule.t;  (** final schedule (after any model transform) *)
  raw_schedule : Schedule.t;
      (** the final round's schedule {e before} the model transform —
          the baseline against which applied swaps are counted *)
  ddg : Ddg.t;  (** final graph, including spill code *)
  requirement : int;  (** registers required by the final schedule *)
  fits : bool;  (** requirement <= capacity *)
  spilled : int;  (** number of values spilled *)
  added_memops : int;  (** spill stores + loads added *)
  ii_bumps : int;  (** safety-valve II increments *)
  rounds : int;  (** schedule/allocate iterations *)
  error : Ncdrf_error.Error.t option;
      (** [None] iff [fits]; otherwise the classified [Spill_diverged]
          describing why the loop gave up (round/II caps, or a
          mid-round scheduling failure degraded to the last completed
          round) *)
}

(** [run ~config ~requirement ~capacity ddg] iterates until the
    requirement fits.  [requirement] maps a raw schedule to the
    (possibly transformed, e.g. cluster-swapped) schedule and its
    register requirement — this is how the four register-file models
    plug in.

    [max_rounds] (default 64) bounds spill iterations; [max_ii_bumps]
    (default 32) bounds the safety valve.  If both run out the outcome
    has [fits = false] and [error = Some {category = Spill_diverged}]
    carrying the last round's state — divergence is a reported outcome,
    never an endless loop or a raw exception.  A round whose scheduling
    or allocation fails (infeasible or over budget) after at least one
    completed round likewise degrades to the last completed round.
    [victim] (default [Longest_lifetime]) selects the spill heuristic.

    [ii_floor] (default [true]) starts each round's II search at the
    previously achieved II instead of rediscovering it.  Spill code only
    adds resource usage and dependences, so the {e bounds} never
    decrease — but the achieved II is a heuristic result, and spill
    stores/loads can restructure a critical chain so that a {e lower}
    II becomes feasible on the rewritten graph.  When that happens the
    floored loop keeps the higher II for the round and may pick
    different victims downstream: same final quality in practice, but
    not byte-identical to the oracle (test/test_spill.ml pins one such
    seed).  [~ii_floor:false] is the oracle-identical configuration.

    [schedule] replaces the per-round scheduling step (modulo scheduling
    at [min_ii] followed by pushing spill loads late); the pipeline
    injects a memoized version so rounds shared between models and
    capacities are scheduled once.  Any replacement must be a pure
    function of [(min_ii, ddg)] and preserve those semantics.

    [lower_bound], when supplied, maps a raw schedule to a cheap lower
    bound on its register requirement; a round whose bound already
    exceeds [capacity] skips the exact model measurement (it is forced
    lazily only if a terminal outcome needs the number).  The
    [lifetimes] argument forces to [Lifetime.of_schedule] of that same
    schedule — bounds derived from lifetimes use it so a pruned round
    shares the computation with victim selection.  The bound must be
    sound ([lower_bound raw <= snd (requirement raw)]) and
    [requirement] must then be total — it may not raise — since its
    failures can no longer be attributed to the round that computed it.

    Per-run telemetry: bumps the [spill.full_reschedules] /
    [spill.lb_pruned] counters and records the reschedule count on the
    current trace point. *)
val run :
  config:Config.t ->
  requirement:(Schedule.t -> Schedule.t * int) ->
  capacity:int ->
  ?victim:victim ->
  ?schedule:(min_ii:int -> Ddg.t -> Schedule.t) ->
  ?max_rounds:int ->
  ?max_ii_bumps:int ->
  ?ii_floor:bool ->
  ?lower_bound:(Schedule.t -> lifetimes:Ncdrf_regalloc.Lifetime.t list Lazy.t -> int) ->
  Ddg.t ->
  outcome
