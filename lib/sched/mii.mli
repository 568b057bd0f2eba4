(** Lower bounds on the initiation interval.

    The minimum initiation interval is
    [MII = max (ResMII, RecMII)]: the resource-constrained bound (no
    functional-unit class can execute more operations per II cycles than
    it has units) and the recurrence-constrained bound (every dependence
    circuit [C] forces [II >= ceil (latencies C / distances C)]). *)

open Ncdrf_ir
open Ncdrf_machine

(** Resource-constrained lower bound, taking per-class unit totals and
    machine-wide load/store port caps into account.  At least 1. *)
val res_mii : Config.t -> Ddg.t -> int

(** Recurrence-constrained bound computed by binary search on the
    smallest [ii] for which the constraint graph with weights
    [latency src - ii * distance] has no positive cycle.  At least 1.
    The graph is flattened into a {!Dep_graph.t} once per call, and
    every probe of the search relaxes only the
    {!Dep_graph.cycle_slots}: an acyclic graph gets 1 with no probe. *)
val rec_mii : Config.t -> Ddg.t -> int

(** [feasible g ~ii]: the constraint graph at [ii] has no positive
    cycle, decided by Bellman-Ford over the cycle slots of [g] alone
    (every cycle lies inside one strongly connected component). *)
val feasible : Dep_graph.t -> ii:int -> bool

(** Recurrence bound by direct enumeration of elementary circuits
    (Johnson).  Exponential in the worst case — used by tests to
    cross-check {!rec_mii} and by the CLI to report critical circuits.
    When parallel edges join the same node pair the maximal
    latency/minimal distance edge is used, which dominates every
    parallel-edge combination. *)
val rec_mii_by_circuits : ?max_circuits:int -> Config.t -> Ddg.t -> int

val mii : Config.t -> Ddg.t -> int

(** [mii_with_floor ~floor g] is exactly
    [max (mii g.cfg g.ddg) floor], computed without the RecMII binary
    search when a single feasibility probe shows the recurrences are
    already satisfied at [floor].  The spiller's monotone II floor
    makes this the hot path for spill rounds: the floor is the previous
    round's achieved II, which nearly always still covers the spilled
    graph's (only lengthened) recurrence circuits.  It takes the
    scheduler's {!Dep_graph.t}, so the bound and the II attempts after
    it share one flattening of the graph. *)
val mii_with_floor : floor:int -> Dep_graph.t -> int
