(** Deterministic fault injection for the compile pipeline.

    Robustness code that only runs when something breaks is dead code
    until the day it matters.  Each pipeline stage compiles in a
    {!point}; arming a {!spec} makes matching points raise a classified
    {!Ncdrf_error.Error.Injected} failure, so tests and CI can prove —
    on demand, deterministically — that a parser / scheduler / spiller
    / cache fault is contained to its point, counted, reported, and
    leaves the rest of the sweep byte-identical to an unfaulted run
    minus the faulted points.

    Disarmed (the default), a point is one atomic load — nothing to
    measure.  Selection is a pure function of [(stage, key)], never of
    execution order, so which points fire is identical whatever the
    worker count or scheduling interleaving:

    - [stage=<name>] (required) names the stage to fault: one of the
      {!stages} compiled into the pipeline;
    - [loop=<regex>] (optional) restricts to keys — loop names —
      matching the anchored OCaml [Str] regex in full;
    - [every=N] (optional, default 1) fires only on keys whose hash is
      [0 (mod N)]: a deterministic, order-independent 1-in-N sample
      (it is {e not} a sequential counter — that would make the faulted
      set depend on arrival order under a worker pool). *)

(** A parsed injection spec. *)
type spec

(** Stages with compiled-in points:
    ["parse"], ["schedule"], ["alloc"], ["spill"], ["cache"]. *)
val stages : string list

(** Parse ["stage=<name>,loop=<regex>,every=<N>"]. *)
val parse : string -> (spec, string) result

val spec_to_string : spec -> string

(** Install a spec; replaces any previously armed one. *)
val arm_spec : spec -> unit

(** [parse] + [arm_spec]. *)
val arm : string -> (unit, string) result

val disarm : unit -> unit
val armed : unit -> bool

(** The hook compiled into each stage: raises
    [Ncdrf_error.Error.Error { category = Injected; ... }] iff an armed
    spec selects [(stage, key)], bumping the ["faults.injected"]
    telemetry counter.  [key] is the loop name.  No-op (one atomic
    load) when disarmed. *)
val point : stage:string -> key:string -> unit

(** True iff an armed spec would fire at [(stage, key)] — the selection
    predicate without the raise, for tests that predict the faulted
    set. *)
val selects : stage:string -> key:string -> bool
