(** Pipelined executor: runs a modulo schedule cycle by cycle on a
    machine state with real register files.

    Instance [k] of operation [v] issues at [cycle v + k * II], reads
    its register operands at issue, and writes its result at
    issue + latency into physical register [(reg v + k) mod capacity]
    of a rotating register file — a unified file ({!run_unified}) or the
    k subfiles of a non-consistent clustered file ({!run_clustered}:
    replicated values are written to every subfile of their replica
    set, local values only to their cluster's; every consumer reads its
    own cluster's subfile).

    When a cluster carries register-file port budgets
    ([Config.cluster.read_ports]/[write_ports]), each cycle whose read
    or write demand on some subfile exceeds its budget stalls the whole
    machine for the cycles needed to drain the backlog — the execution
    -time analogue of the scheduler's machine-wide load/store port
    treatment.  Stall cycles are added to [cycles] and reported in
    [port_stalls]; without caps both are unchanged.

    Every register read checks that the register still holds the exact
    value instance the dependence graph calls for; a clobbered read
    raises {!Corrupted}.  This catches scheduling bugs (operand not
    ready), allocation bugs (overlapping lifetimes sharing a register)
    and classification bugs (a consumer's subfile never written).

    The final array stores must equal the {!Reference} interpreter's
    output exactly. *)

open Ncdrf_sched

exception Corrupted of string

type outcome = {
  stores : Reference.store_event list;  (** sorted like {!Reference.run} *)
  cycles : int;  (** last completion cycle + 1, plus any port stalls *)
  register_reads : int;  (** reads that were tag-checked *)
  capacity : int;  (** registers per (sub)file used *)
  port_stalls : int;
      (** stall cycles forced by per-subfile port budgets; 0 without
          caps *)
}

(** Execute on a single rotating register file allocated at its minimal
    capacity. *)
val run_unified : iterations:int -> Schedule.t -> outcome

(** Execute on a non-consistent clustered register file using the joint
    global/local allocation of [Ncdrf_core.Requirements].

    @raise Ncdrf_error.Error.Error with category [Invalid_graph] if the
    schedule's machine has fewer than 2 clusters. *)
val run_clustered : iterations:int -> Schedule.t -> outcome
