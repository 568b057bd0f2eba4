(** Banked memory-system model.

    The paper abstracts the memory subsystem away (decoupled
    architecture, perfect cache) but argues that a higher {e density of
    memory traffic} "will degrade performance of the memory system"
    (Section 5.4).  This module closes that loop: it replays a
    schedule's steady-state memory access pattern against an interleaved
    banked memory behind a decoupling queue and measures the resulting
    slowdown, so Figure 9's density numbers can be translated into
    cycles.

    Model: each access occupies its bank for [service_time] cycles;
    sequential array streams walk the banks (bank = hash(array) +
    iteration mod banks).  The access processor tolerates up to
    [tolerance] cycles of queueing per access (the decoupling buffer);
    beyond that the whole pipeline slips, delaying every subsequent
    access — the slip accumulated over the run is the slowdown. *)

open Ncdrf_sched

type config = {
  banks : int;  (** interleaved memory banks *)
  service_time : int;  (** cycles one access occupies its bank *)
  tolerance : int;  (** queueing the decoupling buffer absorbs, cycles *)
}

type result = {
  base_cycles : int;  (** cycles the schedule alone needs *)
  effective_cycles : int;  (** with memory back-pressure *)
  slowdown : float;  (** effective / base, >= 1 *)
  accesses : int;
  delayed : int;  (** accesses that waited for their bank *)
  pipeline_slips : int;  (** accesses that overflowed the tolerance *)
}

(** Replay [iterations] steady-state iterations of the schedule's loads
    and stores. *)
val simulate : config:config -> iterations:int -> Schedule.t -> result
