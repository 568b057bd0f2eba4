(** Sequential reference interpreter.

    Executes the loop body iteration by iteration, directly on the
    dependence graph, with the shared {!Semantics}.  The pipelined
    {!Executor} must produce exactly the same stored values — this is
    the oracle that validates scheduling, register allocation and the
    dual-file write/read policies end to end. *)

open Ncdrf_ir

type store_event = {
  array : string;  (** destination array name *)
  iteration : int;
  value : float;
}

(** [run ~iterations ddg] interprets iterations [0 .. iterations-1] and
    returns every array store, sorted by (array, iteration).  A spill
    load holds its {!Semantics.origin}'s value of an earlier iteration,
    so spill code never changes the result; spill stores do not appear
    in it. *)
val run : iterations:int -> Ddg.t -> store_event list

(** Store-list equality with {e bitwise} float comparison: the executor
    performs the same operations in the same order as the reference, so
    results must be identical to the last bit — including NaNs, which
    synthetic recurrences can legitimately overflow into and which
    structural equality would spuriously reject. *)
val equal_stores : store_event list -> store_event list -> bool
