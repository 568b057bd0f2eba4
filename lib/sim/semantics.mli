(** Shared operation semantics for the execution simulator.

    Both the sequential reference interpreter and the pipelined executor
    evaluate loops over the same deterministic input model, so their
    outputs must agree bit for bit.  The semantics are synthetic but
    total and deterministic:

    - array loads produce a pseudo-random stream value derived from the
      array name and the iteration index;
    - loop-invariant operands (not represented by graph nodes) fold in a
      per-node constant;
    - divisions are made safe by biasing the divisor away from zero in
      the same way on both sides;
    - values flowing from iterations before the first (recurrence
      live-ins) come from {!live_in}, keyed on the value's {!origin}
      so a reload's live-in is the spilled value's. *)

open Ncdrf_ir

(** Deterministic stream input [array(i)], uniform in [[-1, 1)]. *)
val array_input : array_name:string -> iteration:int -> float

(** Per-node loop-invariant mix-in constant. *)
val invariant : loop:string -> node_id:int -> float

(** Initial value of a recurrence read from before iteration 0:
    [iteration] is negative. *)
val live_in : loop:string -> node_id:int -> iteration:int -> float

(** Evaluate an arithmetic opcode on its operand values (flow
    predecessors in canonical order).  Missing operands (loop-invariant
    inputs) are padded with {!invariant}.

    @raise Invalid_argument on loads/stores — they are handled by the
    interpreters, not here. *)
val apply : loop:string -> node_id:int -> Opcode.t -> float list -> float

(** [spill_source ddg load] is the spill store a spill load reads and
    the store-to-load iteration distance (its memory-ordering edge).

    @raise Invalid_argument if [load] has no memory-ordering edge. *)
val spill_source : Ddg.t -> int -> int * int

(** [origin ddg v] is the node whose value [v] carries and how many
    iterations back: a spill load of iteration [k] holds its origin's
    value of iteration [k - distance], following the load's store and
    the store's operand through chains of reloads.  Every other node is
    its own origin at distance 0.  Keying operand order and live-ins on
    the origin makes a spilled graph compute exactly what the original
    graph does. *)
val origin : Ddg.t -> int -> int * int

(** Canonical operand order for a node's incoming flow edges: by the
    source's {!origin}, then the edge distance plus the origin's
    distance — by source id, then distance, on a graph without spill
    code.  Both interpreters must use this order so non-commutative
    operations agree. *)
val operand_edges : Ddg.t -> int -> Ddg.edge list
