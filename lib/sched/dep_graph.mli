(** A loop's dependence graph on one machine, flattened into int
    arrays once: each node's opcode, unit class and latency, its
    outgoing and incoming edges in compressed rows, its strongly
    connected components and the out-edge slots that lie on a cycle.
    The modulo scheduler builds one per {!Modulo.schedule_with_min_ii}
    call, checks the graph with the same pass, and shares it between
    the MII bound ({!Mii.mii_with_floor}) and every II attempt, so no
    probe or attempt walks the [Ddg] edge lists or looks up a latency.
    The spill loop extends one round's graph into the next ({!spill}),
    and reads lifetimes and victims off it.  Nothing is kept on the
    [Ddg]; each domain remembers only the last graph a spill round
    built.  Do not mutate the arrays. *)

open Ncdrf_ir
open Ncdrf_machine

(** Node [v]'s outgoing edges are the slots
    [k] in [[succ_first.(v), succ_first.(v + 1))], in {!Ddg.succs}
    order; its incoming edges are the slots in
    [[pred_first.(v), pred_first.(v + 1))], in {!Ddg.preds} order. *)
type t = private {
  cfg : Config.t;
  ddg : Ddg.t;
  n : int;  (** number of nodes *)
  op : Opcode.t array;
  fu : Opcode.fu_class array;
  lat : int array;  (** [Config.latency cfg] of each node's opcode *)
  succ_first : int array;  (** [n + 1] row offsets *)
  succ_src : int array;  (** [v] in every slot of [v]'s row *)
  succ_dst : int array;
  succ_dist : int array;
  succ_flow : bool array;  (** the edge is a [Ddg.Flow] dependence *)
  pred_first : int array;  (** [n + 1] row offsets *)
  pred_src : int array;
  pred_dist : int array;
  pred_flow : bool array;
  scc : int array;
      (** each node's strongly connected component over the succ rows:
          two nodes share an id exactly when each reaches the other.
          When every edge runs from a lower id to a higher one the ids
          are the node ids and no search runs; otherwise they are the
          numbers one iterative Tarjan pass gives them. *)
  cycle_slots : int array;
      (** the out-edge slots whose two ends share a component, in
          ascending order: exactly the edges that lie on some cycle
          (a self-loop included).  Only these can bound RecMII. *)
  cycle_span : int;  (** nodes in the largest component; 0 when [n = 0] *)
  valid : bool;
      (** the graph passes every check of {!Ddg.validate}: node ids,
          edge ends in range, distances non-negative, flow edges only
          out of value-producing nodes, and no cycle of total distance
          0 (found among the cycle slots) *)
}

(** [make cfg ddg] flattens [ddg] with one pass over its succ rows,
    one over its pred rows and, unless every edge runs forward in id
    order, one iterative Tarjan pass.  A graph that fails
    {!Ddg.validate} does not make it raise: [valid] is then false, and
    if an edge leaves the node range no search runs, all nodes share
    component 0 and every slot is a cycle slot.

    The calling domain remembers the last graph {!spill} built: asked
    for that same graph ([ddg] and [cfg] physically equal), [make]
    returns it instead of flattening anew. *)
val make : Config.t -> Ddg.t -> t

(** [spill g v ~store ~reload] is the flattening of [Ddg.spill g.ddg v
    ~store ~reload] on [g.cfg], which the calling domain remembers for
    {!make}.

    @raise Invalid_argument if [v] is out of range. *)
val spill :
  t -> int -> store:Opcode.t * string -> reload:(int -> Opcode.t * string) -> t

(** [succ_weight g ~ii v k] is the constraint weight at [ii] of
    outgoing slot [k] of [v]: [lat.(v) - ii * succ_dist.(k)], the least
    number of cycles its destination must start after [v]. *)
val succ_weight : t -> ii:int -> int -> int -> int

(** [pred_weight g ~ii k] is the weight of incoming slot [k]:
    [lat.(pred_src.(k)) - ii * pred_dist.(k)]. *)
val pred_weight : t -> ii:int -> int -> int
