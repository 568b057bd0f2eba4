(** A loop's dependence graph on one machine, flattened into int
    arrays once: each node's opcode, unit class and latency, and its
    outgoing and incoming edges in compressed rows.  The modulo
    scheduler builds one per {!Modulo.schedule_with_min_ii} call and
    shares it between the MII bound ({!Mii.mii_with_floor}) and every
    II attempt, so no probe or attempt walks the [Ddg] edge lists or
    looks up a latency.  Do not mutate the arrays. *)

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
}

val make : Config.t -> Ddg.t -> t

(** [succ_weight g ~ii v k] is the constraint weight at [ii] of
    outgoing slot [k] of [v]: [lat.(v) - ii * succ_dist.(k)], the least
    number of cycles its destination must start after [v]. *)
val succ_weight : t -> ii:int -> int -> int -> int

(** [pred_weight g ~ii k] is the weight of incoming slot [k]:
    [lat.(pred_src.(k)) - ii * pred_dist.(k)]. *)
val pred_weight : t -> ii:int -> int -> int
