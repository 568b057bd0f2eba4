(** Modulo reservation tables.

    A reservation table for initiation interval [II] tracks, for every
    kernel slot [0 .. II-1], how many units of each functional-unit class
    are busy in each cluster, plus machine-wide load/store port usage.
    An operation scheduled at absolute cycle [c] occupies slot
    [c mod II] in every iteration, which is exactly what the table
    models. *)

open Ncdrf_ir

type t

val create : Config.t -> ii:int -> t

(** [reserve t ~op ~cycle] books a unit for [op] at kernel slot
    [cycle mod ii].  Returns the chosen cluster (the feasible cluster
    with the most free units of the class, to balance load), or [-1]
    if no cluster has a free unit or a machine-wide port cap is hit.
    An int rather than an option so the scheduler's inner loop does not
    allocate. *)
val reserve : t -> op:Opcode.t -> cycle:int -> int

(** Book a unit in a specific cluster; [false] if not available. *)
val reserve_in : t -> op:Opcode.t -> cycle:int -> cluster:int -> bool

(** Release a previous reservation.

    @raise Invalid_argument if nothing was reserved there. *)
val release : t -> op:Opcode.t -> cycle:int -> cluster:int -> unit

(** Units of the class of [op] busy at the slot of [cycle] in [cluster]. *)
val used : t -> op:Opcode.t -> cycle:int -> cluster:int -> int

(** [port_saturated t ~op ~cycle] is true when the machine-wide port cap
    for [op] (loads or stores) is the binding constraint at that slot. *)
val port_saturated : t -> op:Opcode.t -> cycle:int -> bool
