(** Data dependence graphs of inner-loop bodies.

    A node is one operation of the loop body; an edge [(src, dst)] with
    distance [d] states that the instance of [dst] in iteration [i]
    depends on the instance of [src] in iteration [i - d].  Distance 0
    edges are intra-iteration dependences; distance >= 1 edges are
    loop-carried (recurrences).

    Edges come in two kinds:
    - {!kind.Flow}: [dst] reads the register value produced by [src];
      these define the consumers used for lifetime computation.
    - {!kind.Mem}: ordering-only dependence (e.g. a spill load must
      issue after the corresponding spill store completes); no register
      value flows along the edge. *)

type kind =
  | Flow
  | Mem

type node = {
  id : int;  (** dense index, [0 .. num_nodes - 1] *)
  opcode : Opcode.t;
  label : string;  (** human-readable name, e.g. ["M3"] *)
}

type edge = {
  src : int;
  dst : int;
  distance : int;  (** iteration distance, >= 0 *)
  kind : kind;
}

type t

val name : t -> string
val num_nodes : t -> int
val node : t -> int -> node
val nodes : t -> node list
val edges : t -> edge list
val num_edges : t -> int

(** Outgoing edges of a node. *)
val succs : t -> int -> edge list

(** Incoming edges of a node. *)
val preds : t -> int -> edge list

(** Flow-edge consumers of a node's value. *)
val consumers : t -> int -> edge list

val iter_nodes : t -> f:(node -> unit) -> unit
val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val num_loads : t -> int
val num_stores : t -> int
val num_memory_ops : t -> int

(** Structural checks: edge endpoints in range, distances non-negative,
    flow edges only out of value-producing nodes, every cycle carries a
    positive total distance (otherwise the loop is unschedulable). *)
val validate : t -> (unit, string) result

(** Builder for dependence graphs.  Nodes receive dense ids in creation
    order. *)
module Builder : sig
  type graph := t
  type t

  val create : name:string -> t

  (** [add_node b opcode ~label] returns the id of the new node. *)
  val add_node : t -> Opcode.t -> label:string -> int

  (** [add_edge b ~src ~dst ~distance kind]

      @raise Invalid_argument on out-of-range ids or negative distance. *)
  val add_edge : t -> src:int -> dst:int -> distance:int -> kind -> unit

  val freeze : t -> graph
end

(** [spill g v ~store ~reload] is [g] with the value of node [v]
    routed through memory: a new node [store] (id [num_nodes g]) reads
    [v] over a distance-0 flow edge, and for the [i]-th flow edge out
    of [v] (in {!succs} order) a new node [reload i] (id
    [num_nodes g + 1 + i]) follows [store] over a distance-0 [Mem] edge
    and feeds that edge's consumer over a flow edge of the same
    distance, replacing it.  Every other edge stays.

    The graph is built from [g]'s arrays: the lists of the nodes the
    rewrite does not touch are shared with [g].  Its adjacency lists
    come out in the order a {!Builder} gives when the kept edges are
    added source by source in {!succs} order and the new edges after
    them ([v]'s edge to [store], then each reload's fetch and feed), so
    graphs spilled the same way digest alike.

    @raise Invalid_argument if [v] is out of range. *)
val spill : t -> int -> store:Opcode.t * string -> reload:(int -> Opcode.t * string) -> t

(** Hex content digest of the graph (name, opcodes, labels, edges in
    adjacency order), memoized on first use.  Two graphs built by the
    same construction sequence share a digest; any change to a node,
    label, edge or the name changes it.  This is the structural half of
    the compile-cache key (see [Ncdrf_core.Artifact]). *)
val digest : t -> string

val pp_stats : Format.formatter -> t -> unit
