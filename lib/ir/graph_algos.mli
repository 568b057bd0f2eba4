(** Generic graph algorithms used by the scheduler and MII computations.

    Graphs are given as adjacency structures over dense node ids
    [0 .. n-1]. *)

(** Strongly connected components (Tarjan).  [scc ~num_nodes ~succs]
    returns the list of components, each a list of node ids; the
    condensation is listed in topological order (source components
    first). *)
val scc : num_nodes:int -> succs:(int -> int list) -> int list list

(** Elementary circuits (Johnson's algorithm).  Each circuit is the list
    of its node ids in order (without repeating the first node at the
    end).  [max_circuits] bounds the enumeration (default 100_000); the
    search stops silently once the bound is reached. *)
val elementary_circuits :
  ?max_circuits:int -> num_nodes:int -> succs:(int -> int list) -> unit -> int list list

(** Topological order of the distance-0 (acyclic) subgraph; raises
    [Invalid_argument] if the given subgraph is cyclic. *)
val topological_order : num_nodes:int -> succs:(int -> int list) -> int list
