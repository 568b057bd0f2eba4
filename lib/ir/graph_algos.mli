(** Generic graph algorithms used by the scheduler and MII computations.

    Graphs are given as adjacency structures over dense node ids
    [0 .. n-1]. *)

(** Strongly connected components (Tarjan).  [scc ~num_nodes ~succs]
    returns the list of components, each a list of node ids; the
    condensation is listed in topological order (source components
    first). *)
val scc : num_nodes:int -> succs:(int -> int list) -> int list list
