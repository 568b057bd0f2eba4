(* [Ddg.transform] as it stood when the spiller rewrote a graph by
   copying it through a [Ddg.Builder], kept verbatim as the test oracle
   for [Ddg.spill]: the array-built rewrite must give the same digest
   and the same adjacency lists in the same order.  Tests that rewire a
   graph by hand use it too. *)

open Ncdrf_ir

let transform g ?(drop_edge = fun _ -> false) ?(add_nodes = []) ?(add_edges = []) () =
  let b = Ddg.Builder.create ~name:(Ddg.name g) in
  Ddg.iter_nodes g ~f:(fun nd -> ignore (Ddg.Builder.add_node b nd.Ddg.opcode ~label:nd.Ddg.label));
  let copy (op, label) = ignore (Ddg.Builder.add_node b op ~label) in
  List.iter copy add_nodes;
  let keep e =
    if not (drop_edge e) then
      Ddg.Builder.add_edge b ~src:e.Ddg.src ~dst:e.Ddg.dst ~distance:e.Ddg.distance e.Ddg.kind
  in
  for v = 0 to Ddg.num_nodes g - 1 do
    List.iter keep (Ddg.succs g v)
  done;
  let extra e =
    Ddg.Builder.add_edge b ~src:e.Ddg.src ~dst:e.Ddg.dst ~distance:e.Ddg.distance e.Ddg.kind
  in
  List.iter extra add_edges;
  Ddg.Builder.freeze b
