(* Bellman-Ford over edge lists, kept verbatim from the IR library
   after the MII search moved to the flat arrays of [Dep_graph]: the
   positive-cycle check of the scheduler oracle ([Modulo_reference]).

   [longest_paths ~num_nodes ~edges ~sources] returns [Some dist] where
   [dist.(v)] is the longest path weight from any source to [v]
   ([min_int] if unreachable), or [None] if a positive-weight cycle is
   reachable from a source (no finite longest paths).
   [has_positive_cycle ~num_nodes ~edges] detects a cycle of positive
   total weight anywhere in the graph. *)

let longest_paths ~num_nodes ~edges ~sources =
  let neg_inf = min_int / 4 in
  let dist = Array.make num_nodes neg_inf in
  List.iter (fun s -> dist.(s) <- 0) sources;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= num_nodes + 1 do
    changed := false;
    incr rounds;
    let relax (u, v, w) =
      if dist.(u) > neg_inf && dist.(u) + w > dist.(v) then begin
        dist.(v) <- dist.(u) + w;
        changed := true
      end
    in
    List.iter relax edges
  done;
  if !changed then None
  else Some (Array.map (fun d -> if d <= neg_inf then min_int else d) dist)

let has_positive_cycle ~num_nodes ~edges =
  match longest_paths ~num_nodes ~edges ~sources:(List.init num_nodes (fun i -> i)) with
  | None -> true
  | Some _ -> false
