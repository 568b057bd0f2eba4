let scc ~num_nodes ~succs =
  (* Tarjan's algorithm. *)
  let index = Array.make num_nodes (-1) in
  let lowlink = Array.make num_nodes 0 in
  let on_stack = Array.make num_nodes false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    let visit w =
      if index.(w) < 0 then begin
        strongconnect w;
        lowlink.(v) <- min lowlink.(v) lowlink.(w)
      end
      else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
    in
    List.iter visit (succs v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to num_nodes - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !components

let elementary_circuits ?(max_circuits = 100_000) ~num_nodes ~succs () =
  (* Johnson's algorithm: for each start vertex [s] in increasing order,
     enumerate the circuits whose least vertex is [s] within the strongly
     connected component of [s] in the subgraph induced by vertices
     >= [s]. *)
  let circuits = ref [] in
  let count = ref 0 in
  let exception Done in
  let record c =
    circuits := c :: !circuits;
    incr count;
    if !count >= max_circuits then raise Done
  in
  let run_from s =
    let restricted v = List.filter (fun w -> w >= s) (succs v) in
    let comps = scc ~num_nodes ~succs:(fun v -> if v >= s then restricted v else []) in
    let comp =
      match List.find_opt (fun c -> List.mem s c) comps with
      | Some c -> c
      | None -> [ s ]
    in
    let in_comp = Array.make num_nodes false in
    List.iter (fun v -> in_comp.(v) <- true) comp;
    let comp_succs v = List.filter (fun w -> in_comp.(w)) (restricted v) in
    if List.length comp = 1 then begin
      if List.mem s (succs s) then record [ s ]
    end
    else begin
      let blocked = Array.make num_nodes false in
      let block_map = Array.make num_nodes [] in
      let path = ref [] in
      let rec unblock v =
        if blocked.(v) then begin
          blocked.(v) <- false;
          let bl = block_map.(v) in
          block_map.(v) <- [];
          List.iter unblock bl
        end
      in
      let rec circuit v =
        let found = ref false in
        path := v :: !path;
        blocked.(v) <- true;
        let visit w =
          if w = s then begin
            record (List.rev !path);
            found := true
          end
          else if not blocked.(w) then if circuit w then found := true
        in
        List.iter visit (comp_succs v);
        if !found then unblock v
        else begin
          let note w =
            if not (List.mem v block_map.(w)) then block_map.(w) <- v :: block_map.(w)
          in
          List.iter note (comp_succs v)
        end;
        path := List.tl !path;
        !found
      in
      ignore (circuit s)
    end
  in
  (try
     for s = 0 to num_nodes - 1 do
       run_from s
     done
   with Done -> ());
  !circuits

let topological_order ~num_nodes ~succs =
  let indegree = Array.make num_nodes 0 in
  for v = 0 to num_nodes - 1 do
    List.iter (fun w -> indegree.(w) <- indegree.(w) + 1) (succs v)
  done;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indegree;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    order := v :: !order;
    incr seen;
    let dec w =
      indegree.(w) <- indegree.(w) - 1;
      if indegree.(w) = 0 then Queue.add w queue
    in
    List.iter dec (succs v)
  done;
  if !seen <> num_nodes then invalid_arg "Graph_algos.topological_order: graph is cyclic";
  List.rev !order
