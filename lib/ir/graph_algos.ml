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
