(* The recurrence bound by direct enumeration of elementary circuits
   (Johnson's algorithm), the oracle for the binary-search
   [Mii.rec_mii]: exponential in the worst case, so the enumeration
   stops silently after [max_circuits] circuits.

   [elementary_circuits ~num_nodes ~succs] lists each circuit as its
   node ids in order, without repeating the first node.
   [rec_mii_by_circuits cfg ddg] takes, where parallel edges join the
   same node pair, the maximal latency and minimal distance, which
   dominates every parallel-edge combination. *)

open Ncdrf_ir
open Ncdrf_machine

let max_circuits = 100_000

let elementary_circuits ~num_nodes ~succs =
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
    let comps = Graph_algos.scc ~num_nodes ~succs:(fun v -> if v >= s then restricted v else []) in
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

let rec_mii_by_circuits cfg ddg =
  let n = Ddg.num_nodes ddg in
  (* Deduplicate parallel edges: keep, per (src,dst), max latency and min
     distance, which dominates any parallel combination. *)
  let best = Hashtbl.create 16 in
  let note e =
    let lat = Config.latency cfg (Ddg.node ddg e.Ddg.src).Ddg.opcode in
    let key = (e.Ddg.src, e.Ddg.dst) in
    match Hashtbl.find_opt best key with
    | Some (l, d) -> Hashtbl.replace best key (max l lat, min d e.Ddg.distance)
    | None -> Hashtbl.replace best key (lat, e.Ddg.distance)
  in
  List.iter note (Ddg.edges ddg);
  let succs v =
    Hashtbl.fold (fun (s, d) _ acc -> if s = v then d :: acc else acc) best []
  in
  let circuits = elementary_circuits ~num_nodes:n ~succs in
  let circuit_bound nodes =
    let pairs =
      match nodes with
      | [] -> []
      | first :: _ ->
        let rec walk = function
          | [ last ] -> [ (last, first) ]
          | a :: (b :: _ as rest) -> (a, b) :: walk rest
          | [] -> []
        in
        walk nodes
    in
    let lat, dist =
      List.fold_left
        (fun (l, d) key ->
          match Hashtbl.find_opt best key with
          | Some (el, ed) -> (l + el, d + ed)
          | None -> (l, d))
        (0, 0) pairs
    in
    if dist = 0 then max_int else (lat + dist - 1) / dist
  in
  List.fold_left (fun acc c -> max acc (circuit_bound c)) 1 circuits
