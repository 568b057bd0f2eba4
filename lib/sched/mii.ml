open Ncdrf_ir
open Ncdrf_machine

let ceil_div a b = (a + b - 1) / b

let res_mii cfg ddg =
  let adds = ref 0 and muls = ref 0 and mems = ref 0 in
  Ddg.class_counts ddg ~adds ~muls ~mems;
  let bound count units = if count = 0 then 1 else if units = 0 then max_int else ceil_div count units in
  let candidates =
    [
      bound !adds (Config.total_adders cfg);
      bound !muls (Config.total_multipliers cfg);
      bound !mems (Config.total_ls_units cfg);
    ]
  in
  let port_bounds =
    let loads = Ddg.num_loads ddg and stores = Ddg.num_stores ddg in
    let of_cap count = function Some cap -> [ bound count cap ] | None -> [] in
    of_cap loads cfg.Config.load_ports @ of_cap stores cfg.Config.store_ports
  in
  List.fold_left max 1 (candidates @ port_bounds)

(* No positive cycle at [ii] in the constraint graph (edge weights
   [Dep_graph.succ_weight]).  Every cycle lies inside one strongly
   connected component, so only the cycle slots are relaxed:
   Bellman-Ford longest paths from every node (all potentials start at
   0, in the scratch [pot]) over those slots converge.  Without a
   positive cycle a longest path over them stays inside one component,
   so it has fewer than [cycle_span] edges and round [cycle_span] sees
   no change: the round bound never stops a feasible probe, and the
   answer does not depend on the slot order. *)
let probe (g : Dep_graph.t) pot ~ii =
  let lat = g.lat and src = g.succ_src and dst = g.succ_dst and dist = g.succ_dist in
  let slots = g.cycle_slots in
  Array.fill pot 0 g.n 0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < g.cycle_span do
    changed := false;
    incr rounds;
    for i = 0 to Array.length slots - 1 do
      let k = slots.(i) in
      let v = src.(k) and w = dst.(k) in
      let d = pot.(v) + lat.(v) - (ii * dist.(k)) in
      if d > pot.(w) then begin
        pot.(w) <- d;
        changed := true
      end
    done
  done;
  not !changed

let feasible g ~ii = probe g (Array.make g.Dep_graph.n 0) ~ii

(* Smallest feasible II in [(lo, hi]], given [lo] infeasible and [hi]
   feasible.  The sum of all latencies is an upper bound on any
   circuit's latency, hence on RecMII (distances are >= 1 on
   circuits), so [lo + latency_sum] is always a feasible [hi]. *)
let rec search g pot lo hi =
  if hi - lo <= 1 then hi
  else begin
    let mid = (lo + hi) / 2 in
    if probe g pot ~ii:mid then search g pot lo mid else search g pot mid hi
  end

let latency_sum (g : Dep_graph.t) ~init = Array.fold_left ( + ) init g.lat

(* An acyclic graph has no cycle slot, hence RecMII 1 without a probe. *)
let rec_mii_of (g : Dep_graph.t) =
  if Array.length g.cycle_slots = 0 then 1
  else begin
    let pot = Array.make g.n 0 in
    if probe g pot ~ii:1 then 1 else search g pot 1 (latency_sum g ~init:1)
  end

let rec_mii cfg ddg = rec_mii_of (Dep_graph.make cfg ddg)

let rec_mii_by_circuits ?max_circuits cfg ddg =
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
  let circuits = Graph_algos.elementary_circuits ?max_circuits ~num_nodes:n ~succs () in
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
    if dist = 0 then max_int else ceil_div lat dist
  in
  List.fold_left (fun acc c -> max acc (circuit_bound c)) 1 circuits

let mii cfg ddg = max (res_mii cfg ddg) (rec_mii cfg ddg)

(* [max (mii g.cfg g.ddg) floor] without the full RecMII binary search
   when the floor already dominates.  One feasibility probe at [floor]
   decides [rec_mii <= floor]; only when the probe fails does the
   search run, and then its infeasible end starts at [floor] instead of
   1.  This is the spill loop's hot path: with the monotone II floor,
   each round's floor is the previous round's achieved II, which almost
   always still covers the spilled graph's recurrences. *)
let mii_with_floor ~floor (g : Dep_graph.t) =
  let res = res_mii g.cfg g.ddg in
  if floor <= 1 then max (max res (rec_mii_of g)) floor
  else if Array.length g.cycle_slots = 0 then max res floor
  else begin
    let pot = Array.make g.n 0 in
    if probe g pot ~ii:floor then max res floor
    else max res (search g pot floor (latency_sum g ~init:floor))
  end
