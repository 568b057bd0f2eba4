open Ncdrf_ir
open Ncdrf_machine

let ceil_div a b = (a + b - 1) / b

(* One pass over the flat unit classes; only memory operations are
   asked whether they load or store. *)
let res_mii_of (g : Dep_graph.t) =
  let cfg = g.cfg in
  let adds = ref 0 and muls = ref 0 and mems = ref 0 and loads = ref 0 and stores = ref 0 in
  for v = 0 to g.n - 1 do
    match g.fu.(v) with
    | Opcode.Adder -> incr adds
    | Opcode.Multiplier -> incr muls
    | Opcode.Memory ->
      incr mems;
      if Opcode.is_load g.op.(v) then incr loads
      else if Opcode.is_store g.op.(v) then incr stores
  done;
  let bound count units = if count = 0 then 1 else if units = 0 then max_int else ceil_div count units in
  let of_cap count = function Some cap -> bound count cap | None -> 1 in
  max
    (max (bound !adds (Config.total_adders cfg)) (bound !muls (Config.total_multipliers cfg)))
    (max (bound !mems (Config.total_ls_units cfg))
       (max (of_cap !loads cfg.Config.load_ports) (of_cap !stores cfg.Config.store_ports)))

let res_mii cfg ddg = res_mii_of (Dep_graph.make cfg ddg)

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

let mii cfg ddg =
  let g = Dep_graph.make cfg ddg in
  max (res_mii_of g) (rec_mii_of g)

(* [max (mii g.cfg g.ddg) floor] without the full RecMII binary search
   when the floor already dominates.  One feasibility probe at [floor]
   decides [rec_mii <= floor]; only when the probe fails does the
   search run, and then its infeasible end starts at [floor] instead of
   1.  This is the spill loop's hot path: with the monotone II floor,
   each round's floor is the previous round's achieved II, which almost
   always still covers the spilled graph's recurrences. *)
let mii_with_floor ~floor (g : Dep_graph.t) =
  let res = res_mii_of g in
  if floor <= 1 then max (max res (rec_mii_of g)) floor
  else if Array.length g.cycle_slots = 0 then max res floor
  else begin
    let pot = Array.make g.n 0 in
    if probe g pot ~ii:floor then max res floor
    else max res (search g pot floor (latency_sum g ~init:floor))
  end
