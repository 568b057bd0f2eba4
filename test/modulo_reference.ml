(* The iterative modulo scheduler and the MII bound search as they
   stood before the scheduler moved to flat edge arrays, a priority
   cursor and array-based feasibility probes, kept verbatim as the test
   oracle — bar the trace and log calls, and [reserve] below, which
   restores the option-returning reservation call it was written
   against.  Every placement scans all nodes for the highest
   unscheduled one, heights relax in forward id order, and each
   feasibility probe rebuilds an edge list. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
module Error = Ncdrf_error.Error

type cluster_policy = Modulo.cluster_policy =
  | Balance
  | Affinity

type placement_policy = Modulo.placement_policy =
  | Asap
  | Bidirectional

module Reservation = struct
  include Reservation

  let reserve t ~op ~cycle =
    match Reservation.reserve t ~op ~cycle with -1 -> None | cluster -> Some cluster
end

let constraint_edges cfg ddg ~ii =
  let weight e =
    let op = (Ddg.node ddg e.Ddg.src).Ddg.opcode in
    Config.latency cfg op - (ii * e.Ddg.distance)
  in
  List.map (fun e -> (e.Ddg.src, e.Ddg.dst, weight e)) (Ddg.edges ddg)

let feasible cfg ddg ~ii =
  not
    (Graph_algos_reference.has_positive_cycle ~num_nodes:(Ddg.num_nodes ddg)
       ~edges:(constraint_edges cfg ddg ~ii))

let rec_mii cfg ddg =
  if feasible cfg ddg ~ii:1 then 1
  else begin
    (* The sum of all latencies is an upper bound on any circuit's
       latency, hence on RecMII (distances are >= 1 on circuits). *)
    let hi =
      Ddg.fold_nodes ddg ~init:1 ~f:(fun acc n -> acc + Config.latency cfg n.Ddg.opcode)
    in
    let rec search lo hi =
      (* invariant: lo infeasible, hi feasible *)
      if hi - lo <= 1 then hi
      else begin
        let mid = (lo + hi) / 2 in
        if feasible cfg ddg ~ii:mid then search lo mid else search mid hi
      end
    in
    search 1 hi
  end

let mii cfg ddg = max (Mii.res_mii cfg ddg) (rec_mii cfg ddg)

let mii_with_floor ~floor cfg ddg =
  if floor <= 1 then max (mii cfg ddg) floor
  else begin
    let res = Mii.res_mii cfg ddg in
    if feasible cfg ddg ~ii:floor then max res floor
    else begin
      let hi =
        Ddg.fold_nodes ddg ~init:floor ~f:(fun acc n ->
            acc + Config.latency cfg n.Ddg.opcode)
      in
      let rec search lo hi =
        (* invariant: lo infeasible, hi feasible *)
        if hi - lo <= 1 then hi
        else begin
          let mid = (lo + hi) / 2 in
          if feasible cfg ddg ~ii:mid then search lo mid else search mid hi
        end
      in
      max res (search floor hi)
    end
  end

(* Heights: longest dependence path from each node to any sink, with
   edge weights [latency src - ii * distance].  At ii >= RecMII there is
   no positive cycle, so the Bellman-Ford style fixpoint converges. *)
let heights cfg ddg ~ii =
  let n = Ddg.num_nodes ddg in
  let height = Array.make n 0 in
  let weight e =
    Config.latency cfg (Ddg.node ddg e.Ddg.src).Ddg.opcode - (ii * e.Ddg.distance)
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n + 1 do
    changed := false;
    incr rounds;
    for v = 0 to n - 1 do
      let relax e =
        let h = weight e + height.(e.Ddg.dst) in
        if h > height.(v) then begin
          height.(v) <- h;
          changed := true
        end
      in
      List.iter relax (Ddg.succs ddg v)
    done
  done;
  if !changed then None else Some height

type state = {
  cfg : Config.t;
  ddg : Ddg.t;
  ii : int;
  rt : Reservation.t;
  policy : cluster_policy;
  placement : placement_policy;
  cycle : int array;  (* -1 = unscheduled *)
  cluster : int array;
  ever_cycle : int array;  (* last cycle at which the op was placed, or -1 *)
  height : int array;
  mutable budget : int;
}

(* The cluster where most already-placed flow neighbours of [v] live,
   if any. *)
let preferred_cluster st v =
  let n_clusters = Config.num_clusters st.cfg in
  if n_clusters < 2 then None
  else begin
    let votes = Array.make n_clusters 0 in
    let vote w = if st.cycle.(w) >= 0 then votes.(st.cluster.(w)) <- votes.(st.cluster.(w)) + 1 in
    List.iter (fun e -> if e.Ddg.kind = Ddg.Flow then vote e.Ddg.src) (Ddg.preds st.ddg v);
    List.iter (fun e -> if e.Ddg.kind = Ddg.Flow then vote e.Ddg.dst) (Ddg.succs st.ddg v);
    let best = ref 0 in
    Array.iteri (fun c count -> if count > votes.(!best) then best := c) votes;
    if votes.(!best) = 0 then None else Some !best
  end

(* Reserve a unit for [v] at [cycle], honouring the cluster policy. *)
let reserve_for st v ~cycle =
  let op = (Ddg.node st.ddg v).Ddg.opcode in
  match st.policy with
  | Balance -> Reservation.reserve st.rt ~op ~cycle
  | Affinity ->
    (match preferred_cluster st v with
     | Some cluster when Reservation.reserve_in st.rt ~op ~cycle ~cluster -> Some cluster
     | Some _ | None -> Reservation.reserve st.rt ~op ~cycle)

let weight st e =
  Config.latency st.cfg (Ddg.node st.ddg e.Ddg.src).Ddg.opcode - (st.ii * e.Ddg.distance)

let unschedule st v =
  let op = (Ddg.node st.ddg v).Ddg.opcode in
  Reservation.release st.rt ~op ~cycle:st.cycle.(v) ~cluster:st.cluster.(v);
  st.cycle.(v) <- -1

(* Earliest cycle satisfying all *scheduled* predecessors. *)
let estart st v =
  let consider acc e =
    if st.cycle.(e.Ddg.src) >= 0 then max acc (st.cycle.(e.Ddg.src) + weight st e) else acc
  in
  List.fold_left consider 0 (Ddg.preds st.ddg v)

(* Evict whatever prevents [v] from being placed at [cycle]: operations
   of the same class in that kernel slot (across clusters) and, when a
   machine-wide port cap blocks a memory op, the port users in the
   slot. *)
let evict_conflicts st v ~cycle =
  let op = (Ddg.node st.ddg v).Ddg.opcode in
  let same_slot c = (c - cycle) mod st.ii = 0 in
  let cls = Opcode.fu_class op in
  for w = 0 to Ddg.num_nodes st.ddg - 1 do
    if w <> v && st.cycle.(w) >= 0 && same_slot st.cycle.(w) then begin
      let wop = (Ddg.node st.ddg w).Ddg.opcode in
      let class_conflict = Opcode.fu_class wop = cls in
      let port_conflict =
        (Opcode.is_load op && Opcode.is_load wop
         && Reservation.port_saturated st.rt ~op ~cycle)
        || (Opcode.is_store op && Opcode.is_store wop
            && Reservation.port_saturated st.rt ~op ~cycle)
      in
      if class_conflict || port_conflict then unschedule st w
    end
  done

(* After placing [v], eject neighbours whose dependence constraints are
   now violated. *)
let eject_violated st v =
  let check_succ e =
    let q = e.Ddg.dst in
    if q <> v && st.cycle.(q) >= 0 && st.cycle.(q) < st.cycle.(v) + weight st e then
      unschedule st q
  in
  List.iter check_succ (Ddg.succs st.ddg v);
  let check_pred e =
    let p = e.Ddg.src in
    if p <> v && st.cycle.(p) >= 0 && st.cycle.(v) < st.cycle.(p) + weight st e then
      unschedule st p
  in
  List.iter check_pred (Ddg.preds st.ddg v)

let place st v ~cycle ~cluster =
  st.cycle.(v) <- cycle;
  st.cluster.(v) <- cluster;
  st.ever_cycle.(v) <- cycle;
  eject_violated st v

(* Latest cycle allowed by already-scheduled successors, if any. *)
let lstart st v =
  let consider acc e =
    if st.cycle.(e.Ddg.dst) >= 0 then
      let bound = st.cycle.(e.Ddg.dst) - weight st e in
      match acc with None -> Some bound | Some b -> Some (min b bound)
    else acc
  in
  List.fold_left consider None (Ddg.succs st.ddg v)

(* Huff-style direction choice: feed-forward ops whose consumers are
   already placed want to sit late (short operand lifetimes); producers
   for unscheduled consumers go early as usual. *)
let wants_late st v =
  match st.placement with
  | Asap -> None
  | Bidirectional ->
    (match lstart st v with
     | None -> None
     | Some late ->
       let count edges pick =
         List.length (List.filter (fun e -> e.Ddg.kind = Ddg.Flow && st.cycle.(pick e) >= 0) edges)
       in
       let succs = count (Ddg.succs st.ddg v) (fun e -> e.Ddg.dst) in
       let preds = count (Ddg.preds st.ddg v) (fun e -> e.Ddg.src) in
       if succs > preds then Some late else None)

let try_window st v ~from =
  match wants_late st v with
  | Some late when late >= from ->
    (* Search downward from the latest feasible cycle. *)
    let lo = max from (late - st.ii + 1) in
    let rec attempt c =
      if c < lo then None
      else
        match reserve_for st v ~cycle:c with
        | Some cluster -> Some (c, cluster)
        | None -> attempt (c - 1)
    in
    attempt late
  | Some _ | None ->
    let rec attempt c =
      if c >= from + st.ii then None
      else
        match reserve_for st v ~cycle:c with
        | Some cluster -> Some (c, cluster)
        | None -> attempt (c + 1)
    in
    attempt from

let highest_unscheduled st =
  let best = ref (-1) in
  for v = 0 to Ddg.num_nodes st.ddg - 1 do
    if st.cycle.(v) < 0 then
      match !best with
      | -1 -> best := v
      | b -> if st.height.(v) > st.height.(b) then best := v
  done;
  !best

(* Place every unscheduled operation (highest priority first) within the
   state's budget, starting from [attempt]'s empty placement.  Returns
   false on budget exhaustion; raises only when a unit class has zero
   capacity. *)
let place_all st =
  let ddg = st.ddg and ii = st.ii in
  let rec loop () =
    let v = highest_unscheduled st in
    if v < 0 then true
    else if st.budget <= 0 then false
    else begin
      st.budget <- st.budget - 1;
      let from = estart st v in
      (match try_window st v ~from with
       | Some (cycle, cluster) -> place st v ~cycle ~cluster
       | None ->
         (* Forced placement with eviction. *)
         let cycle = if st.ever_cycle.(v) >= from then st.ever_cycle.(v) + 1 else from in
         evict_conflicts st v ~cycle;
         (match reserve_for st v ~cycle with
          | Some cluster -> place st v ~cycle ~cluster
          | None ->
            (* Can only happen when a unit class has zero capacity. *)
            let op = (Ddg.node ddg v).Ddg.opcode in
            Error.errorf ~loop:(Ddg.name ddg) ~ii ~stage:"schedule"
              Error.Schedule_infeasible "no unit can execute %s"
              (Opcode.to_string op)));
      loop ()
    end
  in
  loop ()

let schedule_of_state st =
  let n = Ddg.num_nodes st.ddg in
  let placements =
    Array.init n (fun v -> { Schedule.cycle = st.cycle.(v); cluster = st.cluster.(v) })
  in
  Schedule.normalize (Schedule.make ~config:st.cfg ~ii:st.ii ~placements st.ddg)

let attempt cfg ddg ~ii ~budget ~policy ~placement =
  match heights cfg ddg ~ii with
  | None -> None (* positive cycle: ii below RecMII *)
  | Some height ->
    let n = Ddg.num_nodes ddg in
    let st =
      {
        cfg;
        ddg;
        ii;
        rt = Reservation.create cfg ~ii;
        policy;
        placement;
        cycle = Array.make n (-1);
        cluster = Array.make n 0;
        ever_cycle = Array.make n (-1);
        height;
        budget;
      }
    in
    if place_all st then Some (schedule_of_state st) else None

let schedule_with_min_ii ?(budget_ratio = 8) ?(max_ii_slack = 128)
    ?(cluster_policy = Balance) ?(placement_policy = Asap) ~min_ii cfg ddg =
  (match Ddg.validate ddg with
   | Ok () -> ()
   | Error msg ->
     Error.errorf ~loop:(Ddg.name ddg) ~stage:"schedule" Error.Invalid_graph
       "Modulo.schedule: %s" msg);
  (* [mii_with_floor] avoids the full RecMII binary search when
     [min_ii] already covers the recurrences — the spiller's monotone II
     floor makes that the common case for spill rounds — and returns
     exactly [max (Mii.mii cfg ddg) min_ii]. *)
  let mii = mii_with_floor ~floor:min_ii cfg ddg in
  let attempt_budget = budget_ratio * max 1 (Ddg.num_nodes ddg) in
  let rec search ii =
    (* Deadline poll once per II attempt: a request canceled or expired
       mid-search dies with a typed error instead of grinding through
       the remaining II slack.  No-op without an ambient token. *)
    Ncdrf_error.Deadline.check ~stage:"schedule";
    if ii > mii + max_ii_slack then
      Error.errorf ~loop:(Ddg.name ddg) ~ii:(mii + max_ii_slack) ~stage:"schedule"
        Error.Schedule_infeasible "no schedule up to II=%d" (mii + max_ii_slack)
    else
      match
        attempt cfg ddg ~ii ~budget:attempt_budget ~policy:cluster_policy
          ~placement:placement_policy
      with
      | Some s ->
        s
      | None ->
        search (ii + 1)
  in
  search mii

let schedule ?budget_ratio ?max_ii_slack ?cluster_policy ?placement_policy cfg
    ddg =
  schedule_with_min_ii ?budget_ratio ?max_ii_slack ?cluster_policy
    ?placement_policy ~min_ii:1 cfg ddg
