open Ncdrf_ir
open Ncdrf_machine
module Error = Ncdrf_error.Error
module Trace = Ncdrf_telemetry.Trace

let src = Logs.Src.create "ncdrf.modulo" ~doc:"iterative modulo scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

(* Heights: longest dependence path from each node to any sink, with
   edge weights [latency src - ii * distance].  At ii >= RecMII there is
   no positive cycle, so the Bellman-Ford style fixpoint converges.  The
   fixpoint is the unique least one whatever the relaxation order;
   sweeping the edge slots backwards (so nodes in reverse id order)
   follows the forward edges of a typical loop body backwards, so it
   settles in fewer rounds. *)
let heights (g : Dep_graph.t) ~ii =
  let height = Array.make g.n 0 in
  let src = g.succ_src and dst = g.succ_dst and dist = g.succ_dist and lat = g.lat in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= g.n + 1 do
    changed := false;
    incr rounds;
    for k = Array.length src - 1 downto 0 do
      let v = src.(k) in
      let h = lat.(v) - (ii * dist.(k)) + height.(dst.(k)) in
      if h > height.(v) then begin
        height.(v) <- h;
        changed := true
      end
    done
  done;
  if !changed then None else Some height

(* Scheduling priority: nodes by height descending, ties by id
   ascending — the node a linear scan for the highest unscheduled one
   would pick first.  [rank] inverts [order].  A counting sort: heights
   are non-negative and at most the latency sum, so the buckets are as
   few as the heights' range. *)
let priority height =
  let n = Array.length height in
  let top = Array.fold_left Int.max 0 height in
  (* [next.(b)]: the next free position of bucket [b = top - height] *)
  let next = Array.make (top + 2) 0 in
  Array.iter (fun h -> next.(top - h + 1) <- next.(top - h + 1) + 1) height;
  for b = 1 to top do
    next.(b) <- next.(b) + next.(b - 1)
  done;
  let order = Array.make n 0 and rank = Array.make n 0 in
  for v = 0 to n - 1 do
    let b = top - height.(v) in
    let r = next.(b) in
    order.(r) <- v;
    rank.(v) <- r;
    next.(b) <- r + 1
  done;
  (order, rank)

type state = {
  cfg : Config.t;
  ddg : Ddg.t;
  g : Dep_graph.t;
  ii : int;
  rt : Reservation.t;
  cycle : int array;  (* -1 = unscheduled *)
  cluster : int array;
  ever_cycle : int array;  (* last cycle at which the op was placed, or -1 *)
  order : int array;  (* priority order *)
  rank : int array;  (* position of each node in [order] *)
  mutable cursor : int;  (* every node ranked below it is scheduled *)
  mutable budget : int;
}

let unschedule st v =
  Reservation.release st.rt ~op:st.g.op.(v) ~cycle:st.cycle.(v) ~cluster:st.cluster.(v);
  st.cycle.(v) <- -1;
  if st.rank.(v) < st.cursor then st.cursor <- st.rank.(v)

(* Earliest cycle satisfying all *scheduled* predecessors. *)
let estart st v =
  let g = st.g in
  let acc = ref 0 in
  for k = g.pred_first.(v) to g.pred_first.(v + 1) - 1 do
    let c = st.cycle.(g.pred_src.(k)) in
    if c >= 0 then begin
      let t = c + Dep_graph.pred_weight g ~ii:st.ii k in
      if t > !acc then acc := t
    end
  done;
  !acc

(* Evict whatever prevents [v] from being placed at [cycle]: operations
   of the same class in that kernel slot (across clusters) and, when a
   machine-wide port cap blocks a memory op, the port users in the
   slot. *)
let evict_conflicts st v ~cycle =
  let g = st.g in
  let op = g.op.(v) in
  let same_slot c = (c - cycle) mod st.ii = 0 in
  let cls = g.fu.(v) in
  for w = 0 to g.n - 1 do
    if w <> v && st.cycle.(w) >= 0 && same_slot st.cycle.(w) then begin
      let wop = g.op.(w) in
      let class_conflict = g.fu.(w) = cls in
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
  let g = st.g in
  for k = g.succ_first.(v) to g.succ_first.(v + 1) - 1 do
    let q = g.succ_dst.(k) in
    if q <> v && st.cycle.(q) >= 0
       && st.cycle.(q) < st.cycle.(v) + Dep_graph.succ_weight g ~ii:st.ii v k
    then unschedule st q
  done;
  for k = g.pred_first.(v) to g.pred_first.(v + 1) - 1 do
    let p = g.pred_src.(k) in
    if p <> v && st.cycle.(p) >= 0
       && st.cycle.(v) < st.cycle.(p) + Dep_graph.pred_weight g ~ii:st.ii k
    then unschedule st p
  done

let place st v ~cycle ~cluster =
  st.cycle.(v) <- cycle;
  st.cluster.(v) <- cluster;
  st.ever_cycle.(v) <- cycle;
  eject_violated st v

(* Book the first cycle from [c] to [last] (inclusive) with a free
   unit for [v], in the cluster with the most free units of its class,
   recording the cluster in [st.cluster.(v)]; -1 if every cycle is
   full. *)
let rec first_free st v c ~last =
  let cluster = Reservation.reserve st.rt ~op:st.g.op.(v) ~cycle:c in
  if cluster >= 0 then begin
    st.cluster.(v) <- cluster;
    c
  end
  else if c = last then -1
  else first_free st v (c + 1) ~last

(* The highest-priority unscheduled node, or -1.  Every node ranked
   below the cursor is scheduled; [unschedule] moves the cursor back to
   an ejected node's rank, so a pick costs O(1) amortized instead of a
   scan of every node. *)
let highest_unscheduled st =
  let n = Array.length st.order in
  while st.cursor < n && st.cycle.(st.order.(st.cursor)) >= 0 do
    st.cursor <- st.cursor + 1
  done;
  if st.cursor < n then st.order.(st.cursor) else -1

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
      let cycle = first_free st v from ~last:(from + ii - 1) in
      if cycle >= 0 then place st v ~cycle ~cluster:st.cluster.(v)
      else begin
        (* Forced placement with eviction. *)
        let cycle = if st.ever_cycle.(v) >= from then st.ever_cycle.(v) + 1 else from in
        evict_conflicts st v ~cycle;
        let cluster = Reservation.reserve st.rt ~op:st.g.op.(v) ~cycle in
        if cluster >= 0 then place st v ~cycle ~cluster
        else
          (* Can only happen when a unit class has zero capacity. *)
          Error.errorf ~loop:(Ddg.name ddg) ~ii ~stage:"schedule"
            Error.Schedule_infeasible "no unit can execute %s"
            (Opcode.to_string st.g.op.(v))
      end;
      loop ()
    end
  in
  loop ()

(* The placements, copied out of the state already normalized (first
   cycle 0). *)
let schedule_of_state st =
  let shift = Array.fold_left Int.min max_int st.cycle in
  Schedule.of_arrays ~config:st.cfg ~ii:st.ii
    ~cycles:(Array.map (fun c -> c - shift) st.cycle)
    ~clusters:(Array.copy st.cluster) st.ddg

(* Push-late over a complete placement: each operation whose opcode
   satisfies [eligible] (latest first, so chained ones cascade down)
   moves to the latest cycle its successors and a free slot allow,
   never earlier than now or than its predecessors allow.  Used on
   spill loads: placed as early as possible, a reload would keep its
   value live from just after the store to its consumer and defeat the
   spill.  Moves only compare cycles, so any common offset of the
   placement gives the same result up to that offset. *)
let push_late st ~eligible =
  let g = st.g and ii = st.ii and rt = st.rt and cycle = st.cycle and cluster = st.cluster in
  (* Latest cycle allowed by successors ([max_int] without one);
     earliest by predecessors ([min_int] without one). *)
  let lstart v =
    let hi = ref max_int in
    for k = g.succ_first.(v) to g.succ_first.(v + 1) - 1 do
      let c = cycle.(g.succ_dst.(k)) - Dep_graph.succ_weight g ~ii v k in
      if c < !hi then hi := c
    done;
    !hi
  in
  let estart v =
    let lo = ref min_int in
    for k = g.pred_first.(v) to g.pred_first.(v + 1) - 1 do
      let c = cycle.(g.pred_src.(k)) + Dep_graph.pred_weight g ~ii k in
      if c > !lo then lo := c
    done;
    !lo
  in
  let try_move v =
    let hi = lstart v in
    if hi = max_int || hi <= cycle.(v) then ()
    else begin
      let lo = Int.max (cycle.(v) + 1) (estart v) in
      let op = g.op.(v) in
      Reservation.release rt ~op ~cycle:cycle.(v) ~cluster:cluster.(v);
      let rec attempt c =
        if c < lo then begin
          (* No later slot: put it back where it was.  The slot was just
             released, so failing to re-reserve it means the table is
             corrupt — raise a typed error rather than an assert that
             [-noassert] would erase, silently keeping the bad table. *)
          if not (Reservation.reserve_in rt ~op ~cycle:cycle.(v) ~cluster:cluster.(v))
          then
            Error.errorf ~loop:(Ddg.name g.ddg) ~ii ~stage:"schedule" Error.Internal
              "Modulo.push_late: lost the reservation of %s at cycle %d"
              (Ddg.node g.ddg v).Ddg.label cycle.(v)
        end
        else
          match Reservation.reserve rt ~op ~cycle:c with
          | -1 -> attempt (c - 1)
          | new_cluster ->
            cycle.(v) <- c;
            cluster.(v) <- new_cluster
      in
      attempt hi
    end
  in
  (* Latest-first; a stable sort keeps equal cycles in id order. *)
  let count = ref 0 in
  let order = Array.make g.n 0 in
  for v = 0 to g.n - 1 do
    if eligible g.op.(v) then begin
      order.(!count) <- v;
      incr count
    end
  done;
  let order = Array.sub order 0 !count in
  Array.stable_sort (fun a b -> Int.compare cycle.(b) cycle.(a)) order;
  Array.iter try_move order

let attempt cfg ddg g ~ii ~budget ~late =
  match heights g ~ii with
  | None -> None (* positive cycle: ii below RecMII *)
  | Some height ->
    let order, rank = priority height in
    let st =
      {
        cfg;
        ddg;
        g;
        ii;
        rt = Reservation.create cfg ~ii;
        cycle = Array.make g.n (-1);
        cluster = Array.make g.n 0;
        ever_cycle = Array.make g.n (-1);
        order;
        rank;
        cursor = 0;
        budget;
      }
    in
    if place_all st then begin
      Option.iter (fun eligible -> push_late st ~eligible) late;
      Some (schedule_of_state st)
    end
    else None

(* The II search with the bound it started from, [max mii min_ii]. *)
let bound_and_schedule ?(budget_ratio = 8) ?(max_ii_slack = 128) ?late ~min_ii cfg ddg =
  (* One flattening of the graph checks it and serves the bound and
     every II attempt.  Only a graph it rejects pays for
     [Ddg.validate], which names the first problem.  [mii_with_floor]
     avoids the full RecMII binary search when [min_ii] already covers
     the recurrences — the spiller's monotone II floor makes that the
     common case for spill rounds — and returns exactly
     [max (Mii.mii cfg ddg) min_ii]. *)
  let g = Dep_graph.make cfg ddg in
  if not g.valid then begin
    let msg =
      match Ddg.validate ddg with
      | Error msg -> msg
      | Ok () -> "malformed graph"
    in
    Error.errorf ~loop:(Ddg.name ddg) ~stage:"schedule" Error.Invalid_graph
      "Modulo.schedule: %s" msg
  end;
  let mii = Mii.mii_with_floor ~floor:min_ii g in
  let attempt_budget = budget_ratio * Int.max 1 (Ddg.num_nodes ddg) in
  let rec search ii =
    (* Deadline poll once per II attempt: a request canceled or expired
       mid-search dies with a typed error instead of grinding through
       the remaining II slack.  No-op without an ambient token. *)
    Ncdrf_error.Deadline.check ~stage:"schedule";
    if ii > mii + max_ii_slack then
      Error.errorf ~loop:(Ddg.name ddg) ~ii:(mii + max_ii_slack) ~stage:"schedule"
        Error.Schedule_infeasible "no schedule up to II=%d" (mii + max_ii_slack)
    else
      let found = attempt cfg ddg g ~ii ~budget:attempt_budget ~late in
      (* The ambient point carries the II just tried: the chosen one on
         success, and on a reject the instant event carries the II that
         failed. *)
      if Trace.active () then Trace.update (fun p -> p.Trace.ii <- Some ii);
      match found with
      | Some s ->
        Log.debug (fun m -> m "%s: scheduled at II=%d (MII=%d)" (Ddg.name ddg) ii mii);
        s
      | None ->
        Trace.instant "sched.ii_reject";
        search (ii + 1)
  in
  (mii, search mii)

let schedule_with_min_ii ?budget_ratio ?max_ii_slack ~min_ii cfg ddg =
  snd (bound_and_schedule ?budget_ratio ?max_ii_slack ~min_ii cfg ddg)

let schedule ?budget_ratio ?max_ii_slack cfg ddg =
  schedule_with_min_ii ?budget_ratio ?max_ii_slack ~min_ii:1 cfg ddg

let schedule_with_mii cfg ddg = bound_and_schedule ~min_ii:1 cfg ddg

let schedule_late ~late ~min_ii cfg ddg = bound_and_schedule ~late ~min_ii cfg ddg
