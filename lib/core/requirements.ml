open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_regalloc
open Ncdrf_sched
module Error = Ncdrf_error.Error

type detail = {
  requirement : int;
  cluster_requirements : int array Lazy.t;
  global_requirement : int Lazy.t;
  local_requirements : int array Lazy.t;
  max_live : int array Lazy.t;
}

(* ------------------------------------------------------------------ *)
(* The analysis of a schedule's cycles.  Lifetimes and conflict windows
   depend on cycles only, and swapping moves no cycle, so one analysis
   serves the Unified, Partitioned and Swapped readings of a schedule
   and every schedule the swap pass derives from it. *)

type occupancy = {
  members : int array;
  whole : int array;
  rows : int array array;
  peaks : int array;
}

type analysis = {
  sched : Schedule.t;
  ii : int;
  num_clusters : int;
  value_of : int array;
  producer : int array;
  start : int array;
  stop : int array;
  consumer_start : int array;
  consumers : int array;
  longest : int;
  total : int;
  occupancy : occupancy Lazy.t;
  table : Conflict.t Lazy.t;
  scratch : Alloc.scratch Lazy.t;
  mutable order : int array;
}

(* Appends node [v]'s flow consumers to [consumers] from
   [consumer_start.(v + 1)] on, advancing it, and returns the cycle at
   which the last finishes (a consumer across a loop-carried edge of
   distance d finishes d * II later), at least [acc]: the stop of [v]'s
   lifetime as [Lifetime.of_schedule] computes it. *)
let rec fill_consumers sched ~ii consumers consumer_start v acc = function
  | [] -> acc
  | e :: rest when e.Ddg.kind <> Ddg.Flow ->
    fill_consumers sched ~ii consumers consumer_start v acc rest
  | e :: rest ->
    let dst = e.Ddg.dst and pos = consumer_start.(v + 1) in
    consumers.(pos) <- dst;
    consumer_start.(v + 1) <- pos + 1;
    let finish =
      Schedule.cycle sched dst + (e.Ddg.distance * ii)
      + Config.latency sched.Schedule.config (Ddg.node sched.Schedule.ddg dst).Ddg.opcode
    in
    fill_consumers sched ~ii consumers consumer_start v (Int.max acc finish) rest

(* A value's clusters as a bit set (bit c for cluster c;
   [Config.max_clusters] keeps them within one int): its consumers'
   clusters, its producer's when it has none — [Classify.value_class]'s
   rule.  Two or more bits make it replicated. *)
let members_with ~value_of ~consumer_start ~consumers ~values sched =
  let m = Array.make values 0 in
  for v = 0 to Array.length value_of - 1 do
    let x = value_of.(v) in
    if x >= 0 then begin
      let lo = consumer_start.(v) and hi = consumer_start.(v + 1) in
      if lo = hi then m.(x) <- 1 lsl Schedule.cluster sched v
      else
        for e = lo to hi - 1 do
          m.(x) <- m.(x) lor (1 lsl Schedule.cluster sched consumers.(e))
        done
    end
  done;
  m

let replicated m = m land (m - 1) <> 0

let lowest_cluster m =
  let c = ref 0 in
  while (m lsr !c) land 1 = 0 do
    incr c
  done;
  !c

(* Per-cluster MaxLive, each value counted in every cluster of its set:
   a live-count row over the kernel slots per cluster, plus the
   instances live at every slot. *)
let add_live ~rows ~whole ~ii m ~start ~stop =
  let m = ref m and c = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then
      whole.(!c) <- whole.(!c) + Lifetime.add_instances rows.(!c) ~ii ~start ~stop;
    m := !m lsr 1;
    incr c
  done

let row_max row =
  let top = ref 0 in
  for s = 0 to Array.length row - 1 do
    top := Int.max !top row.(s)
  done;
  !top

let occupancy_with ~ii ~num_clusters ~start ~stop members =
  let rows = Array.init num_clusters (fun _ -> Array.make ii 0) in
  let whole = Array.make num_clusters 0 in
  for x = 0 to Array.length members - 1 do
    add_live ~rows ~whole ~ii members.(x) ~start:start.(x) ~stop:stop.(x)
  done;
  let peaks = Array.make num_clusters 0 in
  for c = 0 to num_clusters - 1 do
    peaks.(c) <- whole.(c) + row_max rows.(c)
  done;
  { members; whole; rows; peaks }

let ceil_div a b = if a <= 0 then 0 else (a + b - 1) / b

let analyse sched =
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let num_clusters = Config.num_clusters sched.Schedule.config in
  let n = Ddg.num_nodes ddg in
  let value_of = Array.make n (-1) in
  let values = ref 0 in
  for v = 0 to n - 1 do
    if Opcode.produces_value (Ddg.node ddg v).Ddg.opcode then begin
      value_of.(v) <- !values;
      incr values
    end
  done;
  (* One walk of each node's edge list fills its consumer row; the
     edge count bounds the rows' total length. *)
  let consumer_start = Array.make (n + 1) 0 in
  let consumers = Array.make (Ddg.num_edges ddg) 0 in
  let producer = Array.make !values 0 in
  let start = Array.make !values 0 and stop = Array.make !values 0 in
  let longest = ref 1 and total = ref 0 in
  for v = 0 to n - 1 do
    let s = Schedule.cycle sched v in
    consumer_start.(v + 1) <- consumer_start.(v);
    let finish = fill_consumers sched ~ii consumers consumer_start v s (Ddg.succs ddg v) in
    let x = value_of.(v) in
    if x >= 0 then begin
      producer.(x) <- v;
      start.(x) <- s;
      stop.(x) <-
        (if consumer_start.(v) = consumer_start.(v + 1) then
           s + Config.latency sched.Schedule.config (Ddg.node ddg v).Ddg.opcode
         else finish);
      let regs = ceil_div (stop.(x) - s) ii in
      longest := Int.max !longest regs;
      total := !total + regs
    end
  done;
  let table = lazy (Conflict.create ~ii ~producer ~start ~stop) in
  {
    sched;
    ii;
    num_clusters;
    value_of;
    producer;
    start;
    stop;
    consumer_start;
    consumers;
    longest = !longest;
    total = !total;
    occupancy =
      lazy
        (occupancy_with ~ii ~num_clusters ~start ~stop
           (members_with ~value_of ~consumer_start ~consumers ~values:!values sched));
    table;
    scratch = lazy (Alloc.scratch (Lazy.force table));
    order = [||];
  }

let check a sched =
  if sched.Schedule.ddg != a.sched.Schedule.ddg || Schedule.ii sched <> a.ii then
    invalid_arg "Requirements: the analysis is of another schedule's cycles"

let occupancy_of a sched =
  check a sched;
  if sched == a.sched then Lazy.force a.occupancy
  else
    occupancy_with ~ii:a.ii ~num_clusters:a.num_clusters ~start:a.start ~stop:a.stop
      (members_with ~value_of:a.value_of ~consumer_start:a.consumer_start
         ~consumers:a.consumers ~values:(Array.length a.start) sched)

(* Value indices by start cycle, by a counting sort.  Indices are
   numbered in producer order, so the stable pass breaks ties by
   producer: [Alloc.sorted]'s start-time order.  A modulo
   schedule spans a few stages, but [Schedule.make] bounds no cycle (a
   hand-edited store entry decodes to any), so cycles spread wider than
   the values are comparison-sorted instead. *)
let by_start (a : analysis) =
  let start = a.start in
  let n = Array.length start in
  let lo = ref max_int and hi = ref min_int in
  for x = 0 to n - 1 do
    lo := Int.min !lo start.(x);
    hi := Int.max !hi start.(x)
  done;
  let lo = !lo and hi = !hi in
  if n = 0 then [||]
  else if hi - lo < 0 (* overflowed *) || hi - lo > (4 * n) + 64 then
    Alloc.sorted (Lazy.force a.table) (Array.init n Fun.id)
  else begin
    let count = Conflict.borrow (hi - lo + 2) in
    Array.fill count 0 (hi - lo + 2) 0;
    for x = 0 to n - 1 do
      let c = start.(x) - lo + 1 in
      count.(c) <- count.(c) + 1
    done;
    for c = 1 to hi - lo + 1 do
      count.(c) <- count.(c) + count.(c - 1)
    done;
    let ordered = Array.make n 0 in
    for x = 0 to n - 1 do
      let c = start.(x) - lo in
      ordered.(count.(c)) <- x;
      count.(c) <- count.(c) + 1
    done;
    Conflict.give_back count;
    ordered
  end

(* Every value in start order, sorted once.  Until then [order] holds
   [[||]], which is also the order of an empty analysis. *)
let sorted (a : analysis) =
  if Array.length a.order <> Array.length a.start then a.order <- by_start a;
  a.order

let max_live_cost_of a sched = row_max (occupancy_of a sched).peaks

(* The same bit set read off the graph, for callers holding lifetimes
   rather than an analysis. *)
let rec consumer_clusters sched acc = function
  | [] -> acc
  | e :: rest ->
    consumer_clusters sched
      (if e.Ddg.kind = Ddg.Flow then acc lor (1 lsl Schedule.cluster sched e.Ddg.dst)
       else acc)
      rest

let value_members sched v =
  match consumer_clusters sched 0 (Ddg.succs sched.Schedule.ddg v) with
  | 0 -> 1 lsl Schedule.cluster sched v
  | m -> m

let max_live_cost ?lifetimes sched =
  let ii = Schedule.ii sched in
  if ii <= 0 then 0
  else begin
    let k = Config.num_clusters sched.Schedule.config in
    let rows = Array.init k (fun _ -> Array.make ii 0) and whole = Array.make k 0 in
    List.iter
      (fun l ->
        add_live ~rows ~whole ~ii
          (value_members sched l.Lifetime.producer)
          ~start:l.Lifetime.start ~stop:l.Lifetime.stop)
      (match lifetimes with Some ls -> ls | None -> Lifetime.of_schedule sched);
    let cost = ref 0 in
    for c = 0 to k - 1 do
      cost := Int.max !cost (whole.(c) + row_max rows.(c))
    done;
    !cost
  end

(* ------------------------------------------------------------------ *)
(* The joint search.  A joint problem lives on one table: the
   replicated values, placed once (their registers are shared by every
   subfile holding them), then each of [groups] groups of locals — the
   locals of cluster [first + q] — on top of the replicated values that
   cluster's subfile holds.  Index subsets of the analysis table
   replace the per-cluster tables: a value absent from a subfile simply
   has no register while that subfile's locals are placed.

   The groups sit in one flat [layout]: with [g = groups], entries
   [0 .. g + 1] are offsets into the array itself, group 0 (the
   replicated values) spanning [layout.(0)] to [layout.(1) - 1] and
   group [q + 1] (cluster [first + q]'s locals) [layout.(q + 1)] to
   [layout.(q + 2) - 1], each in placement order.
   While groups hide some replicated value, the registers of group 0
   are saved from [layout.(g + 1)] on. *)

type joint = {
  table : Conflict.t;
  scratch : Alloc.scratch;
  members : int array;  (* per table index: the clusters holding it *)
  mask : int;  (* a value is in the problem iff its members meet the mask *)
  first : int;  (* the cluster of the first group of locals *)
  groups : int;  (* groups of locals *)
  layout : int array;
  hide : bool;  (* some replicated value is absent from some group's subfile *)
}

let group_pos j g = j.layout.(g)
let group_len j g = j.layout.(g + 1) - j.layout.(g)
let saved_at j = j.layout.(j.groups + 1)

let is_empty j = j.layout.(j.groups + 1) = j.layout.(0)

(* Words a layout of [values] values over [groups] groups may need. *)
let layout_words ~groups ~values = groups + 2 + (2 * values)

(* The joint problem of an assignment of the analysis's values, laid
   out in [layout] (at least [layout_words] long) by a counting pass
   over the sorted order: group [g]'s count goes to [layout.(g + 2)]
   (the last group's is not needed), so that the prefix sum leaves each
   group's start one slot right of its own offset, and the placing pass
   then advances that slot to the group's end. *)
let joint_of (a : analysis) members layout =
  let k = a.num_clusters in
  let sorted = sorted a in
  let group m = if replicated m then 0 else 1 + lowest_cluster m in
  let all = (1 lsl k) - 1 in
  Array.fill layout 0 (k + 2) 0;
  let hide = ref false in
  for i = 0 to Array.length sorted - 1 do
    let m = members.(sorted.(i)) in
    let g = group m in
    if g = 0 && m <> all then hide := true;
    if g < k then layout.(g + 2) <- layout.(g + 2) + 1
  done;
  layout.(1) <- k + 2;
  for g = 2 to k + 1 do
    layout.(g) <- layout.(g - 1) + layout.(g)
  done;
  for i = 0 to Array.length sorted - 1 do
    let x = sorted.(i) in
    let slot = group members.(x) + 1 in
    layout.(layout.(slot)) <- x;
    layout.(slot) <- layout.(slot) + 1
  done;
  layout.(0) <- k + 2;
  {
    table = Lazy.force a.table;
    scratch = Lazy.force a.scratch;
    members;
    mask = all;
    first = 0;
    groups = k;
    layout;
    hide = !hide;
  }

(* Cluster [c] in isolation: the replicated values its subfile holds,
   then its locals, in a layout of their own. *)
let isolated j c =
  let bit = 1 lsl c in
  let shared_pos = group_pos j 0 and shared_len = group_len j 0 in
  let locals_pos = group_pos j (c + 1) and locals_len = group_len j (c + 1) in
  let held = ref 0 in
  for i = shared_pos to shared_pos + shared_len - 1 do
    if j.members.(j.layout.(i)) land bit <> 0 then incr held
  done;
  let layout = Array.make (3 + !held + locals_len) 0 in
  layout.(0) <- 3;
  layout.(1) <- 3 + !held;
  layout.(2) <- 3 + !held + locals_len;
  let p = ref 3 in
  for i = shared_pos to shared_pos + shared_len - 1 do
    let s = j.layout.(i) in
    if j.members.(s) land bit <> 0 then begin
      layout.(!p) <- s;
      incr p
    end
  done;
  Array.blit j.layout locals_pos layout !p locals_len;
  { j with mask = bit; first = c; groups = 1; layout; hide = false }

(* Group [q + 1]'s locals on top of the replicated values its subfile
   holds; they stay placed until [unplace]. *)
let place_group j ~capacity q =
  let regs = Alloc.registers j.scratch in
  if j.hide then begin
    let bit = 1 lsl (j.first + q) and saved = saved_at j in
    for i = 0 to group_len j 0 - 1 do
      let s = j.layout.(group_pos j 0 + i) in
      regs.(s) <- (if j.members.(s) land bit <> 0 then j.layout.(saved + i) else -1)
    done
  end;
  Alloc.place j.table j.scratch ~capacity j.layout ~pos:(group_pos j (q + 1))
    ~len:(group_len j (q + 1))

let unplace j q =
  let regs = Alloc.registers j.scratch in
  for i = group_pos j (q + 1) to group_pos j (q + 2) - 1 do
    regs.(j.layout.(i)) <- -1
  done

let place_shared j ~capacity =
  Alloc.unassign_all j.scratch;
  let ok =
    Alloc.place j.table j.scratch ~capacity j.layout ~pos:(group_pos j 0)
      ~len:(group_len j 0)
  in
  if ok && j.hide then begin
    let regs = Alloc.registers j.scratch and saved = saved_at j in
    for i = 0 to group_len j 0 - 1 do
      j.layout.(saved + i) <- regs.(j.layout.(group_pos j 0 + i))
    done
  end;
  ok

let feasible j capacity =
  let ok = ref (place_shared j ~capacity) and q = ref 0 in
  while !ok && !q < j.groups do
    ok := place_group j ~capacity !q;
    unplace j !q;
    incr q
  done;
  Alloc.flush_probes j.scratch;
  !ok

(* Sound lower bounds on a feasible capacity: each subfile's MaxLive
   (replicated values counted in every subfile holding them) and the
   longest value; plus the disjoint-allocation total for the default
   upper bound.  Every problem's subfiles are some of its assignment's,
   so MaxLive comes from the occupancy: for the full joint the longest
   value and the total are the analysis's, and a cluster in isolation
   counts its own values. *)
let full_bounds (a : analysis) occ = (Int.max a.longest (row_max occ.peaks), a.total)

let isolated_bounds j occ =
  let longest = ref 1 and total = ref 0 in
  for p = group_pos j 0 to group_pos j (j.groups + 1) - 1 do
    let regs = Conflict.min_registers j.table j.layout.(p) in
    longest := Int.max !longest regs;
    total := !total + regs
  done;
  (Int.max !longest occ.peaks.(j.first), !total)

(* Two values are co-allocated when both are replicated (placed in one
   pass) or they share a subfile; a co-allocated pair of width [w] rules
   out every capacity <= w, so the search may start above the widest.
   A value is in the problem iff its members meet the joint's mask. *)
let pair_floor j =
  let floor = ref 0 in
  for p = group_pos j 0 to group_pos j (j.groups + 1) - 1 do
    let i = j.layout.(p) in
    let mi = j.members.(i) in
    let row = Conflict.neighbours j.table i in
    let k = ref 0 in
    while !k < Array.length row do
      let width = row.(!k + 2) in
      if width >= !floor then begin
        let mn = j.members.(row.(!k)) in
        if mn land j.mask <> 0 && ((replicated mi && replicated mn) || mi land mn <> 0)
        then floor := width + 1
      end;
      k := !k + 3
    done
  done;
  !floor

let joint_search j ~lower ~total =
  if is_empty j then 0
  else begin
    let ii = Conflict.ii j.table in
    (* The widest pair of the whole table bounds the co-allocated one. *)
    let floor = if Conflict.max_width j.table < lower then 0 else pair_floor j in
    let upper = (2 * total) + 64 in
    let rec search capacity =
      if capacity > upper then
        Error.errorf ~ii ~stage:"alloc" Error.Alloc_infeasible
          "no feasible joint capacity in [%d, %d] (%d globals, %d clusters)" lower upper
          (group_len j 0) j.groups
      else if feasible j capacity then capacity
      else search (capacity + 1)
    in
    search (Int.max lower floor)
  end

let full_search a occ j =
  let lower, total = full_bounds a occ in
  joint_search j ~lower ~total

let fresh_layout (a : analysis) =
  Array.make (layout_words ~groups:a.num_clusters ~values:(Array.length a.start)) 0

(* ------------------------------------------------------------------ *)
(* The views. *)

let unified_of (a : analysis) =
  let table = Lazy.force a.table in
  Alloc.min_capacity_sorted ~floor:(Conflict.max_width table + 1) table (Lazy.force a.scratch)
    (sorted a)

let unified sched = unified_of (analyse sched)

(* The table, its scratch and the start order are built before the
   layout is borrowed, so no build finds the domain's scratch out. *)
let requirement_of (a : analysis) occ =
  ignore (Lazy.force a.scratch);
  ignore (sorted a);
  let layout =
    Conflict.borrow (layout_words ~groups:a.num_clusters ~values:(Array.length a.start))
  in
  let r = full_search a occ (joint_of a occ.members layout) in
  Conflict.give_back layout;
  r

(* Only [requirement] is searched up front; the breakdown costs k + 1
   more searches plus k local ones, and most callers never read it. *)
let partitioned_of a sched =
  let occ = occupancy_of a sched in
  let j = joint_of a occ.members (fresh_layout a) in
  let alone g =
    Alloc.min_capacity_sorted j.table j.scratch
      (Array.sub j.layout (group_pos j g) (group_len j g))
  in
  {
    requirement = full_search a occ j;
    cluster_requirements =
      lazy
        (Array.init a.num_clusters (fun c ->
             let jc = isolated j c in
             let lower, total = isolated_bounds jc occ in
             joint_search jc ~lower ~total));
    global_requirement = lazy (alone 0);
    local_requirements = lazy (Array.init a.num_clusters (fun c -> alone (c + 1)));
    max_live = lazy (Array.copy occ.peaks);
  }

let partitioned sched = partitioned_of (analyse sched) sched

type allocation = {
  capacity : int;
  globals : (Alloc.placement * int list) list;
  locals : Alloc.placement list array;
}

let partitioned_allocation sched =
  let a = analyse sched in
  let occ = Lazy.force a.occupancy in
  let j = joint_of a occ.members (fresh_layout a) in
  let capacity = full_search a occ j in
  if capacity = 0 then
    { capacity = 0; globals = []; locals = Array.make a.num_clusters [] }
  else begin
    let bug what =
      Error.errorf ~ii:a.ii ~stage:"alloc" Error.Internal
        "partitioned_allocation: %s do not fit capacity %d (bug)" what capacity
    in
    let regs = Alloc.registers j.scratch in
    let placement i = { Alloc.value = Conflict.lifetime j.table i; register = regs.(i) } in
    let group g = Array.sub j.layout (group_pos j g) (group_len j g) in
    let clusters m =
      List.filter (fun c -> m land (1 lsl c) <> 0) (List.init a.num_clusters Fun.id)
    in
    if not (place_shared j ~capacity) then bug "globals";
    let globals =
      Array.to_list (Array.map (fun s -> (placement s, clusters j.members.(s))) (group 0))
    in
    let locals =
      Array.init a.num_clusters (fun q ->
          if not (place_group j ~capacity q) then bug "locals";
          let p = Array.to_list (Array.map placement (group (q + 1))) in
          unplace j q;
          p)
    in
    Alloc.flush_probes j.scratch;
    { capacity; globals; locals }
  end
