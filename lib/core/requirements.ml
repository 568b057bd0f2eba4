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

type analysis = {
  ddg : Ddg.t;
  ii : int;
  num_clusters : int;
  value_of : int array;
  start : int array;
  stop : int array;
  consumer_start : int array;
  consumers : int array;
  table : Conflict.t Lazy.t;
  scratch : Alloc.scratch Lazy.t;
  mutable orders : (Alloc.order * int array) list;
}

let rec count_flow acc = function
  | [] -> acc
  | e :: rest -> count_flow (if e.Ddg.kind = Ddg.Flow then acc + 1 else acc) rest

(* Writes node [v]'s flow consumers from [pos] on and returns the cycle
   at which the last finishes (a consumer across a loop-carried edge of
   distance d finishes d * II later), at least [acc]: the stop of [v]'s
   lifetime as [Lifetime.of_schedule] computes it. *)
let rec fill_consumers sched ~ii consumers pos acc = function
  | [] -> acc
  | e :: rest when e.Ddg.kind <> Ddg.Flow ->
    fill_consumers sched ~ii consumers pos acc rest
  | e :: rest ->
    let dst = e.Ddg.dst in
    consumers.(pos) <- dst;
    let finish =
      Schedule.cycle sched dst + (e.Ddg.distance * ii)
      + Config.latency sched.Schedule.config (Ddg.node sched.Schedule.ddg dst).Ddg.opcode
    in
    fill_consumers sched ~ii consumers (pos + 1) (max acc finish) rest

let analyse sched =
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let n = Ddg.num_nodes ddg in
  let value_of = Array.make n (-1) in
  let consumer_start = Array.make (n + 1) 0 in
  let values = ref 0 in
  for v = 0 to n - 1 do
    if Opcode.produces_value (Ddg.node ddg v).Ddg.opcode then begin
      value_of.(v) <- !values;
      incr values
    end;
    consumer_start.(v + 1) <- count_flow consumer_start.(v) (Ddg.succs ddg v)
  done;
  let consumers = Array.make consumer_start.(n) 0 in
  let producer = Array.make !values 0 in
  let start = Array.make !values 0 and stop = Array.make !values 0 in
  for v = 0 to n - 1 do
    let s = Schedule.cycle sched v in
    let finish =
      fill_consumers sched ~ii consumers consumer_start.(v) s (Ddg.succs ddg v)
    in
    let x = value_of.(v) in
    if x >= 0 then begin
      producer.(x) <- v;
      start.(x) <- s;
      stop.(x) <-
        (if consumer_start.(v) = consumer_start.(v + 1) then
           s + Config.latency sched.Schedule.config (Ddg.node ddg v).Ddg.opcode
         else finish)
    end
  done;
  let table = lazy (Conflict.create ~ii ~producer ~start ~stop) in
  {
    ddg;
    ii;
    num_clusters = Config.num_clusters sched.Schedule.config;
    value_of;
    start;
    stop;
    consumer_start;
    consumers;
    table;
    scratch = lazy (Alloc.scratch (Lazy.force table));
    orders = [];
  }

let check a sched =
  if sched.Schedule.ddg != a.ddg || Schedule.ii sched <> a.ii then
    invalid_arg "Requirements: the analysis is of another schedule's cycles"

(* Value indices by start cycle, by a counting sort.  Indices are
   numbered in producer order, so the stable pass breaks ties by
   producer: [Alloc.sorted ~order:Start_time]'s order.  A modulo
   schedule spans a few stages, but [Schedule.make] bounds no cycle (a
   hand-edited store entry decodes to any), so cycles spread wider than
   the values are comparison-sorted instead. *)
let by_start (a : analysis) =
  let start = a.start in
  let n = Array.length start in
  let lo = Array.fold_left min max_int start and hi = Array.fold_left max min_int start in
  if n = 0 then [||]
  else if hi - lo < 0 (* overflowed *) || hi - lo > (4 * n) + 64 then
    Alloc.sorted ~order:Alloc.Start_time (Lazy.force a.table) (Array.init n Fun.id)
  else begin
    let count = Array.make (hi - lo + 2) 0 in
    Array.iter (fun s -> count.(s - lo + 1) <- count.(s - lo + 1) + 1) start;
    for c = 1 to hi - lo + 1 do
      count.(c) <- count.(c) + count.(c - 1)
    done;
    let ordered = Array.make n 0 in
    for x = 0 to n - 1 do
      let c = start.(x) - lo in
      ordered.(count.(c)) <- x;
      count.(c) <- count.(c) + 1
    done;
    ordered
  end

(* Every value in placement order, sorted once per order. *)
let sorted (a : analysis) order =
  match List.assoc_opt order a.orders with
  | Some o -> o
  | None ->
    let o =
      match order with
      | Alloc.Start_time -> by_start a
      | Alloc.Longest_first | Alloc.Node_order ->
        Alloc.sorted ~order (Lazy.force a.table) (Array.init (Array.length a.start) Fun.id)
    in
    a.orders <- (order, o) :: a.orders;
    o

(* A value's clusters as a bit set (bit c for cluster c;
   [Config.max_clusters] keeps them within one int): its consumers'
   clusters, its producer's when it has none — [Classify.value_class]'s
   rule.  Two or more bits make it replicated. *)
let members a sched =
  let m = Array.make (Array.length a.start) 0 in
  for v = 0 to Array.length a.value_of - 1 do
    let x = a.value_of.(v) in
    if x >= 0 then begin
      let lo = a.consumer_start.(v) and hi = a.consumer_start.(v + 1) in
      if lo = hi then m.(x) <- 1 lsl Schedule.cluster sched v
      else
        for e = lo to hi - 1 do
          m.(x) <- m.(x) lor (1 lsl Schedule.cluster sched a.consumers.(e))
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
let live_rows ~ii ~clusters =
  (Array.init clusters (fun _ -> Array.make ii 0), Array.make clusters 0)

let add_live (rows, whole) ~ii m ~start ~stop =
  let m = ref m and c = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then
      whole.(!c) <- whole.(!c) + Lifetime.add_instances rows.(!c) ~ii ~start ~stop;
    m := !m lsr 1;
    incr c
  done

let peaks (rows, whole) = Array.mapi (fun c w -> w + Array.fold_left max 0 rows.(c)) whole

let cluster_live a members =
  let live = live_rows ~ii:a.ii ~clusters:a.num_clusters in
  Array.iteri
    (fun x m -> add_live live ~ii:a.ii m ~start:a.start.(x) ~stop:a.stop.(x))
    members;
  peaks live

let max_live_cost_of a sched =
  check a sched;
  Array.fold_left max 0 (cluster_live a (members a sched))

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
    let live = live_rows ~ii ~clusters:(Config.num_clusters sched.Schedule.config) in
    List.iter
      (fun l ->
        add_live live ~ii
          (value_members sched l.Lifetime.producer)
          ~start:l.Lifetime.start ~stop:l.Lifetime.stop)
      (match lifetimes with Some ls -> ls | None -> Lifetime.of_schedule sched);
    Array.fold_left max 0 (peaks live)
  end

(* ------------------------------------------------------------------ *)
(* The joint search.  A joint problem lives on one table: the
   replicated values [shared], placed once (their registers are shared
   by every subfile holding them), then each group of [locals] — the
   locals of cluster [clusters.(q)] — on top of the replicated values
   that cluster's subfile holds.  Index subsets of the analysis table
   replace the per-cluster tables: a value absent from a subfile simply
   has no register while that subfile's locals are placed. *)

type joint = {
  table : Conflict.t;
  scratch : Alloc.scratch;
  members : int array;  (* per table index: the clusters holding it *)
  shared : int array;  (* placement order *)
  clusters : int array;  (* the cluster of each group of locals *)
  locals : int array array;  (* per group, placement order *)
  hide : bool;  (* some replicated value is absent from some group's subfile *)
  saved : int array;  (* the registers of [shared] while groups hide some *)
}

(* [sorted] split into [groups] arrays by [group], each in sorted order. *)
let partition sorted ~groups group =
  let size = Array.make groups 0 in
  Array.iter (fun x -> size.(group x) <- size.(group x) + 1) sorted;
  let parts = Array.map (fun n -> Array.make n 0) size in
  Array.fill size 0 groups 0;
  Array.iter
    (fun x ->
      let g = group x in
      parts.(g).(size.(g)) <- x;
      size.(g) <- size.(g) + 1)
    sorted;
  parts

(* The joint problem of a schedule's assignment: every value of the
   analysis, grouped in one pass over the sorted order. *)
let joint_of (a : analysis) members =
  let k = a.num_clusters in
  let parts =
    partition (sorted a Alloc.Start_time) ~groups:(k + 1) (fun x ->
        let m = members.(x) in
        if replicated m then 0 else 1 + lowest_cluster m)
  in
  let shared = parts.(0) and all = (1 lsl k) - 1 in
  let hide = Array.exists (fun s -> members.(s) <> all) shared in
  {
    table = Lazy.force a.table;
    scratch = Lazy.force a.scratch;
    members;
    shared;
    clusters = Array.init k Fun.id;
    locals = Array.sub parts 1 k;
    hide;
    saved = Array.make (if hide then Array.length shared else 0) 0;
  }

(* Cluster [c] in isolation: the replicated values its subfile holds,
   then its locals. *)
let isolated j c =
  let held =
    partition j.shared ~groups:2 (fun s -> if j.members.(s) land (1 lsl c) <> 0 then 0 else 1)
  in
  {
    j with
    shared = held.(0);
    clusters = [| c |];
    locals = [| j.locals.(c) |];
    hide = false;
    saved = [||];
  }

(* Group [q]'s locals on top of the replicated values its subfile
   holds; they stay placed until [unplace]. *)
let place_group j ~capacity q =
  let regs = Alloc.registers j.scratch in
  if j.hide then begin
    let bit = 1 lsl j.clusters.(q) in
    for i = 0 to Array.length j.shared - 1 do
      let s = j.shared.(i) in
      regs.(s) <- (if j.members.(s) land bit <> 0 then j.saved.(i) else -1)
    done
  end;
  Alloc.place ~strategy:Alloc.First_fit j.table j.scratch ~capacity j.locals.(q)

let unplace j q =
  let regs = Alloc.registers j.scratch and ls = j.locals.(q) in
  for i = 0 to Array.length ls - 1 do
    regs.(ls.(i)) <- -1
  done

let place_shared j ~capacity =
  Alloc.unassign_all j.scratch;
  let ok = Alloc.place ~strategy:Alloc.First_fit j.table j.scratch ~capacity j.shared in
  if ok && j.hide then begin
    let regs = Alloc.registers j.scratch in
    Array.iteri (fun i s -> j.saved.(i) <- regs.(s)) j.shared
  end;
  ok

let feasible j capacity =
  let ok = ref (place_shared j ~capacity) and q = ref 0 in
  while !ok && !q < Array.length j.locals do
    ok := place_group j ~capacity !q;
    unplace j !q;
    incr q
  done;
  Alloc.flush_probes j.scratch;
  !ok

(* Sound lower bounds on a feasible capacity: each subfile's MaxLive
   (replicated values counted in every subfile holding them) and the
   longest value; plus the disjoint-allocation total for the default
   upper bound. *)
let lower_and_total j =
  let ii = Conflict.ii j.table in
  let groups = Array.length j.locals in
  let rows = Array.init groups (fun _ -> Array.make ii 0) and whole = Array.make groups 0 in
  let longest = ref 1 and total = ref 0 in
  let add q i =
    whole.(q) <-
      whole.(q)
      + Lifetime.add_instances rows.(q) ~ii ~start:(Conflict.start j.table i)
          ~stop:(Conflict.stop j.table i)
  in
  let count i =
    longest := max !longest (Conflict.min_registers j.table i);
    total := !total + Conflict.min_registers j.table i
  in
  Array.iter
    (fun s ->
      count s;
      Array.iteri (fun q c -> if j.members.(s) land (1 lsl c) <> 0 then add q s) j.clusters)
    j.shared;
  Array.iteri (fun q ls -> Array.iter (fun l -> count l; add q l) ls) j.locals;
  let lower = ref !longest in
  Array.iteri (fun q w -> lower := max !lower (w + Array.fold_left max 0 rows.(q))) whole;
  (!lower, !total)

(* Two values are co-allocated when both are replicated (placed in one
   pass) or they share a subfile; a co-allocated pair of width [w] rules
   out every capacity <= w, so the search may start above the widest. *)
let pair_floor j =
  let role = Array.make (max 1 (Conflict.size j.table)) 0 in
  Array.iter (fun s -> role.(s) <- 1) j.shared;
  Array.iter (Array.iter (fun l -> role.(l) <- 2)) j.locals;
  let floor = ref 0 in
  for i = 0 to Conflict.size j.table - 1 do
    if role.(i) > 0 then begin
      let row = Conflict.neighbours j.table i in
      let k = ref 0 in
      while !k < Array.length row do
        let n = row.(!k) and width = row.(!k + 2) in
        if width >= !floor && role.(n) > 0
           && ((role.(i) = 1 && role.(n) = 1) || j.members.(i) land j.members.(n) <> 0)
        then floor := width + 1;
        k := !k + 3
      done
    end
  done;
  !floor

let joint_search j =
  if Array.length j.shared = 0 && Array.for_all (fun ls -> Array.length ls = 0) j.locals
  then 0
  else begin
    let ii = Conflict.ii j.table in
    let lower, total = lower_and_total j in
    (* The widest pair of the whole table bounds the co-allocated one. *)
    let floor = if Conflict.max_width j.table < lower then 0 else pair_floor j in
    let upper = (2 * total) + 64 in
    let rec search capacity =
      if capacity > upper then
        Error.errorf ~ii ~stage:"alloc" Error.Alloc_infeasible
          "no feasible joint capacity in [%d, %d] (%d globals, %d clusters)" lower upper
          (Array.length j.shared) (Array.length j.locals)
      else if feasible j capacity then capacity
      else search (capacity + 1)
    in
    search (max lower floor)
  end

(* ------------------------------------------------------------------ *)
(* The views. *)

let unified_of ?(strategy = Alloc.First_fit) ?(order = Alloc.Start_time) (a : analysis) =
  let table = Lazy.force a.table in
  Alloc.min_capacity_sorted ~strategy
    ~floor:(Conflict.max_width table + 1)
    table (Lazy.force a.scratch) (sorted a order)

let unified ?strategy ?order sched = unified_of ?strategy ?order (analyse sched)

(* Only [requirement] is searched up front; the breakdown costs k + 1
   more searches plus k local ones, and most callers never read it. *)
let partitioned_of a sched =
  check a sched;
  let members = members a sched in
  let j = joint_of a members in
  let alone ordered = Alloc.min_capacity_sorted ~strategy:Alloc.First_fit j.table j.scratch ordered in
  {
    requirement = joint_search j;
    cluster_requirements =
      lazy (Array.init a.num_clusters (fun c -> joint_search (isolated j c)));
    global_requirement = lazy (alone j.shared);
    local_requirements = lazy (Array.map alone j.locals);
    max_live = lazy (cluster_live a members);
  }

let partitioned sched = partitioned_of (analyse sched) sched

type allocation = {
  capacity : int;
  globals : (Alloc.placement * int list) list;
  locals : Alloc.placement list array;
}

let partitioned_allocation sched =
  let a = analyse sched in
  let j = joint_of a (members a sched) in
  let capacity = joint_search j in
  if capacity = 0 then
    { capacity = 0; globals = []; locals = Array.map (fun _ -> []) j.locals }
  else begin
    let bug what =
      Error.errorf ~ii:a.ii ~stage:"alloc" Error.Internal
        "partitioned_allocation: %s do not fit capacity %d (bug)" what capacity
    in
    let regs = Alloc.registers j.scratch in
    let placement i = { Alloc.value = Conflict.lifetime j.table i; register = regs.(i) } in
    let clusters m =
      List.filter (fun c -> m land (1 lsl c) <> 0) (List.init a.num_clusters Fun.id)
    in
    if not (place_shared j ~capacity) then bug "globals";
    let globals =
      Array.to_list (Array.map (fun s -> (placement s, clusters j.members.(s))) j.shared)
    in
    let locals =
      Array.mapi
        (fun q ordered ->
          if not (place_group j ~capacity q) then bug "locals";
          let p = Array.to_list (Array.map placement ordered) in
          unplace j q;
          p)
        j.locals
    in
    { capacity; globals; locals }
  end
