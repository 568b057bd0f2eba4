(* The register-requirement computation as it stood before one
   analysis per schedule served every view, kept as the test oracle: the
   values grouped into lists by [Classify.value_class], one conflict
   table per cluster over (replicated values held there) @ (its
   locals), and each cluster's table prefix remapped to the global
   placement.  The differential tests in [test_requirements.ml] pin
   [Requirements] to it: requirements, every breakdown field, MaxLive
   and placements. *)

open Ncdrf_machine
open Ncdrf_regalloc
open Ncdrf_sched
open Ncdrf_core
module Error = Ncdrf_error.Error

(* The list-level allocation problem the per-cluster tables used, at
   the paper's First-Fit strategy and start-time order: the indices
   sorted once, placed per probe on top of [placed] pairs of (table
   index, register), returning the pairs in placement order. *)
module Alloc = struct
  include Alloc

  type problem = {
    table : Conflict.t;
    ordered : int array;
    scratch : scratch;
  }

  let problem table indices =
    {
      table;
      ordered = sorted ~order:Start_time table (Array.of_list indices);
      scratch = scratch table;
    }

  let solve ?(placed = []) p ~capacity =
    if Array.length p.ordered = 0 then Some []
    else if capacity <= 0 then None
    else begin
      unassign_all p.scratch;
      let regs = registers p.scratch in
      List.iter (fun (j, r) -> regs.(j) <- r) placed;
      let ok =
        place p.table p.scratch ~capacity p.ordered ~pos:0
          ~len:(Array.length p.ordered)
      in
      flush_probes p.scratch;
      if ok then Some (Array.to_list (Array.map (fun i -> (i, regs.(i))) p.ordered))
      else None
    end

  let min_capacity_table table indices =
    min_capacity_sorted table (scratch table)
      (sorted ~order:Start_time table (Array.of_list indices))
end

type detail = {
  requirement : int;
  cluster_requirements : int array Lazy.t;
  global_requirement : int Lazy.t;
  local_requirements : int array Lazy.t;
  max_live : int array Lazy.t;
}

let unified sched =
  let lifetimes = Lifetime.of_schedule sched in
  Alloc.min_capacity ~ii:(Schedule.ii sched) lifetimes

(* Lifetimes grouped by replication: [shared] values (Global or Shared
   class) with the sorted cluster set whose subfiles must hold them,
   plus per-cluster locals.  On a two-cluster machine every shared
   value's member set is all clusters, which is the paper's dual-file
   classification unchanged. *)
type groups = {
  shared : (Lifetime.t * int list) list;
  locals : Lifetime.t list array;
}

(* Clusters whose subfile must hold a value of class [cls]. *)
let clusters_of ~num_clusters = function
  | Classify.Global -> List.init num_clusters Fun.id
  | Classify.Shared cs -> cs
  | Classify.Local c -> [ c ]

let grouped ?lifetimes sched =
  let n_clusters = Config.num_clusters sched.Schedule.config in
  let locals = Array.make n_clusters [] in
  let shared = ref [] in
  let place l =
    match Classify.value_class sched l.Lifetime.producer with
    | Classify.Local c -> locals.(c) <- l :: locals.(c)
    | cls ->
      shared := (l, clusters_of ~num_clusters:n_clusters cls) :: !shared
  in
  let all =
    match lifetimes with Some ls -> ls | None -> Lifetime.of_schedule sched
  in
  List.iter place all;
  { shared = List.rev !shared; locals = Array.map List.rev locals }

(* The shared values replicated into cluster [c]'s subfile, in shared
   order (the prefix of that cluster's conflict table). *)
let shared_in groups c =
  List.filter_map
    (fun (l, members) -> if List.mem c members then Some l else None)
    groups.shared

let cluster_max_live ?lifetimes sched =
  let ii = Schedule.ii sched in
  let groups = grouped ?lifetimes sched in
  Array.mapi
    (fun c ls -> Lifetime.max_live ~ii (shared_in groups c @ ls))
    groups.locals

let max_live_cost ?lifetimes sched =
  Array.fold_left max 0 (cluster_max_live ?lifetimes sched)

(* Shared conflict tables for a joint allocation problem: one table per
   cluster over (shared values replicated there) @ locals.(c) — each
   cluster's replicated values occupy the index prefix of its table, so
   a shared placement computed once transfers to every table via
   [prefix] (the gtable index of each prefix slot).  On a two-cluster
   machine every prefix is the full shared list and [gtable] aliases
   [tables.(0)] exactly as the dual-file implementation did.  The tables
   are built once per call, so the full-joint search of [partitioned]
   and its lazy per-cluster, global and local searches all reuse the
   same windows. *)
type joint = {
  num_globals : int;  (* number of shared (replicated) values *)
  gtable : Conflict.t;  (* holds at least the shared values as a prefix *)
  tables : Conflict.t array;
  prefix : int array array;
      (* per cluster: gtable index of each slot of its table prefix *)
}

let joint_of ~ii groups =
  let gshared = List.map fst groups.shared in
  let num_globals = List.length gshared in
  if Array.length groups.locals = 0 then
    { num_globals; gtable = Conflict.make ~ii gshared; tables = [||]; prefix = [||] }
  else begin
    let prefix =
      Array.mapi
        (fun c _ ->
          groups.shared
          |> List.mapi (fun gi (_, members) ->
                 if List.mem c members then Some gi else None)
          |> List.filter_map Fun.id
          |> Array.of_list)
        groups.locals
    in
    let tables =
      Array.mapi (fun c ls -> Conflict.make ~ii (shared_in groups c @ ls)) groups.locals
    in
    let gtable =
      if Array.length prefix.(0) = num_globals then tables.(0)
      else Conflict.make ~ii gshared
    in
    { num_globals; gtable; tables; prefix }
  end

let global_indices j = List.init j.num_globals Fun.id

let local_indices j ~cluster table =
  let n_pre = Array.length j.prefix.(cluster) in
  List.init (Conflict.size table - n_pre) (fun k -> n_pre + k)

(* The allocation problems of a joint search — the shared values on
   [gtable], then each cluster's locals on its own table — sorted once
   and probed at every capacity.  A cluster's problem is prepared when
   a probe first reaches it: most searches end at their first
   capacity, often before every cluster is tried. *)
type problems = {
  shared_problem : Alloc.problem;
  local_problems : Alloc.problem Lazy.t array;
}

let problems j =
  {
    shared_problem = Alloc.problem j.gtable (global_indices j);
    local_problems =
      Array.mapi
        (fun c table ->
          lazy (Alloc.problem table (local_indices j ~cluster:c table)))
        j.tables;
  }

(* The registers of the placed shared values, by [gtable] index. *)
let shared_registers j placed_globals =
  let reg = Array.make (max 1 j.num_globals) (-1) in
  List.iter (fun (i, r) -> reg.(i) <- r) placed_globals;
  reg

(* Cluster [c]'s locals on top of its prefix of the shared values. *)
let solve_locals j ps ~reg ~capacity c =
  let placed = Array.to_list (Array.mapi (fun slot gi -> (slot, reg.(gi))) j.prefix.(c)) in
  Alloc.solve ~placed (Lazy.force ps.local_problems.(c)) ~capacity

(* Joint feasibility at a given capacity: place the shared values once
   (their registers are shared by every subfile holding them), then
   each cluster's locals on top of its own prefix. *)
let joint_feasible j ps capacity =
  match Alloc.solve ps.shared_problem ~capacity with
  | None -> false
  | Some placed_globals ->
    let reg = shared_registers j placed_globals in
    let ok = ref true in
    for c = 0 to Array.length ps.local_problems - 1 do
      if !ok then ok := solve_locals j ps ~reg ~capacity c <> None
    done;
    !ok

(* Any pair sharing a table is co-allocated by [joint_feasible], so a
   pair width of [w] rules out every capacity <= w.  The search may
   start there; error messages still report the original lower bound. *)
let joint_floor j =
  Array.fold_left
    (fun acc t -> max acc (Conflict.max_width t + 1))
    (Conflict.max_width j.gtable + 1)
    j.tables

let joint_requirement_tables ~ii ~groups j =
  let globals = List.map fst groups.shared in
  if globals = [] && Array.for_all (fun ls -> ls = []) groups.locals then 0
  else begin
    let all_of cluster = shared_in groups cluster @ groups.locals.(cluster) in
    let lower =
      Array.to_list
        (Array.mapi (fun c _ -> Lifetime.max_live ~ii (all_of c)) groups.locals)
      @ List.map (fun l -> Lifetime.min_registers ~ii l) globals
      @ List.concat_map
          (List.map (Lifetime.min_registers ~ii))
          (Array.to_list groups.locals)
      |> List.fold_left max 1
    in
    let upper =
      (2
      * List.fold_left
          (fun acc l -> acc + Lifetime.min_registers ~ii l)
          0
          (globals @ List.concat (Array.to_list groups.locals)))
      + 64
    in
    let ps = problems j in
    let rec search capacity =
      if capacity > upper then
        Error.errorf ~ii ~stage:"alloc" Error.Alloc_infeasible
          "no feasible joint capacity in [%d, %d] (%d globals, %d clusters)" lower upper
          (List.length globals)
          (Array.length groups.locals)
      else if joint_feasible j ps capacity then capacity
      else search (capacity + 1)
    in
    search (max lower (joint_floor j))
  end

type allocation = {
  capacity : int;
  globals : (Alloc.placement * int list) list;
  locals : Alloc.placement list array;
}

let partitioned_allocation sched =
  let ii = Schedule.ii sched in
  let groups = grouped sched in
  let j = joint_of ~ii groups in
  let capacity = joint_requirement_tables ~ii ~groups j in
  if capacity = 0 then
    { capacity = 0; globals = []; locals = Array.map (fun _ -> []) groups.locals }
  else begin
    let placements table pairs =
      List.map
        (fun (i, r) -> { Alloc.value = Conflict.lifetime table i; register = r })
        pairs
    in
    let ps = problems j in
    match Alloc.solve ps.shared_problem ~capacity with
    | None ->
      Error.errorf ~ii ~stage:"alloc" Error.Internal
        "partitioned_allocation: globals do not fit capacity %d (bug)" capacity
    | Some placed_globals ->
      let members = Array.of_list (List.map snd groups.shared) in
      let reg = shared_registers j placed_globals in
      let place_locals c table =
        match solve_locals j ps ~reg ~capacity c with
        | Some p -> placements table p
        | None ->
          Error.errorf ~ii ~stage:"alloc" Error.Internal
            "partitioned_allocation: locals do not fit capacity %d (bug)" capacity
      in
      {
        capacity;
        globals =
          List.map
            (fun (i, r) ->
              ({ Alloc.value = Conflict.lifetime j.gtable i; register = r }, members.(i)))
            placed_globals;
        locals = Array.mapi place_locals j.tables;
      }
  end

(* Only [requirement] is searched up front; the breakdown costs k + 1
   more searches plus k local ones, and most callers never read it. *)
let partitioned sched =
  let ii = Schedule.ii sched in
  let groups = grouped sched in
  let j = joint_of ~ii groups in
  let cluster_requirements =
    lazy
      (Array.mapi
         (fun c ls ->
           (* The cluster in isolation: its replicated prefix plus its
              locals, on its own table. *)
           let groups_c =
             {
               shared = List.map (fun l -> (l, [ 0 ])) (shared_in groups c);
               locals = [| ls |];
             }
           in
           let n_pre = Array.length j.prefix.(c) in
           let j_c =
             {
               num_globals = n_pre;
               gtable = j.tables.(c);
               tables = [| j.tables.(c) |];
               prefix = [| Array.init n_pre Fun.id |];
             }
           in
           joint_requirement_tables ~ii ~groups:groups_c j_c)
         groups.locals)
  in
  {
    requirement = joint_requirement_tables ~ii ~groups j;
    cluster_requirements;
    global_requirement =
      lazy (Alloc.min_capacity_table j.gtable (global_indices j));
    local_requirements =
      lazy
        (Array.mapi
           (fun c t ->
             Alloc.min_capacity_table t (local_indices j ~cluster:c t))
           j.tables);
    max_live = lazy (cluster_max_live sched);
  }

(* The full joint problem's bounds as every search recomputed them
   before an analysis kept its occupancy: [members], the grouping and
   [lower_and_total] verbatim from that version of [Requirements], on
   the analysis's arrays.  The tests check that the bound the shared
   occupancy gives equals [lower_and_total] of this joint. *)
module Joint = struct
  open Requirements

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

  type joint = {
    table : Conflict.t;
    members : int array;
    shared : int array;
    clusters : int array;
    locals : int array array;
  }

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

  let joint_of (a : analysis) members =
    let k = a.num_clusters in
    let parts =
      partition (sorted a) ~groups:(k + 1) (fun x ->
          let m = members.(x) in
          if replicated m then 0 else 1 + lowest_cluster m)
    in
    {
      table = Lazy.force a.table;
      members;
      shared = parts.(0);
      clusters = Array.init k Fun.id;
      locals = Array.sub parts 1 k;
    }

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

  (* The bounds of the joint problem of [sched]'s assignment. *)
  let bounds a sched = lower_and_total (joint_of a (members a sched))
end
