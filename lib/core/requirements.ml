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

let unified ?strategy ?order sched =
  let lifetimes = Lifetime.of_schedule sched in
  Alloc.min_capacity ?strategy ?order ~ii:(Schedule.ii sched) lifetimes

(* Lifetimes grouped by replication: [shared] values (Global or Shared
   class) with the sorted cluster set whose subfiles must hold them,
   plus per-cluster locals.  On a two-cluster machine every shared
   value's member set is all clusters, which is the paper's dual-file
   classification unchanged. *)
type groups = {
  shared : (Lifetime.t * int list) list;
  locals : Lifetime.t list array;
}

let grouped ?lifetimes sched =
  let n_clusters = Config.num_clusters sched.Schedule.config in
  let locals = Array.make n_clusters [] in
  let shared = ref [] in
  let place l =
    match Classify.value_class sched l.Lifetime.producer with
    | Classify.Local c -> locals.(c) <- l :: locals.(c)
    | cls ->
      shared := (l, Classify.clusters_of ~num_clusters:n_clusters cls) :: !shared
  in
  let all =
    match lifetimes with Some ls -> ls | None -> Lifetime.of_schedule sched
  in
  List.iter place all;
  { shared = List.rev !shared; locals = Array.map List.rev locals }

let grouped_lifetimes ?lifetimes sched =
  let g = grouped ?lifetimes sched in
  (List.map fst g.shared, g.locals)

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

(* Joint feasibility at a given capacity: place the shared values once
   (their registers are shared by every subfile holding them), then
   each cluster's locals on top of its own prefix. *)
let joint_feasible ?strategy ?order j capacity =
  match
    Alloc.allocate_table ?strategy ?order ~capacity j.gtable (global_indices j)
  with
  | None -> false
  | Some placed_globals ->
    let reg = Array.make (max 1 j.num_globals) (-1) in
    List.iter (fun (i, r) -> reg.(i) <- r) placed_globals;
    let cluster_fits c table =
      match local_indices j ~cluster:c table with
      | [] -> true
      | locals ->
        let placed =
          Array.to_list (Array.mapi (fun p gi -> (p, reg.(gi))) j.prefix.(c))
        in
        Alloc.allocate_table ?strategy ?order ~placed ~capacity table locals <> None
    in
    let ok = ref true in
    Array.iteri (fun c table -> if !ok then ok := cluster_fits c table) j.tables;
    !ok

(* Any pair sharing a table is co-allocated by [joint_feasible], so a
   pair width of [w] rules out every capacity <= w.  The search may
   start there; error messages still report the original lower bound. *)
let joint_floor j =
  Array.fold_left
    (fun acc t -> max acc (Conflict.max_width t + 1))
    (Conflict.max_width j.gtable + 1)
    j.tables

let joint_requirement_tables ?strategy ?order ?upper ~ii ~groups j =
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
      match upper with
      | Some u -> u
      | None ->
        (2
        * Lifetime.total_min_registers ~ii
            (globals @ List.concat (Array.to_list groups.locals)))
        + 64
    in
    let rec search capacity =
      if capacity > upper then
        Error.errorf ~ii ~stage:"alloc" Error.Alloc_infeasible
          "no feasible joint capacity in [%d, %d] (%d globals, %d clusters)" lower upper
          (List.length globals)
          (Array.length groups.locals)
      else if joint_feasible ?strategy ?order j capacity then capacity
      else search (capacity + 1)
    in
    search (max lower (joint_floor j))
  end

(* Public entry point where every "global" is replicated in every
   cluster — the historical dual-file shape. *)
let groups_of_globals ~globals ~locals =
  let members = List.init (max 1 (Array.length locals)) Fun.id in
  { shared = List.map (fun l -> (l, members)) globals; locals }

let joint_requirement ?strategy ?order ?upper ~ii ~globals ~locals () =
  let groups = groups_of_globals ~globals ~locals in
  joint_requirement_tables ?strategy ?order ?upper ~ii ~groups (joint_of ~ii groups)

type allocation = {
  capacity : int;
  globals : (Alloc.placement * int list) list;
  locals : Alloc.placement list array;
}

let partitioned_allocation ?strategy ?order sched =
  let ii = Schedule.ii sched in
  let groups = grouped sched in
  let j = joint_of ~ii groups in
  let capacity = joint_requirement_tables ?strategy ?order ~ii ~groups j in
  if capacity = 0 then
    { capacity = 0; globals = []; locals = Array.map (fun _ -> []) groups.locals }
  else begin
    let placements table pairs =
      List.map
        (fun (i, r) -> { Alloc.value = Conflict.lifetime table i; register = r })
        pairs
    in
    match
      Alloc.allocate_table ?strategy ?order ~capacity j.gtable (global_indices j)
    with
    | None ->
      Error.errorf ~ii ~stage:"alloc" Error.Internal
        "partitioned_allocation: globals do not fit capacity %d (bug)" capacity
    | Some placed_globals ->
      let members = Array.of_list (List.map snd groups.shared) in
      let reg = Array.make (max 1 j.num_globals) (-1) in
      List.iter (fun (i, r) -> reg.(i) <- r) placed_globals;
      let place_locals c table =
        match local_indices j ~cluster:c table with
        | [] -> []
        | locals ->
          let placed =
            Array.to_list (Array.mapi (fun p gi -> (p, reg.(gi))) j.prefix.(c))
          in
          (match
             Alloc.allocate_table ?strategy ?order ~placed ~capacity table locals
           with
           | Some p -> placements table p
           | None ->
             Error.errorf ~ii ~stage:"alloc" Error.Internal
               "partitioned_allocation: locals do not fit capacity %d (bug)" capacity)
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
let partitioned ?strategy ?order sched =
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
           joint_requirement_tables ?strategy ?order ~ii ~groups:groups_c j_c)
         groups.locals)
  in
  {
    requirement = joint_requirement_tables ?strategy ?order ~ii ~groups j;
    cluster_requirements;
    global_requirement =
      lazy (Alloc.min_capacity_table ?strategy ?order j.gtable (global_indices j));
    local_requirements =
      lazy
        (Array.mapi
           (fun c t ->
             Alloc.min_capacity_table ?strategy ?order t (local_indices j ~cluster:c t))
           j.tables);
    max_live = lazy (cluster_max_live sched);
  }
