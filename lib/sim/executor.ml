open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_regalloc
open Ncdrf_sched
open Ncdrf_core
module Telemetry = Ncdrf_telemetry.Telemetry
module Error = Ncdrf_error.Error

exception Corrupted of string

type outcome = {
  stores : Reference.store_event list;
  cycles : int;
  register_reads : int;
  capacity : int;
  port_stalls : int;
}

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupted s)) fmt

(* One rotating register file: value slots with provenance tags. *)
type file = {
  values : float array;
  tags : (int * int) option array;  (* (node, iteration) currently held *)
}

let make_file capacity =
  { values = Array.make (max capacity 1) 0.0; tags = Array.make (max capacity 1) None }

(* Where a value lives and in which subfiles, per the model. *)
type placement_info = {
  register : int;
  subfiles : int list;  (* indices of the files holding the value *)
}

type machine = {
  files : file array;
  capacity : int;
  placements : placement_info option array;  (* per node; None for stores *)
  read_file_of_cluster : int -> int;  (* consumer cluster -> file index *)
  read_caps : int option array;  (* per file, reads per cycle; None = open *)
  write_caps : int option array;  (* per file, writes per cycle *)
  reads_now : int array;  (* per file, current-cycle read demand *)
  writes_now : int array;  (* per file, current-cycle write demand *)
}

let physical machine ~register ~iteration =
  (((register + iteration) mod machine.capacity) + machine.capacity) mod machine.capacity

let write_value machine v ~iteration value =
  match machine.placements.(v) with
  | None -> ()
  | Some p ->
    let idx = physical machine ~register:p.register ~iteration in
    List.iter
      (fun f ->
        machine.writes_now.(f) <- machine.writes_now.(f) + 1;
        machine.files.(f).values.(idx) <- value;
        machine.files.(f).tags.(idx) <- Some (v, iteration))
      p.subfiles

let read_value machine ~consumer_cluster v ~iteration =
  match machine.placements.(v) with
  | None -> corrupt "read of a value-less node %d" v
  | Some p ->
    let fi = machine.read_file_of_cluster consumer_cluster in
    machine.reads_now.(fi) <- machine.reads_now.(fi) + 1;
    let file = machine.files.(fi) in
    let idx = physical machine ~register:p.register ~iteration in
    (match file.tags.(idx) with
     | Some (v', k') when v' = v && k' = iteration -> file.values.(idx)
     | Some (v', k') ->
       corrupt "register clobbered: wanted value of node %d iter %d, found node %d iter %d"
         v iteration v' k'
     | None -> corrupt "register read before write: node %d iter %d" v iteration)

let port_arrays cfg ~n_files ~per_cluster =
  let read_caps = Array.make n_files None in
  let write_caps = Array.make n_files None in
  (if per_cluster then
     Array.iteri
       (fun i (c : Config.cluster) ->
         read_caps.(i) <- c.Config.read_ports;
         write_caps.(i) <- c.Config.write_ports)
       cfg.Config.clusters);
  (read_caps, write_caps)

(* Build a machine for a unified rotating file.  Per-subfile port caps
   only apply when the whole machine is the one cluster. *)
let unified_machine sched =
  let ddg = sched.Schedule.ddg in
  let cfg = sched.Schedule.config in
  let ii = Schedule.ii sched in
  let lifetimes = Lifetime.of_schedule sched in
  let capacity = Alloc.min_capacity ~ii lifetimes in
  let placements = Array.make (Ddg.num_nodes ddg) None in
  (match Alloc.allocate ~ii ~capacity lifetimes with
   | Some placed ->
     List.iter
       (fun p ->
         placements.(p.Alloc.value.Lifetime.producer) <-
           Some { register = p.Alloc.register; subfiles = [ 0 ] })
       placed
   | None -> if lifetimes <> [] then corrupt "unified allocation failed");
  let read_caps, write_caps =
    port_arrays cfg ~n_files:1 ~per_cluster:(Config.num_clusters cfg = 1)
  in
  {
    files = [| make_file capacity |];
    capacity;
    placements;
    read_file_of_cluster = (fun _ -> 0);
    read_caps;
    write_caps;
    reads_now = Array.make 1 0;
    writes_now = Array.make 1 0;
  }

(* Build a machine for the non-consistent clustered register file: one
   subfile per cluster, each replicated value written to every subfile
   of its replica set, locals only to their cluster's. *)
let clustered_machine sched =
  let ddg = sched.Schedule.ddg in
  let cfg = sched.Schedule.config in
  let n_clusters = Config.num_clusters cfg in
  if n_clusters < 2 then
    Error.errorf ~stage:"execute" Error.Invalid_graph
      "Executor.run_clustered: machine %s has a single cluster (use run_unified)"
      cfg.Config.name;
  let alloc = Requirements.partitioned_allocation sched in
  let capacity = alloc.Requirements.capacity in
  let placements = Array.make (Ddg.num_nodes ddg) None in
  List.iter
    (fun (p, replicas) ->
      placements.(p.Alloc.value.Lifetime.producer) <-
        Some { register = p.Alloc.register; subfiles = replicas })
    alloc.Requirements.globals;
  Array.iteri
    (fun cluster placed ->
      List.iter
        (fun p ->
          placements.(p.Alloc.value.Lifetime.producer) <-
            Some { register = p.Alloc.register; subfiles = [ cluster ] })
        placed)
    alloc.Requirements.locals;
  let read_caps, write_caps = port_arrays cfg ~n_files:n_clusters ~per_cluster:true in
  {
    files = Array.init n_clusters (fun _ -> make_file capacity);
    capacity;
    placements;
    read_file_of_cluster = (fun c -> c);
    read_caps;
    write_caps;
    reads_now = Array.make n_clusters 0;
    writes_now = Array.make n_clusters 0;
  }

(* Extra cycles a subfile's port budget demands for [count] same-cycle
   accesses: a file with cap [c] serves [c] per cycle, so [count]
   accesses take [ceil(count / c)] cycles — [ceil - 1] stalls. *)
let stall_cycles ~count = function
  | Some cap when count > cap -> ((count + cap - 1) / cap) - 1
  | Some _ | None -> 0

let run_on machine sched ~iterations =
  let ddg = sched.Schedule.ddg in
  let cfg = sched.Schedule.config in
  let sched = Schedule.normalize sched in
  let ii = Schedule.ii sched in
  let loop = Ddg.name ddg in
  let n = Ddg.num_nodes ddg in
  let reads = ref 0 in
  let stores = ref [] in
  let spill_buffer : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
  (* Values computed at issue, written back at finish. *)
  let in_flight : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  (* Event lists per cycle. *)
  let last_cycle = ref 0 in
  let issues : (int, (int * int) list) Hashtbl.t = Hashtbl.create 256 in
  let finishes : (int, (int * int) list) Hashtbl.t = Hashtbl.create 256 in
  let push tbl t ev = Hashtbl.replace tbl t (ev :: (Option.value ~default:[] (Hashtbl.find_opt tbl t))) in
  for k = 0 to iterations - 1 do
    Ddg.iter_nodes ddg ~f:(fun node ->
        let v = node.Ddg.id in
        let t_issue = Schedule.cycle sched v + (k * ii) in
        let t_finish = t_issue + Config.latency cfg node.Ddg.opcode in
        push issues t_issue (v, k);
        if Opcode.produces_value node.Ddg.opcode then push finishes t_finish (v, k);
        if t_finish > !last_cycle then last_cycle := t_finish)
  done;
  let operands = Array.init n (Semantics.operand_edges ddg) in
  let origins = Array.init n (Semantics.origin ddg) in
  (* A value from before iteration 0 is its origin's live-in. *)
  let live_in v ~iteration =
    let o, d = origins.(v) in
    Semantics.live_in ~loop ~node_id:o ~iteration:(iteration - d)
  in
  let operand_values v k =
    let cluster = Schedule.cluster sched v in
    List.map
      (fun e ->
        let src_iter = k - e.Ddg.distance in
        if src_iter < 0 then live_in e.Ddg.src ~iteration:src_iter
        else begin
          incr reads;
          read_value machine ~consumer_cluster:cluster e.Ddg.src ~iteration:src_iter
        end)
      operands.(v)
  in
  let issue (v, k) =
    let node = Ddg.node ddg v in
    match node.Ddg.opcode with
    | Opcode.Load (Opcode.Array a) ->
      Hashtbl.replace in_flight (v, k) (Semantics.array_input ~array_name:a ~iteration:k)
    | Opcode.Load (Opcode.Spill slot) ->
      let _store, d = Semantics.spill_source ddg v in
      let x =
        if k - d < 0 then live_in v ~iteration:k
        else
          match Hashtbl.find_opt spill_buffer (slot, k - d) with
          | Some x -> x
          | None -> corrupt "spill slot %d read before write (iteration %d)" slot (k - d)
      in
      Hashtbl.replace in_flight (v, k) x
    | Opcode.Store location ->
      let value =
        match operand_values v k with
        | [ x ] -> x
        | [] -> Semantics.invariant ~loop ~node_id:v
        | x :: _ -> x
      in
      (match location with
       | Opcode.Array a ->
         stores := { Reference.array = a; iteration = k; value } :: !stores
       | Opcode.Spill slot -> Hashtbl.replace spill_buffer (slot, k) value)
    | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fcvt | Opcode.Fselect ->
      let x = Semantics.apply ~loop ~node_id:v node.Ddg.opcode (operand_values v k) in
      Hashtbl.replace in_flight (v, k) x
  in
  let finish (v, k) =
    match Hashtbl.find_opt in_flight (v, k) with
    | Some x ->
      Hashtbl.remove in_flight (v, k);
      write_value machine v ~iteration:k x
    | None -> corrupt "completion of an operation that never issued: node %d iter %d" v k
  in
  let n_files = Array.length machine.files in
  let port_stalls = ref 0 in
  let read_stalls = ref 0 in
  let write_stalls = ref 0 in
  for t = 0 to !last_cycle do
    Array.fill machine.reads_now 0 n_files 0;
    Array.fill machine.writes_now 0 n_files 0;
    (* Results land before same-cycle issues read them. *)
    List.iter finish (Option.value ~default:[] (Hashtbl.find_opt finishes t));
    List.iter issue (Option.value ~default:[] (Hashtbl.find_opt issues t));
    (* A subfile whose per-cycle read or write demand exceeds its port
       budget stalls the whole machine until the backlog drains —
       the same lockstep treatment the scheduler gives the machine-wide
       load/store ports, applied at execution time. *)
    let rs = ref 0 and ws = ref 0 in
    for f = 0 to n_files - 1 do
      rs := max !rs (stall_cycles ~count:machine.reads_now.(f) machine.read_caps.(f));
      ws := max !ws (stall_cycles ~count:machine.writes_now.(f) machine.write_caps.(f))
    done;
    read_stalls := !read_stalls + !rs;
    write_stalls := !write_stalls + !ws;
    port_stalls := !port_stalls + max !rs !ws
  done;
  if !read_stalls > 0 then Telemetry.incr ~by:!read_stalls "ports.read_stalls";
  if !write_stalls > 0 then Telemetry.incr ~by:!write_stalls "ports.write_stalls";
  {
    stores = List.sort compare !stores;
    cycles = !last_cycle + 1 + !port_stalls;
    register_reads = !reads;
    capacity = machine.capacity;
    port_stalls = !port_stalls;
  }

let run_unified ~iterations sched =
  run_on (unified_machine sched) sched ~iterations

let run_clustered ~iterations sched = run_on (clustered_machine sched) sched ~iterations
