(* Shared fixtures: the paper's worked example and its hand-built
   schedule (paper Figures 3/4, cycles normalized to start at 0). *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

let example_ddg () = Ncdrf_workloads.Kernels.paper_example ()
let example_config () = Config.example ()

(* Loads and stores of a spill slot: the spiller's memory traffic. *)
let is_spill_access = function
  | Opcode.Load (Opcode.Spill _) | Opcode.Store (Opcode.Spill _) -> true
  | _ -> false

let node_by_label ddg label =
  let found =
    Ddg.fold_nodes ddg ~init:None ~f:(fun acc n ->
        if String.equal n.Ddg.label label then Some n else acc)
  in
  match found with
  | Some n -> n
  | None -> Alcotest.failf "no node labelled %s in %s" label (Ddg.name ddg)

(* The paper's schedule before swapping: left cluster (0) runs L1 L2 M3
   A4, right cluster (1) runs M5 A6 S7; II = 1. *)
let paper_schedule () =
  let ddg = example_ddg () in
  let config = example_config () in
  let table =
    [
      ("L1", 0, 0);
      ("L2", 0, 0);
      ("M3", 1, 0);
      ("A4", 4, 0);
      ("M5", 7, 1);
      ("A6", 10, 1);
      ("S7", 13, 1);
    ]
  in
  let placements = Array.make (Ddg.num_nodes ddg) { Schedule.cycle = 0; cluster = 0 } in
  let fill (label, cycle, cluster) =
    let node = node_by_label ddg label in
    placements.(node.Ddg.id) <- { Schedule.cycle; cluster }
  in
  List.iter fill table;
  Schedule.make ~config ~ii:1 ~placements ddg

(* The same schedule after the paper's manual swap of A4 and A6. *)
let paper_schedule_swapped () =
  let sched = paper_schedule () in
  let ddg = sched.Schedule.ddg in
  let a4 = node_by_label ddg "A4" and a6 = node_by_label ddg "A6" in
  Schedule.swap_clusters sched a4.Ddg.id a6.Ddg.id

let lifetime_of sched label =
  let ddg = sched.Schedule.ddg in
  let node = node_by_label ddg label in
  let all = Ncdrf_regalloc.Lifetime.of_schedule sched in
  match List.find_opt (fun l -> l.Ncdrf_regalloc.Lifetime.producer = node.Ddg.id) all with
  | Some l -> l
  | None -> Alcotest.failf "no lifetime for %s" label

let check_valid what sched =
  match Schedule.validate sched with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: invalid schedule: %s" what msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

(* A deterministic small machine zoo used across tests. *)
let configs () =
  [ Config.dual ~latency:3; Config.dual ~latency:6; Config.pxly ~parallelism:1 ~latency:3;
    Config.pxly ~parallelism:2 ~latency:6; Config.example () ]

(* Values by class: [(replicated, locals per cluster)], [Global] and
   [Shared] values both counting as replicated. *)
let class_counts sched =
  let locals = Array.make (Config.num_clusters sched.Schedule.config) 0 in
  let replicated = ref 0 in
  List.iter
    (fun (_, cls) ->
      match cls with
      | Ncdrf_core.Classify.Global | Ncdrf_core.Classify.Shared _ -> incr replicated
      | Ncdrf_core.Classify.Local c -> locals.(c) <- locals.(c) + 1)
    (Ncdrf_core.Classify.classify sched);
  (!replicated, locals)

(* A fresh store directory per test; the OS temp dir is cleaned up
   explicitly so reruns never see a previous run's entries. *)
let with_store_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ncdrf-test-store.%d.%d" (Unix.getpid ()) (Random.bits ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
