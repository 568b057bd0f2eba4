open Ncdrf_ir

(* One flat table: [usage.((cluster * 3 + class) * ii + slot)] counts the
   busy units of a class (0 = adder, 1 = multiplier, 2 = ls) and, after
   the [3 * clusters] unit rows, one row each counts the machine-wide
   load and store port use per slot. *)
type t = {
  cfg : Config.t;
  ii : int;
  usage : int array;
  loads : int;  (* offset of the load-port row *)
}

let class_index op =
  match Opcode.fu_class op with
  | Opcode.Adder -> 0
  | Opcode.Multiplier -> 1
  | Opcode.Memory -> 2

let capacity cfg cluster cls =
  let c = cfg.Config.clusters.(cluster) in
  match cls with
  | 0 -> c.Config.adders
  | 1 -> c.Config.multipliers
  | _ -> c.Config.ls_units

let create cfg ~ii =
  if ii < 1 then invalid_arg "Reservation.create: ii must be >= 1";
  let loads = 3 * Config.num_clusters cfg * ii in
  { cfg; ii; usage = Array.make (loads + (2 * ii)) 0; loads }

let slot t cycle = ((cycle mod t.ii) + t.ii) mod t.ii

(* Index of the unit counter of [cls] in [cluster] at slot [s]. *)
let unit_at t ~cluster cls s = (((cluster * 3) + cls) * t.ii) + s

(* A caller's cluster must name a unit row, not a port row. *)
let check_cluster t cluster =
  if cluster < 0 || cluster >= Config.num_clusters t.cfg then
    invalid_arg "Reservation: cluster out of range"

let port_room t ~op ~cycle =
  let s = slot t cycle in
  if Opcode.is_load op then
    match t.cfg.Config.load_ports with
    | Some cap -> t.usage.(t.loads + s) < cap
    | None -> true
  else if Opcode.is_store op then
    match t.cfg.Config.store_ports with
    | Some cap -> t.usage.(t.loads + t.ii + s) < cap
    | None -> true
  else true

let port_saturated t ~op ~cycle = not (port_room t ~op ~cycle)

let cluster_room t ~op ~cycle ~cluster =
  check_cluster t cluster;
  let cls = class_index op in
  t.usage.(unit_at t ~cluster cls (slot t cycle)) < capacity t.cfg cluster cls

(* Bump every counter [op] holds at slot [s] in [cluster] by [by]. *)
let bump t ~op ~cluster s ~by =
  let u = unit_at t ~cluster (class_index op) s in
  t.usage.(u) <- t.usage.(u) + by;
  if Opcode.is_load op then t.usage.(t.loads + s) <- t.usage.(t.loads + s) + by
  else if Opcode.is_store op then
    t.usage.(t.loads + t.ii + s) <- t.usage.(t.loads + t.ii + s) + by

let reserve_in t ~op ~cycle ~cluster =
  if cluster_room t ~op ~cycle ~cluster && port_room t ~op ~cycle then begin
    bump t ~op ~cluster (slot t cycle) ~by:1;
    true
  end
  else false

let reserve t ~op ~cycle =
  if not (port_room t ~op ~cycle) then -1
  else begin
    let s = slot t cycle in
    let cls = class_index op in
    (* The cluster with the most free units of the class; ties go to
       the lowest index. *)
    let best = ref (-1) and best_free = ref 0 in
    for cluster = 0 to Config.num_clusters t.cfg - 1 do
      let free = capacity t.cfg cluster cls - t.usage.(unit_at t ~cluster cls s) in
      if free > !best_free then begin
        best := cluster;
        best_free := free
      end
    done;
    if !best >= 0 then bump t ~op ~cluster:!best s ~by:1;
    !best
  end

let release t ~op ~cycle ~cluster =
  check_cluster t cluster;
  let s = slot t cycle in
  if t.usage.(unit_at t ~cluster (class_index op) s) <= 0 then
    invalid_arg "Reservation.release: nothing reserved";
  if Opcode.is_load op && t.usage.(t.loads + s) <= 0 then
    invalid_arg "Reservation.release: load port underflow";
  if Opcode.is_store op && t.usage.(t.loads + t.ii + s) <= 0 then
    invalid_arg "Reservation.release: store port underflow";
  bump t ~op ~cluster s ~by:(-1)

let used t ~op ~cycle ~cluster =
  check_cluster t cluster;
  t.usage.(unit_at t ~cluster (class_index op) (slot t cycle))
