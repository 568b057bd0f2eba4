open Ncdrf_ir

type t = {
  cfg : Config.t;
  ii : int;
  (* usage.(cluster).(class).(slot) with class 0=adder 1=multiplier 2=ls *)
  usage : int array array array;
  load_use : int array;  (* per slot *)
  store_use : int array;
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
  let n_clusters = Config.num_clusters cfg in
  let usage =
    Array.init n_clusters (fun _ -> Array.init 3 (fun _ -> Array.make ii 0))
  in
  { cfg; ii; usage; load_use = Array.make ii 0; store_use = Array.make ii 0 }

let ii t = t.ii
let config t = t.cfg
let slot t cycle = ((cycle mod t.ii) + t.ii) mod t.ii

let port_room t ~op ~cycle =
  let s = slot t cycle in
  if Opcode.is_load op then
    match t.cfg.Config.load_ports with
    | Some cap -> t.load_use.(s) < cap
    | None -> true
  else if Opcode.is_store op then
    match t.cfg.Config.store_ports with
    | Some cap -> t.store_use.(s) < cap
    | None -> true
  else true

let port_saturated t ~op ~cycle = not (port_room t ~op ~cycle)

let cluster_room t ~op ~cycle ~cluster =
  let s = slot t cycle in
  let cls = class_index op in
  t.usage.(cluster).(cls).(s) < capacity t.cfg cluster cls

let book t ~op ~cycle ~cluster =
  let s = slot t cycle in
  let cls = class_index op in
  t.usage.(cluster).(cls).(s) <- t.usage.(cluster).(cls).(s) + 1;
  if Opcode.is_load op then t.load_use.(s) <- t.load_use.(s) + 1
  else if Opcode.is_store op then t.store_use.(s) <- t.store_use.(s) + 1

let reserve_in t ~op ~cycle ~cluster =
  if cluster_room t ~op ~cycle ~cluster && port_room t ~op ~cycle then begin
    book t ~op ~cycle ~cluster;
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
      let free = capacity t.cfg cluster cls - t.usage.(cluster).(cls).(s) in
      if free > !best_free then begin
        best := cluster;
        best_free := free
      end
    done;
    if !best >= 0 then book t ~op ~cycle ~cluster:!best;
    !best
  end

let release t ~op ~cycle ~cluster =
  let s = slot t cycle in
  let cls = class_index op in
  if t.usage.(cluster).(cls).(s) <= 0 then
    invalid_arg "Reservation.release: nothing reserved";
  t.usage.(cluster).(cls).(s) <- t.usage.(cluster).(cls).(s) - 1;
  if Opcode.is_load op then begin
    if t.load_use.(s) <= 0 then invalid_arg "Reservation.release: load port underflow";
    t.load_use.(s) <- t.load_use.(s) - 1
  end
  else if Opcode.is_store op then begin
    if t.store_use.(s) <= 0 then invalid_arg "Reservation.release: store port underflow";
    t.store_use.(s) <- t.store_use.(s) - 1
  end

let used t ~op ~cycle ~cluster =
  let s = slot t cycle in
  t.usage.(cluster).(class_index op).(s)
