open Ncdrf_ir
open Ncdrf_machine
module Error = Ncdrf_error.Error

let push_late sched ~eligible =
  let ddg = sched.Schedule.ddg in
  let cfg = sched.Schedule.config in
  let ii = Schedule.ii sched in
  let n = Ddg.num_nodes ddg in
  let cycle = Array.init n (fun v -> Schedule.cycle sched v) in
  let cluster = Array.init n (fun v -> Schedule.cluster sched v) in
  (* Rebuild the reservation table from the current placements. *)
  let rt = Reservation.create cfg ~ii in
  let book v =
    let op = (Ddg.node ddg v).Ddg.opcode in
    if not (Reservation.reserve_in rt ~op ~cycle:cycle.(v) ~cluster:cluster.(v)) then
      invalid_arg "Adjust.push_late: input schedule is resource-invalid"
  in
  for v = 0 to n - 1 do
    book v
  done;
  let weight e =
    Config.latency cfg (Ddg.node ddg e.Ddg.src).Ddg.opcode - (ii * e.Ddg.distance)
  in
  (* Latest cycle allowed by successors; earliest by predecessors. *)
  let lstart v =
    List.fold_left
      (fun acc e -> min acc (cycle.(e.Ddg.dst) - weight e))
      max_int (Ddg.succs ddg v)
  in
  let estart v =
    List.fold_left
      (fun acc e -> max acc (cycle.(e.Ddg.src) + weight e))
      min_int (Ddg.preds ddg v)
  in
  let try_move v =
    let node = Ddg.node ddg v in
    let hi = lstart v in
    if hi = max_int || hi <= cycle.(v) then ()
    else begin
      let lo = max (cycle.(v) + 1) (estart v) in
      let op = node.Ddg.opcode in
      Reservation.release rt ~op ~cycle:cycle.(v) ~cluster:cluster.(v);
      let rec attempt c =
        if c < lo then begin
          (* No later slot: put it back where it was.  The slot was just
             released, so failing to re-reserve it means the table is
             corrupt — raise a typed error rather than an assert that
             [-noassert] would erase, silently keeping the bad table. *)
          if not (Reservation.reserve_in rt ~op ~cycle:cycle.(v) ~cluster:cluster.(v))
          then
            Error.errorf ~loop:(Ddg.name ddg) ~ii ~stage:"schedule" Error.Internal
              "Adjust.push_late: lost the reservation of %s at cycle %d"
              node.Ddg.label cycle.(v)
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
  (* Latest-first so chained eligible nodes cascade downward. *)
  let order =
    List.sort
      (fun a b -> Int.compare cycle.(b.Ddg.id) cycle.(a.Ddg.id))
      (List.filter eligible (Ddg.nodes ddg))
  in
  List.iter (fun nd -> try_move nd.Ddg.id) order;
  let placements =
    Array.init n (fun v -> { Schedule.cycle = cycle.(v); cluster = cluster.(v) })
  in
  Schedule.normalize (Schedule.make ~config:cfg ~ii ~placements ddg)
