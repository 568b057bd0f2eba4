open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

type t = {
  producer : int;
  start : int;
  stop : int;
}

let length t = t.stop - t.start

let of_schedule sched =
  let ddg = sched.Schedule.ddg in
  let cfg = sched.Schedule.config in
  let ii = Schedule.ii sched in
  let lifetime node =
    if not (Opcode.produces_value node.Ddg.opcode) then None
    else begin
      let start = Schedule.cycle sched node.Ddg.id in
      let finish_of e =
        let consumer = Ddg.node ddg e.Ddg.dst in
        Schedule.cycle sched consumer.Ddg.id
        + (e.Ddg.distance * ii)
        + Config.latency cfg consumer.Ddg.opcode
      in
      let stop =
        match Ddg.consumers ddg node.Ddg.id with
        | [] -> start + Config.latency cfg node.Ddg.opcode
        | consumers -> List.fold_left (fun acc e -> max acc (finish_of e)) start consumers
      in
      Some { producer = node.Ddg.id; start; stop }
    end
  in
  Ddg.fold_nodes ddg ~init:[] ~f:(fun acc n ->
      match lifetime n with Some l -> l :: acc | None -> acc)
  |> List.rev

let ceil_div a b = if a <= 0 then 0 else (a + b - 1) / b

let live_at_slot t ~ii ~slot =
  let r = (((slot - t.start) mod ii) + ii) mod ii in
  ceil_div (length t - r) ii

let add_instances row ~ii ~start ~stop =
  let len = stop - start in
  if len <= 0 then 0
  else begin
    let slot = ref (((start mod ii) + ii) mod ii) in
    for _ = 1 to len mod ii do
      row.(!slot) <- row.(!slot) + 1;
      incr slot;
      if !slot = ii then slot := 0
    done;
    len / ii
  end

(* One walk of the lifetime list, accumulating per-slot occupancy into
   an array, instead of re-traversing the list once per kernel slot:
   this is the spiller's lower-bound hot path. *)
let max_live ~ii lifetimes =
  if ii <= 0 then 0
  else begin
    let live = Array.make ii 0 in
    let whole =
      List.fold_left
        (fun acc l -> acc + add_instances live ~ii ~start:l.start ~stop:l.stop)
        0 lifetimes
    in
    whole + Array.fold_left max 0 live
  end

let min_registers ~ii t = ceil_div (length t) ii
