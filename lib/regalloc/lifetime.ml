open Ncdrf_ir
open Ncdrf_sched

type t = {
  producer : int;
  start : int;
  stop : int;
}

let length t = t.stop - t.start

let of_graph (g : Dep_graph.t) sched =
  let ii = Schedule.ii sched in
  let rec collect v acc =
    if v < 0 then acc
    else if not (Opcode.produces_value g.op.(v)) then collect (v - 1) acc
    else begin
      let start = Schedule.cycle sched v in
      let lo = g.succ_first.(v) and hi = g.succ_first.(v + 1) in
      let stop = ref start and consumed = ref false in
      for k = lo to hi - 1 do
        if g.succ_flow.(k) then begin
          let w = g.succ_dst.(k) in
          let finish = Schedule.cycle sched w + (g.succ_dist.(k) * ii) + g.lat.(w) in
          consumed := true;
          if finish > !stop then stop := finish
        end
      done;
      let stop = if !consumed then !stop else start + g.lat.(v) in
      collect (v - 1) ({ producer = v; start; stop } :: acc)
    end
  in
  collect (g.n - 1) []

let of_schedule sched =
  of_graph (Dep_graph.make sched.Schedule.config sched.Schedule.ddg) sched

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
    whole + Array.fold_left Int.max 0 live
  end

let min_registers ~ii t = ceil_div (length t) ii
