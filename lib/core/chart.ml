open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_regalloc
open Ncdrf_sched

(* Widest chart, in columns; longer spans are scaled down. *)
let width = 72

let render sched =
  let sched = Schedule.normalize sched in
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let lifetimes = Lifetime.of_schedule sched in
  let span =
    List.fold_left (fun acc l -> max acc l.Lifetime.stop) 1 lifetimes
  in
  let scale = if span <= width then 1.0 else float_of_int width /. float_of_int span in
  let col t = int_of_float (float_of_int t *. scale) in
  let chart_width = col span + 1 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "lifetimes of %s (II=%d, %d values%s)\n" (Ddg.name ddg) ii
       (List.length lifetimes)
       (if scale < 1.0 then Printf.sprintf ", 1 col = %.1f cycles" (1.0 /. scale) else ""));
  let dual = Config.num_clusters sched.Schedule.config >= 2 in
  let class_of l =
    if not dual then "  "
    else Format.asprintf "%a" Classify.pp (Classify.value_class sched l.Lifetime.producer)
  in
  let sorted =
    List.sort (fun a b -> compare (a.Lifetime.start, a.Lifetime.producer)
                 (b.Lifetime.start, b.Lifetime.producer))
      lifetimes
  in
  List.iter
    (fun l ->
      let node = Ddg.node ddg l.Lifetime.producer in
      let from = col l.Lifetime.start and until = max (col l.Lifetime.start + 1) (col l.Lifetime.stop) in
      let line = Bytes.make chart_width '.' in
      for i = from to min (until - 1) (chart_width - 1) do
        Bytes.set line i '='
      done;
      Bytes.set line from '#';
      Buffer.add_string buf
        (Printf.sprintf "%-6s %s %s [%3d,%3d) len %3d regs %d\n" node.Ddg.label (class_of l)
           (Bytes.to_string line) l.Lifetime.start l.Lifetime.stop (Lifetime.length l)
           (Lifetime.min_registers ~ii l)))
    sorted;
  (* MaxLive per kernel slot. *)
  let live =
    List.init ii (fun slot ->
        List.fold_left (fun acc l -> acc + Lifetime.live_at_slot l ~ii ~slot) 0 lifetimes)
  in
  Buffer.add_string buf
    (Printf.sprintf "MaxLive per kernel slot: [%s]  (peak %d)\n"
       (String.concat "; " (List.map string_of_int live))
       (List.fold_left max 0 live));
  Buffer.contents buf
