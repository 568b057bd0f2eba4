open Ncdrf_ir
open Ncdrf_machine

type t = {
  cfg : Config.t;
  ddg : Ddg.t;
  n : int;
  op : Opcode.t array;
  fu : Opcode.fu_class array;
  lat : int array;
  succ_first : int array;
  succ_src : int array;
  succ_dst : int array;
  succ_dist : int array;
  succ_flow : bool array;
  pred_first : int array;
  pred_src : int array;
  pred_dist : int array;
  pred_flow : bool array;
}

(* One direction's compressed rows: [edges_of v] in order, keeping the
   far end ([other]), the distance and whether the edge is a flow
   dependence. *)
let rows ddg ~n ~edges_of ~other =
  let m = Ddg.num_edges ddg in
  let first = Array.make (n + 1) 0 in
  let ends = Array.make m 0 and dist = Array.make m 0 and flow = Array.make m false in
  let rec fill k = function
    | [] -> k
    | e :: es ->
      ends.(k) <- other e;
      dist.(k) <- e.Ddg.distance;
      flow.(k) <- e.Ddg.kind = Ddg.Flow;
      fill (k + 1) es
  in
  for v = 0 to n - 1 do
    first.(v + 1) <- fill first.(v) (edges_of ddg v)
  done;
  (first, ends, dist, flow)

let make cfg ddg =
  let n = Ddg.num_nodes ddg in
  let op = Array.init n (fun v -> (Ddg.node ddg v).Ddg.opcode) in
  let succ_first, succ_dst, succ_dist, succ_flow =
    rows ddg ~n ~edges_of:Ddg.succs ~other:(fun e -> e.Ddg.dst)
  in
  let succ_src = Array.make (Array.length succ_dst) 0 in
  for v = 0 to n - 1 do
    Array.fill succ_src succ_first.(v) (succ_first.(v + 1) - succ_first.(v)) v
  done;
  let pred_first, pred_src, pred_dist, pred_flow =
    rows ddg ~n ~edges_of:Ddg.preds ~other:(fun e -> e.Ddg.src)
  in
  {
    cfg;
    ddg;
    n;
    op;
    fu = Array.map Opcode.fu_class op;
    lat = Array.map (Config.latency cfg) op;
    succ_first;
    succ_src;
    succ_dst;
    succ_dist;
    succ_flow;
    pred_first;
    pred_src;
    pred_dist;
    pred_flow;
  }

let succ_weight g ~ii v k = g.lat.(v) - (ii * g.succ_dist.(k))
let pred_weight g ~ii k = g.lat.(g.pred_src.(k)) - (ii * g.pred_dist.(k))
