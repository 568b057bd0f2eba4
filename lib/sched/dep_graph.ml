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
  scc : int array;
  cycle_slots : int array;
  cycle_span : int;
  valid : bool;
}

(* The incoming rows: [Ddg.preds v] in order, keeping each edge's
   source, distance and kind. *)
let pred_rows ddg ~n ~m =
  let first = Array.make (n + 1) 0 in
  let src = Array.make m 0 and dist = Array.make m 0 and flow = Array.make m false in
  let rec fill k = function
    | [] -> k
    | e :: es ->
      src.(k) <- e.Ddg.src;
      dist.(k) <- e.Ddg.distance;
      flow.(k) <- e.Ddg.kind = Ddg.Flow;
      fill (k + 1) es
  in
  for v = 0 to n - 1 do
    first.(v + 1) <- fill first.(v) (Ddg.preds ddg v)
  done;
  (first, src, dist, flow)

(* Tarjan's strongly connected components over the succ rows, with
   explicit stacks instead of recursion.  Fills [comp] with each node's
   component id, numbering components in the order Tarjan closes them
   (a component's successors in the condensation first), and returns
   the size of the largest one.  [index], [low], [stack], [call] and
   [next] are [n]-sized scratch; [comp] and [index] start all -1. *)
let components ~n ~first ~dst ~comp ~index ~low ~stack ~call ~next =
  (* [stack]: visited nodes not yet in a component; [call]/[next]: the
     DFS path and each path node's next out-slot. *)
  let sp = ref 0 and cp = ref 0 and counter = ref 0 and ncomp = ref 0 and span = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      (* [w]: the node to enter next, or -1 when the tree is done *)
      let w = ref root in
      while !w >= 0 do
        let v = !w in
        index.(v) <- !counter;
        low.(v) <- !counter;
        incr counter;
        stack.(!sp) <- v;
        incr sp;
        call.(!cp) <- v;
        next.(!cp) <- first.(v);
        incr cp;
        w := -1;
        (* advance the top of the path to its next unvisited successor *)
        while !w < 0 && !cp > 0 do
          let v = call.(!cp - 1) and k = next.(!cp - 1) in
          if k < first.(v + 1) then begin
            next.(!cp - 1) <- k + 1;
            let x = dst.(k) in
            if index.(x) < 0 then w := x
            else if comp.(x) < 0 && index.(x) < low.(v) then low.(v) <- index.(x)
          end
          else begin
            decr cp;
            if low.(v) = index.(v) then begin
              let top = ref (-1) and size = ref 0 in
              while !top <> v do
                decr sp;
                top := stack.(!sp);
                comp.(!top) <- !ncomp;
                incr size
              done;
              incr ncomp;
              if !size > !span then span := !size
            end;
            if !cp > 0 then begin
              let u = call.(!cp - 1) in
              if low.(v) < low.(u) then low.(u) <- low.(v)
            end
          end
        done
      done
    end
  done;
  !span

(* Whether the distance-0 edges among the cycle [slots] close a cycle:
   Kahn's algorithm over that subgraph.  Every cycle lies inside one
   strongly connected component, so a zero-distance cycle is made of
   cycle slots only.  Slots ascend, so each node's slots are one run of
   [slots]; [indeg], [run] ([n + 1]) and [ready] are scratch. *)
let zero_distance_cycle ~n ~src ~dst ~dist slots ~indeg ~run ~ready =
  Array.fill indeg 0 n 0;
  Array.fill run 0 (n + 1) 0;
  let zero = ref 0 in
  for i = 0 to Array.length slots - 1 do
    let k = slots.(i) in
    run.(src.(k) + 1) <- run.(src.(k) + 1) + 1;
    if dist.(k) = 0 then begin
      indeg.(dst.(k)) <- indeg.(dst.(k)) + 1;
      incr zero
    end
  done;
  !zero > 0
  && begin
    for v = 0 to n - 1 do
      run.(v + 1) <- run.(v + 1) + run.(v)
    done;
    let top = ref 0 and removed = ref 0 in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then begin
        ready.(!top) <- v;
        incr top
      end
    done;
    while !top > 0 do
      decr top;
      let v = ready.(!top) in
      for i = run.(v) to run.(v + 1) - 1 do
        let k = slots.(i) in
        if dist.(k) = 0 then begin
          incr removed;
          let w = dst.(k) in
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then begin
            ready.(!top) <- w;
            incr top
          end
        end
      done
    done;
    !removed < !zero
  end

(* The out-edge slots whose two ends share a component, ascending. *)
let cycle_slots_of ~src ~dst (scc : int array) =
  let m = Array.length dst in
  let count = ref 0 in
  for k = 0 to m - 1 do
    if scc.(src.(k)) = scc.(dst.(k)) then incr count
  done;
  let slots = Array.make !count 0 in
  let i = ref 0 in
  for k = 0 to m - 1 do
    if scc.(src.(k)) = scc.(dst.(k)) then begin
      slots.(!i) <- k;
      incr i
    end
  done;
  slots

(* The graph the calling domain's last [spill] built: the spill loop
   builds each round's graph with [spill], and the round's scheduling
   step asks [make] for the same graph.  A systhread of the domain may
   replace it at any time; a stale entry is only a miss.  One graph per
   domain is held, never more, and only the spill loop sets it: a
   graph held here outlives the minor heap. *)
let last : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let flatten cfg ddg =
  let n = Ddg.num_nodes ddg and m = Ddg.num_edges ddg in
  (* Node arrays, and the checks of [Ddg.validate] that need no search
     (node ids; edge ends in range, distances non-negative, flow edges
     only out of value-producing nodes) while the succ rows fill. *)
  let well_formed = ref true in
  let op = Array.make n Opcode.Fadd in
  for v = 0 to n - 1 do
    let nd = Ddg.node ddg v in
    if nd.Ddg.id <> v then well_formed := false;
    op.(v) <- nd.Ddg.opcode
  done;
  let ends_in_range = ref true and forward = ref true in
  let succ_first = Array.make (n + 1) 0 and succ_src = Array.make m 0 in
  let succ_dst = Array.make m 0 and succ_dist = Array.make m 0 in
  let succ_flow = Array.make m false in
  let rec fill v value k = function
    | [] -> k
    | e :: es ->
      let w = e.Ddg.dst and flow = e.Ddg.kind = Ddg.Flow in
      if w < 0 || w >= n then ends_in_range := false;
      if w <= v then forward := false;
      if e.Ddg.distance < 0 || (flow && not value) then well_formed := false;
      succ_src.(k) <- v;
      succ_dst.(k) <- w;
      succ_dist.(k) <- e.Ddg.distance;
      succ_flow.(k) <- flow;
      fill v value (k + 1) es
  in
  for v = 0 to n - 1 do
    succ_first.(v + 1) <- fill v (Opcode.produces_value op.(v)) succ_first.(v) (Ddg.succs ddg v)
  done;
  let pred_first, pred_src, pred_dist, pred_flow = pred_rows ddg ~n ~m in
  let scc, cycle_slots, cycle_span, zero_cycle =
    if not !ends_in_range then
      (* An edge leaves the graph: no partition exists, and every slot
         counts as a cycle slot, so probes see the whole edge set. *)
      (Array.make n 0, Array.init m Fun.id, n, false)
    else if !forward then
      (* Every edge runs from a lower id to a higher one, so the ids
         order the graph topologically: no cycle, no search. *)
      (Array.init n Fun.id, [||], Int.min n 1, false)
    else begin
      let a = Array.make n (-1) and b = Array.make n 0 and c = Array.make (n + 1) 0 in
      let scc = Array.make n (-1) in
      let span =
        components ~n ~first:succ_first ~dst:succ_dst ~comp:scc ~index:a ~low:b
          ~stack:c ~call:(Array.make n 0) ~next:(Array.make n 0)
      in
      let slots = cycle_slots_of ~src:succ_src ~dst:succ_dst scc in
      ( scc,
        slots,
        span,
        zero_distance_cycle ~n ~src:succ_src ~dst:succ_dst ~dist:succ_dist slots ~indeg:a
          ~run:c ~ready:b )
    end
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
    scc;
    cycle_slots;
    cycle_span;
    valid = !ends_in_range && !well_formed && not zero_cycle;
  }

let make cfg ddg =
  match Domain.DLS.get last with
  | Some g when g.ddg == ddg && g.cfg == cfg -> g
  | Some _ | None -> flatten cfg ddg

(* The spilled graph is flattened afresh: deriving its components from
   [g]'s instead of a Tarjan pass measured no faster over the spill
   loop.  Remembering it lets the round's scheduling step skip the
   flattening. *)
let spill g v ~store ~reload =
  let g' = flatten g.cfg (Ddg.spill g.ddg v ~store ~reload) in
  Domain.DLS.set last (Some g');
  g'

let succ_weight g ~ii v k = g.lat.(v) - (ii * g.succ_dist.(k))
let pred_weight g ~ii k = g.lat.(g.pred_src.(k)) - (ii * g.pred_dist.(k))
