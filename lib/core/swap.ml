open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

type estimate =
  | Max_live
  | Exact

type stats = {
  swaps : int;
  initial_cost : int;
  final_cost : int;
}

let class_index opcode =
  match Opcode.fu_class opcode with
  | Opcode.Adder -> 0
  | Opcode.Multiplier -> 1
  | Opcode.Memory -> 2

(* Every pair of nodes with the same functional-unit class and the same
   kernel slot (cycle congruent modulo II), in all-pairs order
   (ascending [(a, b)] with [a < b]), as two arrays.  Each
   (class, slot) bucket is a chain of ascending node ids, so walking
   the chain after each node gives its pairs in order without scanning
   every pair of nodes.  Swapping two clusters moves no cycle, so the
   buckets — and the pairs — hold for a whole [improve] call. *)
let bucket_pairs sched =
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let n = Ddg.num_nodes ddg in
  let head = Array.make (3 * ii) (-1) and next = Array.make n (-1) in
  for v = n - 1 downto 0 do
    let slot = ((Schedule.cycle sched v mod ii) + ii) mod ii in
    let key = (class_index (Ddg.node ddg v).Ddg.opcode * ii) + slot in
    next.(v) <- head.(key);
    head.(key) <- v
  done;
  let count = ref 0 in
  for a = 0 to n - 1 do
    let b = ref next.(a) in
    while !b >= 0 do
      incr count;
      b := next.(!b)
    done
  done;
  let first = Array.make !count 0 and second = Array.make !count 0 in
  let p = ref 0 in
  for a = 0 to n - 1 do
    let b = ref next.(a) in
    while !b >= 0 do
      first.(!p) <- a;
      second.(!p) <- !b;
      incr p;
      b := next.(!b)
    done
  done;
  (first, second)

(* Candidates are the bucket pairs that currently sit on different
   clusters.  An exchange keeps each node's bucket but not its
   cluster, so when a bucket holds more than two nodes the candidate
   set changes from one swap to the next. *)
let candidates sched =
  let first, second = bucket_pairs sched in
  let pairs = ref [] in
  for p = Array.length first - 1 downto 0 do
    let a = first.(p) and b = second.(p) in
    if Schedule.cluster sched a <> Schedule.cluster sched b then pairs := (a, b) :: !pairs
  done;
  !pairs

(* Incremental per-cluster MaxLive.  Lifetimes and consumers depend
   only on cycles, so they come from the schedule's analysis; what a
   swap changes is which subfiles hold a value.  A value's member
   clusters are its consumers' clusters (its producer's cluster when it
   has none), so exchanging [a] and [b] can only move the values of [a]
   and [b] themselves and the values they consume.  Each cluster keeps
   a live-count row over the kernel slots, split as [base] (the
   [length / ii] instances a value has live at every slot) plus
   [partial] (one more instance in the [length mod ii] slots just past
   its start) — the same accumulation as [Lifetime.max_live] — so
   moving a value costs O(ii) at worst.  Cluster sets are int bit sets
   (bit [c] for cluster [c]; [Config.max_clusters] keeps them within
   one int), and the moves of a scored pair go to a preallocated undo
   log, so scoring a pair allocates nothing. *)
type rows = {
  ii : int;
  cluster : int array;  (* current cluster of every node *)
  consumer_start : int array;  (* the analysis's consumer rows *)
  consumers : int array;
  len : int array;  (* lifetime length by node id; 0 for stores *)
  start : int array;  (* kernel slot of each lifetime's start *)
  members : int array;  (* current member-cluster set of each value *)
  touch_start : int array;
  touches : int array;
      (* [touches.(touch_start.(v) .. touch_start.(v + 1) - 1)]: the
         values whose members depend on node [v]'s cluster — its own,
         and the values it consumes *)
  base : int array;
  partial : int array array;
  peak : int array;  (* per cluster: base + max partial *)
  undo_value : int array;  (* moves of the pair being scored *)
  undo_members : int array;
  mutable undo_len : int;
}

let members_of r v =
  let lo = r.consumer_start.(v) and hi = r.consumer_start.(v + 1) in
  if lo = hi then 1 lsl r.cluster.(v)
  else begin
    let set = ref 0 in
    for i = lo to hi - 1 do
      set := !set lor (1 lsl r.cluster.(r.consumers.(i)))
    done;
    !set
  end

let add r ~sign c v =
  let len = r.len.(v) in
  if len > 0 then begin
    r.base.(c) <- r.base.(c) + (sign * (len / r.ii));
    let row = r.partial.(c) in
    let slot = ref r.start.(v) in
    for _ = 1 to len mod r.ii do
      row.(!slot) <- row.(!slot) + sign;
      incr slot;
      if !slot = r.ii then slot := 0
    done
  end

let add_set r ~sign set v =
  let set = ref set and c = ref 0 in
  while !set <> 0 do
    if !set land 1 <> 0 then add r ~sign !c v;
    set := !set lsr 1;
    incr c
  done

let peak_of r c =
  let row = r.partial.(c) in
  let top = ref 0 in
  for s = 0 to r.ii - 1 do
    if row.(s) > !top then top := row.(s)
  done;
  r.base.(c) + !top

let rows_of (a : Requirements.analysis) sched =
  let n = Array.length a.value_of in
  let k = Config.num_clusters sched.Schedule.config in
  let ii = a.ii in
  let len = Array.make n 0 and start = Array.make n 0 in
  (* A node touches its own value and, once per flow edge, each value it
     consumes: count the rows, then fill own values first. *)
  let touch_start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let x = a.value_of.(v) in
    if x >= 0 then begin
      len.(v) <- a.stop.(x) - a.start.(x);
      start.(v) <- ((a.start.(x) mod ii) + ii) mod ii;
      touch_start.(v + 1) <- touch_start.(v + 1) + 1;
      for e = a.consumer_start.(v) to a.consumer_start.(v + 1) - 1 do
        let d = a.consumers.(e) in
        touch_start.(d + 1) <- touch_start.(d + 1) + 1
      done
    end
  done;
  let widest = ref 0 in
  for v = 0 to n - 1 do
    widest := max !widest touch_start.(v + 1);
    touch_start.(v + 1) <- touch_start.(v) + touch_start.(v + 1)
  done;
  let touches = Array.make touch_start.(n) 0 in
  let fill = Array.sub touch_start 0 n in
  let push d v =
    touches.(fill.(d)) <- v;
    fill.(d) <- fill.(d) + 1
  in
  for v = 0 to n - 1 do
    if a.value_of.(v) >= 0 then push v v
  done;
  for v = 0 to n - 1 do
    if a.value_of.(v) >= 0 then
      for e = a.consumer_start.(v) to a.consumer_start.(v + 1) - 1 do
        push a.consumers.(e) v
      done
  done;
  let r =
    {
      ii;
      cluster = Array.init n (Schedule.cluster sched);
      consumer_start = a.consumer_start;
      consumers = a.consumers;
      len;
      start;
      members = Array.make n 0;
      touch_start;
      touches;
      base = Array.make k 0;
      partial = Array.init k (fun _ -> Array.make ii 0);
      peak = Array.make k 0;
      undo_value = Array.make (2 * !widest) 0;
      undo_members = Array.make (2 * !widest) 0;
      undo_len = 0;
    }
  in
  for v = 0 to n - 1 do
    if a.value_of.(v) >= 0 then begin
      let m = members_of r v in
      r.members.(v) <- m;
      add_set r ~sign:1 m v
    end
  done;
  for c = 0 to k - 1 do
    r.peak.(c) <- peak_of r c
  done;
  r

let rows_cost r = Array.fold_left max 0 r.peak

let exchange r a b =
  let ca = r.cluster.(a) in
  r.cluster.(a) <- r.cluster.(b);
  r.cluster.(b) <- ca

let move r v ~dst =
  add_set r ~sign:(-1) r.members.(v) v;
  add_set r ~sign:1 dst v;
  r.members.(v) <- dst

(* Move every value touched by node [node] whose members changed,
   logging each move's old members so the caller can undo it; returns
   [touched] plus the clusters whose rows changed. *)
let move_changed r node touched =
  let touched = ref touched in
  for i = r.touch_start.(node) to r.touch_start.(node + 1) - 1 do
    let v = r.touches.(i) in
    let old = r.members.(v) and now = members_of r v in
    if old <> now then begin
      move r v ~dst:now;
      r.undo_value.(r.undo_len) <- v;
      r.undo_members.(r.undo_len) <- old;
      r.undo_len <- r.undo_len + 1;
      touched := !touched lor old lor now
    end
  done;
  !touched

(* Exchange [a] and [b] and move the values they touch.  Returns the
   set of clusters whose rows changed.  A value touched by both nodes
   is moved at most once: on its second visit its members are already
   current. *)
let apply r a b =
  exchange r a b;
  r.undo_len <- 0;
  move_changed r b (move_changed r a 0)

let score r a b =
  let touched = apply r a b in
  let cost = ref 0 in
  for c = 0 to Array.length r.peak - 1 do
    let p = if touched land (1 lsl c) <> 0 then peak_of r c else r.peak.(c) in
    if p > !cost then cost := p
  done;
  for i = r.undo_len - 1 downto 0 do
    move r r.undo_value.(i) ~dst:r.undo_members.(i)
  done;
  exchange r a b;
  !cost

let commit r a b =
  let touched = apply r a b in
  for c = 0 to Array.length r.peak - 1 do
    if touched land (1 lsl c) <> 0 then r.peak.(c) <- peak_of r c
  done

let cost ~estimate a sched =
  match estimate with
  | Max_live -> Requirements.max_live_cost_of a sched
  | Exact -> (Requirements.partitioned_of a sched).Requirements.requirement

(* Steepest descent: each pass scores every candidate and applies the
   first pair reaching the minimum, provided it is below the current
   cost.  [Max_live] scores through the incremental rows; [Exact]
   reallocates a swapped copy of the schedule per candidate. *)
let improve ?(estimate = Max_live) ?(max_passes = 1000) ?analysis sched =
  let a = match analysis with Some a -> a | None -> Requirements.analyse sched in
  if Config.num_clusters sched.Schedule.config < 2 then begin
    let c = cost ~estimate a sched in
    (sched, { swaps = 0; initial_cost = c; final_cost = c })
  end
  else begin
    let first, second = bucket_pairs sched in
    let current = ref sched in
    let initial_cost, score, commit =
      match estimate with
      | Max_live ->
        let r = rows_of a sched in
        (rows_cost r, score r, commit r)
      | Exact ->
        ( cost ~estimate a sched,
          (fun x y -> cost ~estimate a (Schedule.swap_clusters !current x y)),
          fun _ _ -> () )
    in
    let rec loop current_cost swaps passes =
      if passes >= max_passes then (current_cost, swaps)
      else begin
        (* The first cross-cluster pair reaching the minimum, if it is
           below the current cost. *)
        let best = ref (-1) and best_cost = ref current_cost in
        for p = 0 to Array.length first - 1 do
          let a = first.(p) and b = second.(p) in
          if Schedule.cluster !current a <> Schedule.cluster !current b then begin
            let c = score a b in
            if c < !best_cost then begin
              best := p;
              best_cost := c
            end
          end
        done;
        if !best < 0 then (current_cost, swaps)
        else begin
          let a = first.(!best) and b = second.(!best) in
          commit a b;
          current := Schedule.swap_clusters !current a b;
          loop !best_cost (swaps + 1) (passes + 1)
        end
      end
    in
    let final_cost, swaps = loop initial_cost 0 0 in
    (!current, { swaps; initial_cost; final_cost })
  end
