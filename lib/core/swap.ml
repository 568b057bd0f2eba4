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
   only on cycles, so they come from the schedule's analysis, and the
   rows start from the analysis's occupancy of the schedule's own
   assignment; what a swap changes is which subfiles hold a value.  A
   value's member clusters are its consumers' clusters (its producer's
   cluster when it has none), so exchanging [a] and [b] can only move
   the values of [a] and [b] themselves and the values they consume.
   Each cluster keeps a live-count row over the kernel slots, split as
   [whole] (the [length / ii] instances a value has live at every slot)
   plus [rows] (one more instance in the [length mod ii] slots just
   past its start) — the same accumulation as [Lifetime.max_live] — so
   moving a value costs O(ii) at worst.  Cluster sets are int bit sets
   (bit [c] for cluster [c]; [Config.max_clusters] keeps them within
   one int), and the moves of a scored pair go to a preallocated undo
   log, so scoring a pair allocates nothing. *)
type rows = {
  ii : int;
  cluster : int array;  (* current cluster of every node *)
  producer : int array;  (* the analysis's value -> node map *)
  consumer_start : int array;  (* the analysis's consumer rows *)
  consumers : int array;
  span : int array;
      (* per value [x] at [3 * x]: its whole instances, the slots it
         covers once more, and the kernel slot of its start *)
  touch_start : int array;
  touches : int array;
      (* [touches.(touch_start.(v) .. touch_start.(v + 1) - 1)]: the
         values whose members depend on node [v]'s cluster — its own,
         and the values it consumes *)
  occ : Requirements.occupancy;  (* current members, rows and peaks *)
  undo_value : int array;  (* moves of the pair being scored *)
  undo_members : int array;
  mutable undo_len : int;
}

let members_of r x =
  let v = r.producer.(x) in
  let lo = r.consumer_start.(v) and hi = r.consumer_start.(v + 1) in
  if lo = hi then 1 lsl r.cluster.(v)
  else begin
    let set = ref 0 in
    for i = lo to hi - 1 do
      set := !set lor (1 lsl r.cluster.(r.consumers.(i)))
    done;
    !set
  end

let add r ~sign c x =
  let occ = r.occ in
  occ.whole.(c) <- occ.whole.(c) + (sign * r.span.(3 * x));
  let row = occ.rows.(c) in
  let slot = ref r.span.((3 * x) + 2) in
  for _ = 1 to r.span.((3 * x) + 1) do
    row.(!slot) <- row.(!slot) + sign;
    incr slot;
    if !slot = r.ii then slot := 0
  done

let add_set r ~sign set x =
  let set = ref set and c = ref 0 in
  while !set <> 0 do
    if !set land 1 <> 0 then add r ~sign !c x;
    set := !set lsr 1;
    incr c
  done

let peak_of r c =
  let row = r.occ.rows.(c) in
  let top = ref 0 in
  for s = 0 to r.ii - 1 do
    if row.(s) > !top then top := row.(s)
  done;
  r.occ.whole.(c) + !top

let rows_of (a : Requirements.analysis) sched =
  let n = Array.length a.value_of and values = Array.length a.start in
  let ii = a.ii in
  let span = Array.make (3 * values) 0 in
  for x = 0 to values - 1 do
    let len = a.stop.(x) - a.start.(x) in
    if len > 0 then begin
      span.(3 * x) <- len / ii;
      span.((3 * x) + 1) <- len mod ii;
      span.((3 * x) + 2) <- ((a.start.(x) mod ii) + ii) mod ii
    end
  done;
  (* A node touches its own value and, once per flow edge, each value it
     consumes: count the rows, then fill own values first. *)
  let touch_start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    if a.value_of.(v) >= 0 then begin
      touch_start.(v + 1) <- touch_start.(v + 1) + 1;
      for e = a.consumer_start.(v) to a.consumer_start.(v + 1) - 1 do
        let d = a.consumers.(e) in
        touch_start.(d + 1) <- touch_start.(d + 1) + 1
      done
    end
  done;
  let widest = ref 0 in
  for v = 0 to n - 1 do
    widest := Int.max !widest touch_start.(v + 1);
    touch_start.(v + 1) <- touch_start.(v) + touch_start.(v + 1)
  done;
  let touches = Array.make touch_start.(n) 0 in
  let fill = Array.sub touch_start 0 n in
  let push d x =
    touches.(fill.(d)) <- x;
    fill.(d) <- fill.(d) + 1
  in
  for v = 0 to n - 1 do
    let x = a.value_of.(v) in
    if x >= 0 then push v x
  done;
  for v = 0 to n - 1 do
    let x = a.value_of.(v) in
    if x >= 0 then
      for e = a.consumer_start.(v) to a.consumer_start.(v + 1) - 1 do
        push a.consumers.(e) x
      done
  done;
  let start = Requirements.occupancy_of a sched in
  {
    ii;
    cluster = Array.init n (Schedule.cluster sched);
    producer = a.producer;
    consumer_start = a.consumer_start;
    consumers = a.consumers;
    span;
    touch_start;
    touches;
    occ =
      {
        Requirements.members = Array.copy start.Requirements.members;
        whole = Array.copy start.Requirements.whole;
        rows = Array.map Array.copy start.Requirements.rows;
        peaks = Array.copy start.Requirements.peaks;
      };
    undo_value = Array.make (2 * !widest) 0;
    undo_members = Array.make (2 * !widest) 0;
    undo_len = 0;
  }

let rows_cost r =
  let cost = ref 0 in
  Array.iter (fun p -> cost := Int.max !cost p) r.occ.peaks;
  !cost

let exchange cluster a b =
  let ca = cluster.(a) in
  cluster.(a) <- cluster.(b);
  cluster.(b) <- ca

(* Only the clusters that gain or lose the value change rows. *)
let move r x ~dst =
  let old = r.occ.members.(x) in
  add_set r ~sign:(-1) (old land lnot dst) x;
  add_set r ~sign:1 (dst land lnot old) x;
  r.occ.members.(x) <- dst

(* Move every value touched by node [node] whose members changed,
   logging each move's old members so the caller can undo it; returns
   [touched] plus the clusters that gained or lost a value. *)
let move_changed r node touched =
  let touched = ref touched in
  for i = r.touch_start.(node) to r.touch_start.(node + 1) - 1 do
    let x = r.touches.(i) in
    let old = r.occ.members.(x) and now = members_of r x in
    if old <> now then begin
      move r x ~dst:now;
      r.undo_value.(r.undo_len) <- x;
      r.undo_members.(r.undo_len) <- old;
      r.undo_len <- r.undo_len + 1;
      touched := !touched lor (old lxor now)
    end
  done;
  !touched

(* Exchange [a] and [b] and move the values they touch.  Returns the
   set of clusters whose rows changed.  A value touched by both nodes
   is moved at most once: on its second visit its members are already
   current. *)
let apply r a b =
  exchange r.cluster a b;
  r.undo_len <- 0;
  move_changed r b (move_changed r a 0)

(* [peak_of], or any value of at least [bound] once the peak reaches it. *)
let peak_below r c ~bound =
  let row = r.occ.rows.(c) and whole = r.occ.whole.(c) in
  let top = ref 0 and s = ref 0 in
  while !s < r.ii && whole + !top < bound do
    if row.(!s) > !top then top := row.(!s);
    incr s
  done;
  whole + !top

(* The estimate after exchanging [a] and [b], or any value of at least
   [bound] when it is not below [bound] (the caller only keeps a pair
   scoring below its best so far).  Only the subfiles of the two
   clusters involved gain or lose values, so a third cluster already at
   [bound] rules the pair out before anything moves. *)
let score r ~bound a b =
  let ca = r.cluster.(a) and cb = r.cluster.(b) in
  let peaks = r.occ.peaks in
  let cost = ref 0 in
  for c = 0 to Array.length peaks - 1 do
    if c <> ca && c <> cb && peaks.(c) > !cost then cost := peaks.(c)
  done;
  if !cost < bound then begin
    let touched = apply r a b in
    if touched land (1 lsl ca) <> 0 then cost := Int.max !cost (peak_below r ca ~bound)
    else cost := Int.max !cost peaks.(ca);
    if !cost < bound then
      if touched land (1 lsl cb) <> 0 then cost := Int.max !cost (peak_below r cb ~bound)
      else cost := Int.max !cost peaks.(cb);
    for i = r.undo_len - 1 downto 0 do
      move r r.undo_value.(i) ~dst:r.undo_members.(i)
    done;
    exchange r.cluster a b
  end;
  !cost

let commit r a b =
  let touched = apply r a b in
  for c = 0 to Array.length r.occ.peaks - 1 do
    if touched land (1 lsl c) <> 0 then r.occ.peaks.(c) <- peak_of r c
  done

(* Steepest descent: each pass scores every candidate and applies the
   first pair reaching the minimum, provided it is below the current
   cost.  [score] sees the schedule before the exchange it scores and
   the best cost so far, below which alone its answer must be exact;
   [cluster] is every node's current cluster, kept by [commit]. *)
let descend ~max_passes ~(cluster : int array) ~score ~commit ~initial_cost sched =
  let first, second = bucket_pairs sched in
  let current = ref sched in
  let rec loop current_cost swaps passes =
    if passes >= max_passes then (current_cost, swaps)
    else begin
      (* The first cross-cluster pair reaching the minimum, if it is
         below the current cost. *)
      let best = ref (-1) and best_cost = ref current_cost in
      for p = 0 to Array.length first - 1 do
        let a = first.(p) and b = second.(p) in
        if cluster.(a) <> cluster.(b) then begin
          let c = score !current ~bound:!best_cost a b in
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

let single_cluster sched = Config.num_clusters sched.Schedule.config < 2

let improve_occupancy ?(max_passes = 1000) (a : Requirements.analysis) sched =
  if single_cluster sched then begin
    let c = Requirements.max_live_cost_of a sched in
    (sched, { swaps = 0; initial_cost = c; final_cost = c }, Requirements.occupancy_of a sched)
  end
  else begin
    let r = rows_of a sched in
    let swapped, stats =
      descend ~max_passes ~cluster:r.cluster
        ~score:(fun _ ~bound x y -> score r ~bound x y)
        ~commit:(commit r) ~initial_cost:(rows_cost r) sched
    in
    (swapped, stats, r.occ)
  end

(* [Exact] reallocates a swapped copy of the schedule per candidate. *)
let improve ?(estimate = Max_live) ?(max_passes = 1000) ?analysis sched =
  let a = match analysis with Some a -> a | None -> Requirements.analyse sched in
  match estimate with
  | Max_live ->
    let swapped, stats, _ = improve_occupancy ~max_passes a sched in
    (swapped, stats)
  | Exact ->
    let cost s = (Requirements.partitioned_of a s).Requirements.requirement in
    let c = cost sched in
    if single_cluster sched then (sched, { swaps = 0; initial_cost = c; final_cost = c })
    else begin
      let cluster = Array.init (Ddg.num_nodes sched.Schedule.ddg) (Schedule.cluster sched) in
      descend ~max_passes ~cluster
        ~score:(fun current ~bound:_ x y -> cost (Schedule.swap_clusters current x y))
        ~commit:(fun x y -> exchange cluster x y)
        ~initial_cost:c sched
    end
