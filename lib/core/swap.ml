open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc

type estimate =
  | Max_live
  | Exact

type stats = {
  swaps : int;
  initial_cost : int;
  final_cost : int;
}

(* Every pair of nodes with the same functional-unit class and the same
   kernel slot (cycle congruent modulo II), in all-pairs order
   (ascending [(a, b)] with [a < b]).  Bucketing by [(fu_class, cycle
   mod ii)] avoids the quadratic scan on heavy generated loops where
   most pairs fail the class/slot test.  Swapping two clusters moves no
   cycle, so the buckets — and this list — hold for a whole [improve]
   call. *)
let bucket_pairs sched =
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  let slot cycle = ((cycle mod ii) + ii) mod ii in
  let buckets : (Opcode.fu_class * int, int list) Hashtbl.t = Hashtbl.create 16 in
  let pairs = ref [] in
  List.iter
    (fun b ->
      let key = (Opcode.fu_class b.Ddg.opcode, slot (Schedule.cycle sched b.Ddg.id)) in
      let earlier = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
      List.iter (fun a_id -> pairs := (a_id, b.Ddg.id) :: !pairs) earlier;
      Hashtbl.replace buckets key (b.Ddg.id :: earlier))
    (Ddg.nodes ddg);
  List.sort
    (fun (a1, b1) (a2, b2) ->
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare b1 b2)
    !pairs

(* Candidates are the bucket pairs that currently sit on different
   clusters.  An exchange keeps each node's bucket but not its
   cluster, so when a bucket holds more than two nodes the candidate
   set changes from one swap to the next. *)
let cross_cluster ~cluster pairs = List.filter (fun (a, b) -> cluster a <> cluster b) pairs

let candidates sched = cross_cluster ~cluster:(Schedule.cluster sched) (bucket_pairs sched)

(* Incremental per-cluster MaxLive.  Lifetimes depend only on cycles,
   so they are computed once; what a swap changes is which subfiles
   hold a value.  A value's member clusters are its consumers' clusters
   (its producer's cluster when it has none), so exchanging [a] and [b]
   can only move the values of [a] and [b] themselves and the values
   they consume.  Each cluster keeps a live-count row over the kernel
   slots, split as [base] (the [length / ii] instances a value has live
   at every slot) plus [partial] (one more instance in the
   [length mod ii] slots just past its start) — the same accumulation
   as [Lifetime.max_live] — so moving a value costs O(ii) at worst.
   Cluster sets are int bit sets (bit [c] for cluster [c];
   [Config.max_clusters] keeps them within one int), and the moves of a
   scored pair go to a preallocated undo log, so scoring a pair
   allocates nothing. *)
type rows = {
  ii : int;
  cluster : int array;  (* current cluster of every node *)
  consumers : int array array;  (* flow consumers of each node *)
  len : int array;  (* lifetime length by node id; 0 for stores *)
  start : int array;  (* kernel slot of each lifetime's start *)
  members : int array;  (* current member-cluster set of each value *)
  touches : int array array;
      (* values whose members depend on the node's cluster: its own,
         and the values it consumes *)
  base : int array;
  partial : int array array;
  peak : int array;  (* per cluster: base + max partial *)
  undo_value : int array;  (* moves of the pair being scored *)
  undo_members : int array;
  mutable undo_len : int;
}

let members_of r v =
  let cs = r.consumers.(v) in
  if Array.length cs = 0 then 1 lsl r.cluster.(v)
  else begin
    let set = ref 0 in
    for i = 0 to Array.length cs - 1 do
      set := !set lor (1 lsl r.cluster.(cs.(i)))
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

let rows_of sched =
  let ddg = sched.Schedule.ddg in
  let n = Ddg.num_nodes ddg in
  let k = Config.num_clusters sched.Schedule.config in
  let ii = Schedule.ii sched in
  let has_value = Array.make n false in
  let len = Array.make n 0 and start = Array.make n 0 in
  List.iter
    (fun l ->
      let v = l.Lifetime.producer in
      has_value.(v) <- true;
      len.(v) <- Lifetime.length l;
      start.(v) <- ((l.Lifetime.start mod ii) + ii) mod ii)
    (Lifetime.of_schedule sched);
  let touches =
    Array.init n (fun v ->
        let consumed =
          List.filter_map
            (fun e ->
              if e.Ddg.kind = Ddg.Flow && has_value.(e.Ddg.src) then Some e.Ddg.src
              else None)
            (Ddg.preds ddg v)
        in
        Array.of_list (if has_value.(v) then v :: consumed else consumed))
  in
  let widest = Array.fold_left (fun acc t -> max acc (Array.length t)) 0 touches in
  let r =
    {
      ii;
      cluster = Array.init n (Schedule.cluster sched);
      consumers =
        Array.init n (fun v ->
            Array.of_list (List.map (fun e -> e.Ddg.dst) (Ddg.consumers ddg v)));
      len;
      start;
      members = Array.make n 0;
      touches;
      base = Array.make k 0;
      partial = Array.init k (fun _ -> Array.make ii 0);
      peak = Array.make k 0;
      undo_value = Array.make (2 * widest) 0;
      undo_members = Array.make (2 * widest) 0;
      undo_len = 0;
    }
  in
  for v = 0 to n - 1 do
    if has_value.(v) then begin
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

(* Move every value of [values] whose members changed, logging each
   move's old members so the caller can undo it; returns [touched] plus
   the clusters whose rows changed. *)
let move_changed r values touched =
  let touched = ref touched in
  for i = 0 to Array.length values - 1 do
    let v = values.(i) in
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
  move_changed r r.touches.(b) (move_changed r r.touches.(a) 0)

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

let cost ~estimate sched =
  match estimate with
  | Max_live -> Requirements.max_live_cost sched
  | Exact -> (Requirements.partitioned sched).Requirements.requirement

(* Steepest descent: each pass scores every candidate and applies the
   first pair reaching the minimum, provided it is below the current
   cost.  [Max_live] scores through the incremental rows; [Exact]
   reallocates a swapped copy of the schedule per candidate. *)
let improve ?(estimate = Max_live) ?(max_passes = 1000) sched =
  if Config.num_clusters sched.Schedule.config < 2 then begin
    let c = cost ~estimate sched in
    (sched, { swaps = 0; initial_cost = c; final_cost = c })
  end
  else begin
    let pairs = bucket_pairs sched in
    let current = ref sched in
    let initial_cost, score, commit =
      match estimate with
      | Max_live ->
        let r = rows_of sched in
        (rows_cost r, score r, commit r)
      | Exact ->
        ( cost ~estimate sched,
          (fun a b -> cost ~estimate (Schedule.swap_clusters !current a b)),
          fun _ _ -> () )
    in
    let first = Array.of_list (List.map fst pairs)
    and second = Array.of_list (List.map snd pairs) in
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
