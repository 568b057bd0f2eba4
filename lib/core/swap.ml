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
   as [Lifetime.max_live] — so moving a value costs O(ii) at worst. *)
type rows = {
  ii : int;
  ddg : Ddg.t;
  cluster : int array;  (* current cluster of every node *)
  lifetime : Lifetime.t option array;  (* by node id; [None] for stores *)
  members : int list array;  (* current member clusters of each value *)
  touches : int list array;
      (* values whose members depend on the node's cluster: its own,
         and the values it consumes *)
  base : int array;
  partial : int array array;
  peak : int array;  (* per cluster: base + max partial *)
}

let members_of r v =
  match Ddg.consumers r.ddg v with
  | [] -> [ r.cluster.(v) ]
  | es -> List.sort_uniq Int.compare (List.map (fun e -> r.cluster.(e.Ddg.dst)) es)

let add r ~sign c (l : Lifetime.t) =
  let len = Lifetime.length l in
  if len > 0 then begin
    r.base.(c) <- r.base.(c) + (sign * (len / r.ii));
    let row = r.partial.(c) in
    let start = ((l.Lifetime.start mod r.ii) + r.ii) mod r.ii in
    for k = 0 to (len mod r.ii) - 1 do
      let slot = (start + k) mod r.ii in
      row.(slot) <- row.(slot) + sign
    done
  end

let peak_of r c = r.base.(c) + Array.fold_left max 0 r.partial.(c)

let rows_of sched =
  let ddg = sched.Schedule.ddg in
  let n = Ddg.num_nodes ddg in
  let k = Config.num_clusters sched.Schedule.config in
  let ii = Schedule.ii sched in
  let lifetime = Array.make n None in
  List.iter (fun l -> lifetime.(l.Lifetime.producer) <- Some l) (Lifetime.of_schedule sched);
  let touches =
    Array.init n (fun v ->
        let consumed =
          List.filter_map
            (fun e ->
              if e.Ddg.kind = Ddg.Flow && lifetime.(e.Ddg.src) <> None then Some e.Ddg.src
              else None)
            (Ddg.preds ddg v)
        in
        if lifetime.(v) <> None then v :: consumed else consumed)
  in
  let r =
    {
      ii;
      ddg;
      cluster = Array.init n (Schedule.cluster sched);
      lifetime;
      members = Array.make n [];
      touches;
      base = Array.make k 0;
      partial = Array.init k (fun _ -> Array.make ii 0);
      peak = Array.make k 0;
    }
  in
  Array.iteri
    (fun v -> function
      | None -> ()
      | Some l ->
        let m = members_of r v in
        r.members.(v) <- m;
        List.iter (fun c -> add r ~sign:1 c l) m)
    lifetime;
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
  let l = Option.get r.lifetime.(v) in
  List.iter (fun c -> add r ~sign:(-1) c l) r.members.(v);
  List.iter (fun c -> add r ~sign:1 c l) dst;
  r.members.(v) <- dst

(* Exchange [a] and [b] and move every value whose members changed;
   returns the moves [(value, old members)] so the caller can undo
   them. *)
let apply r a b =
  let values = List.sort_uniq Int.compare (r.touches.(a) @ r.touches.(b)) in
  exchange r a b;
  List.filter_map
    (fun v ->
      let old = r.members.(v) and now = members_of r v in
      if old = now then None
      else begin
        move r v ~dst:now;
        Some (v, old)
      end)
    values

let touched_clusters r moves =
  List.concat_map (fun (v, old) -> old @ r.members.(v)) moves
  |> List.sort_uniq Int.compare

let score r a b =
  let moves = apply r a b in
  let touched = touched_clusters r moves in
  let cost = ref 0 in
  Array.iteri
    (fun c p -> cost := max !cost (if List.mem c touched then peak_of r c else p))
    r.peak;
  List.iter (fun (v, old) -> move r v ~dst:old) moves;
  exchange r a b;
  !cost

let commit r a b =
  let moves = apply r a b in
  List.iter (fun c -> r.peak.(c) <- peak_of r c) (touched_clusters r moves)

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
    let rec loop current_cost swaps passes =
      if passes >= max_passes then (current_cost, swaps)
      else begin
        let best =
          List.fold_left
            (fun acc (a, b) ->
              let c = score a b in
              match acc with
              | Some (_, best_cost) when best_cost <= c -> acc
              | Some _ | None -> if c < current_cost then Some ((a, b), c) else acc)
            None
            (cross_cluster ~cluster:(Schedule.cluster !current) pairs)
        in
        match best with
        | Some ((a, b), c) ->
          commit a b;
          current := Schedule.swap_clusters !current a b;
          loop c (swaps + 1) (passes + 1)
        | None -> (current_cost, swaps)
      end
    in
    let final_cost, swaps = loop initial_cost 0 0 in
    (!current, { swaps; initial_cost; final_cost })
  end
