open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

type workload = {
  ddg : Ddg.t;
  weight : float;
}

type measurement = {
  loop : workload;
  requirement : int;
  ii : int;
}

module Pool = Ncdrf_parallel.Pool
module Error = Ncdrf_error.Error
module Failures = Ncdrf_error.Failures

(* Shard assignment hashes the loop's content digest (the same identity
   the ledger sorts on), not its list position, so the partition is
   deterministic, independent of suite order, worker count, and the
   process that computes it — shard i of N always compiles the same
   loops on every machine.  MD5 is stable across OCaml versions, unlike
   [Hashtbl.hash]. *)
let shard_of ~count ddg =
  let hex = Digest.to_hex (Digest.string (Ddg.digest ddg)) in
  int_of_string ("0x" ^ String.sub hex 0 8) mod count

let shard ~index ~count loops =
  if count < 1 then invalid_arg "Suite_stats.shard: count < 1";
  if index < 0 || index >= count then invalid_arg "Suite_stats.shard: index out of range";
  if count = 1 then loops
  else List.filter (fun l -> shard_of ~count l.ddg = index) loops

(* Parallel map over the suite, deterministic: the pool returns results
   in input order, so serial and parallel runs are observably
   identical.  Failures surface with the loop's name attached.

   With a [failures] collector the sweep degrades gracefully instead:
   each failing loop is classified and recorded — in input order, after
   the whole map has settled, so the manifest is deterministic under
   any worker count — and dropped from the results.  The collector's
   policy ([fail_fast] / [max_failures]) may abort during recording.

   [timeout_s] bounds each point with a fresh deadline token (the
   [--timeout] flag).  Tokens already installed on the calling thread
   (a daemon request's) reach pool workers through [Pool]. *)
let map ?pool ?failures ?timeout_s ~f loops =
  let f =
    match timeout_s with
    | None -> f
    | Some _ -> fun l -> Ncdrf_error.Deadline.with_timeout ?timeout_s (fun () -> f l)
  in
  match failures with
  | None ->
    (match pool with
     | None -> List.map f loops
     | Some pool -> Pool.map pool ~label:(fun l -> Ddg.name l.ddg) f loops)
  | Some failures ->
    let outcomes =
      match pool with
      | None ->
        List.map (fun l -> try Ok (f l) with e -> Stdlib.Error (Ddg.name l.ddg, e)) loops
      | Some pool -> Pool.try_map_exn pool ~label:(fun l -> Ddg.name l.ddg) f loops
    in
    List.filter_map
      (function
        | Ok v -> Some v
        | Stdlib.Error (loop, e) ->
          Failures.record failures (Error.classify_exn ~stage:"pipeline" ~loop e);
          None)
      outcomes

let measure_all ?pool ?failures ?timeout_s ~config ~models loops =
  let one loop =
    (* Each loop is one observed point covering every model measured on
       it, so ledger-armed table runs get one record per (config, loop)
       just like Pipeline.run does for capacity sweeps. *)
    Pipeline.with_point ~config ~models loop.ddg @@ fun () ->
    Ncdrf_telemetry.Telemetry.incr "pipeline.loops";
    Ncdrf_telemetry.Telemetry.incr ~by:(Config.num_clusters config) "cluster.subfiles";
    if Config.has_port_caps config then
      Ncdrf_telemetry.Telemetry.incr "ports.capped_points";
    let a = Artifact.scheduled ~config loop.ddg in
    let rows =
      List.map
        (fun v ->
          { loop; requirement = v.Artifact.requirement; ii = Schedule.ii v.Artifact.sched })
        (Artifact.views ~models a)
    in
    if Ncdrf_telemetry.Trace.active () then
      Ncdrf_telemetry.Trace.update (fun p ->
          (match rows with
          | [ row ] -> p.Ncdrf_telemetry.Trace.requirement <- Some row.requirement
          | _ -> ());
          p.Ncdrf_telemetry.Trace.maxlive <-
            Some (Requirements.max_live_cost (Artifact.entry_schedule a)));
    rows
  in
  let per_loop = map ?pool ?failures ?timeout_s ~f:one loops in
  List.mapi (fun i model -> (model, List.map (fun row -> List.nth row i) per_loop)) models

let measure ?pool ?failures ?timeout_s ~config ~model loops =
  match measure_all ?pool ?failures ?timeout_s ~config ~models:[ model ] loops with
  | [ (_, ms) ] -> ms
  | _ -> assert false

let cumulative ~weight_of measurements ~points =
  (* Sort the requirements once and prefix-sum the weights, then answer
     each point with a binary search: O((n + points) log n) instead of
     the old O(n * points) rescan.  Re-ordering the summation is safe
     for byte-identity because suite weights are integer-valued floats
     and [weight * ii] products are exact integers well below 2^53, so
     every partial sum is exact whatever the order. *)
  let arr =
    Array.of_list (List.map (fun m -> (m.requirement, weight_of m)) measurements)
  in
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) arr;
  let n = Array.length arr in
  let prefix = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) +. snd arr.(i)
  done;
  let total = prefix.(n) in
  let covered r =
    (* number of entries with requirement <= r *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst arr.(mid) <= r then lo := mid + 1 else hi := mid
    done;
    prefix.(!lo)
  in
  let at r = if total = 0.0 then 0.0 else 100.0 *. covered r /. total in
  List.map (fun r -> (r, at r)) points

let static_cumulative measurements ~points =
  cumulative ~weight_of:(fun _ -> 1.0) measurements ~points

let dynamic_cumulative measurements ~points =
  cumulative
    ~weight_of:(fun m -> m.loop.weight *. float_of_int m.ii)
    measurements ~points

let allocatable measurements ~r =
  let static = static_cumulative measurements ~points:[ r ] in
  let dynamic = dynamic_cumulative measurements ~points:[ r ] in
  match static, dynamic with
  | [ (_, s) ], [ (_, d) ] -> (s, d)
  | _ -> assert false

type performance = {
  relative : float;
  density : float;
  total_spills : int;
  loops_spilled : int;
  unfit : int;
}

let performance ?pool ?failures ?timeout_s ~config ~model ~capacity loops =
  let ideal_time = ref 0.0 in
  let achieved_time = ref 0.0 in
  let traffic_num = ref 0.0 in
  let traffic_den = ref 0.0 in
  let total_spills = ref 0 in
  let loops_spilled = ref 0 in
  let unfit = ref 0 in
  let bandwidth = float_of_int (Config.memory_bandwidth config) in
  (* Per-loop compilation fans out over the pool; the float accumulation
     stays a serial fold in input order so the sums are bit-identical
     whatever the worker count. *)
  let compiled =
    map ?pool ?failures ?timeout_s
      ~f:(fun loop -> (loop, Pipeline.run ~config ~model ~capacity loop.ddg))
      loops
  in
  let one (loop, stats) =
    (* [stats.mii] is the MII of the original (pre-spill) graph, the
       same bound the serial code recomputed here. *)
    let ideal_ii = float_of_int stats.Pipeline.mii in
    (* The Ideal model achieves the spill-free II; use the actual
       scheduler result for it rather than the bound. *)
    let ideal_ii =
      if model = Model.Ideal then float_of_int stats.Pipeline.ii else ideal_ii
    in
    ideal_time := !ideal_time +. (loop.weight *. ideal_ii);
    achieved_time := !achieved_time +. (loop.weight *. float_of_int stats.Pipeline.ii);
    traffic_num :=
      !traffic_num +. (loop.weight *. float_of_int stats.Pipeline.memops_per_iter);
    traffic_den :=
      !traffic_den +. (loop.weight *. float_of_int stats.Pipeline.ii *. bandwidth);
    total_spills := !total_spills + stats.Pipeline.spilled;
    if stats.Pipeline.spilled > 0 then incr loops_spilled;
    if not stats.Pipeline.fits then incr unfit
  in
  List.iter one compiled;
  {
    relative = (if !achieved_time = 0.0 then 1.0 else !ideal_time /. !achieved_time);
    density = (if !traffic_den = 0.0 then 0.0 else !traffic_num /. !traffic_den);
    total_spills = !total_spills;
    loops_spilled = !loops_spilled;
    unfit = !unfit;
  }
