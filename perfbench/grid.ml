(* The [grid] workload: the Figure 8/9 capacity sweep.  Every pass runs
   [Suite_stats.performance] for all four models at L in {3, 6} and
   R in {32, 64} from a fresh in-memory cache, on a 2-job pool.  It
   exercises modulo scheduling, swapping, allocation, the spiller and
   the pool; it never opens a store. *)

open Ncdrf_machine
open Ncdrf_core
module Pool = Ncdrf_parallel.Pool

let cells = List.concat_map (fun l -> List.map (fun r -> (l, r)) [ 32; 64 ]) [ 3; 6 ]
let verified_models = [ Model.Unified; Model.Partitioned; Model.Swapped ]

let pass ?pool loops =
  Artifact.clear_cache ();
  List.concat_map
    (fun (latency, capacity) ->
      let config = Config.dual ~latency in
      List.map
        (fun model ->
          ( (latency, capacity, model),
            Suite_stats.performance ?pool ~config ~model ~capacity loops ))
        Model.all)
    cells

(* Every (config, model, capacity, loop) point of a pass, in pass order. *)
let points loops =
  List.concat_map
    (fun (latency, capacity) ->
      let config = Config.dual ~latency in
      List.concat_map
        (fun model ->
          List.map
            (fun (l : Suite_stats.workload) -> (config, model, capacity, l.Suite_stats.ddg))
            loops)
        Model.all)
    cells
  |> Array.of_list

let quality results =
  let spills = List.fold_left (fun acc (_, p) -> acc + p.Suite_stats.total_spills) 0 results in
  let unfit = List.fold_left (fun acc (_, p) -> acc + p.Suite_stats.unfit) 0 results in
  let log_sum =
    List.fold_left (fun acc (_, p) -> acc +. log p.Suite_stats.relative) 0.0 results
  in
  (spills, unfit, exp (log_sum /. float_of_int (List.length results)))

(* Execute the final schedule of every fitting Unified / Partitioned /
   Swapped point.  [stats_of] yields the point's pipeline result. *)
let verify ~stats_of points =
  let t = Verify.tally () in
  let reference = Verify.reference_of () in
  Array.iteri
    (fun i (_, model, _, ddg) ->
      if List.mem model verified_models then begin
        let s : Pipeline.stats = stats_of i in
        if s.Pipeline.fits then
          Verify.point t ~reference ~model ~original:ddg s.Pipeline.schedule
      end)
    points;
  t

let run_untraced ~seconds ~loops ~pool =
  let first = ref [] in
  let same = ref true in
  let reps =
    Samples.repeat_for ~seconds ~min:3 (fun () ->
        let r, t = Samples.timed (fun () -> pass ~pool loops) in
        if !first = [] then first := r else if r <> !first then same := false;
        (t, Samples.calibrate ()))
  in
  let pooled = !first in
  Samples.check "every 2-job grid pass gives the same results" !same;
  let serial = pass loops in
  Samples.check "2-job grid results equal a serial pass" (serial = pooled);
  let pts = points loops in
  let per_pass = Array.length pts in
  let passes = List.length reps in
  let work = float_of_int per_pass in
  Samples.add ~samples:passes ~note:"median pass at reference speed, 2 jobs" "points_per_s" "1/s"
    (Samples.median
       (List.map
          (fun (seconds, cal) -> Samples.at_reference ~rate:(work /. seconds) ~cal)
          reps));
  Samples.add ~samples:passes ~note:"fastest pass, as timed" "raw_points_per_s" "1/s"
    (work /. Samples.fastest (List.map fst reps));
  let spills, unfit, relative = quality pooled in
  Samples.addi "spills_total" "values" spills;
  Samples.add ~samples:(List.length pooled) ~note:"geomean over 16 cells" "relative_perf"
    "ratio" relative;
  let t =
    verify pts ~stats_of:(fun i ->
        let config, model, capacity, ddg = pts.(i) in
        Pipeline.run ~config ~model ~capacity ddg)
  in
  Samples.add ~samples:t.Verify.points "wrong_output_share" "ratio" (Verify.share t);
  (* An unfit point is the spiller's reported give-up, not a failed
     operation: it stays in the aggregates, so it counts here only. *)
  Samples.add ~samples:per_pass ~note:"unfit points" "failed_share" "ratio"
    (float_of_int unfit /. float_of_int per_pass);
  (passes * per_pass, 0)

(* The job function handed to [Pool.map]: one pipeline point, timed,
   tagged with the domain that ran it. *)
let pooled_points ~pool pts =
  Artifact.clear_cache ();
  let (results, wall) =
    Samples.timed (fun () ->
        Pool.map pool
          (fun (config, model, capacity, ddg) ->
            let t0 = Samples.now () in
            let s = Pipeline.run ~config ~model ~capacity ddg in
            (s, (Domain.self () :> int), Samples.now () -. t0))
          (Array.to_list pts))
  in
  let busy = Hashtbl.create 4 in
  List.iter
    (fun (_, d, dt) ->
      Hashtbl.replace busy d (dt +. Option.value ~default:0.0 (Hashtbl.find_opt busy d)))
    results;
  let jobs = Pool.jobs pool in
  let total = Hashtbl.fold (fun _ b acc -> acc +. b) busy 0.0 in
  let top = Hashtbl.fold (fun _ b acc -> Float.max b acc) busy 0.0 in
  Samples.add ~samples:(List.length results) "pool.busy_share" "ratio"
    (total /. (float_of_int jobs *. wall));
  Samples.add ~samples:jobs "pool.imbalance" "ratio" (top /. (total /. float_of_int jobs));
  Array.of_list (List.map (fun (s, _, _) -> s) results)

let run_traced ~loops ~pool ~dump_dir =
  let before = Artifact.cache_stats () in
  let pooled, t_pooled = Samples.timed (fun () -> pass ~pool loops) in
  Layers.artifact ~before ~after:(Artifact.cache_stats ());
  let serial, t_serial = Samples.timed (fun () -> pass loops) in
  Samples.check "2-job grid results equal a serial pass" (serial = pooled);
  Samples.add ~samples:2 "pool.speedup" "ratio" (t_serial /. t_pooled);
  let pts = points loops in
  let expected = pooled_points ~pool pts in
  Verify.report (verify pts ~stats_of:(fun i -> expected.(i)));
  let composed, off_s, on_s =
    Compose.traced (fun () ->
        Array.mapi
          (fun i (config, model, capacity, ddg) ->
            Spans.with_point i (fun () ->
                Compose.pipeline_point ~config ~model ~capacity ddg))
          pts)
  in
  let mismatches = ref 0 in
  Array.iteri (fun i r -> if r <> Compose.of_stats expected.(i) then incr mismatches) composed;
  Layers.report_traced ~workload:"grid" ~dump_dir ~mismatches:!mismatches
    ~points:(Array.length pts) ~off_s ~on_s;
  Layers.bypassed (Layers.store_bypassed @ Layers.server_bypassed);
  (Array.length pts, 0)
