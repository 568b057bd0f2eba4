(* The [suite] workload: the Table 1 / Figure 6-7 path behind
   [ncdrf suite].  A pass runs [Suite_stats.measure_all] for Unified,
   Partitioned and Swapped at L in {3, 6} with unlimited registers,
   serially, over the same inputs three ways: with no store, over an
   empty store (a first process with a fresh [--cache-dir]) and over
   that store again with the in-memory cache cleared (a second
   process).  It never spills and never uses the pool. *)

open Ncdrf_machine
open Ncdrf_core
module Store = Ncdrf_cache.Store

let models = [ Model.Unified; Model.Partitioned; Model.Swapped ]
let configs = List.map (fun latency -> Config.dual ~latency) [ 3; 6 ]

(* Results without the graphs, so passes compare cheaply. *)
let pass loops =
  Artifact.clear_cache ();
  List.map
    (fun config ->
      List.map
        (fun (model, ms) ->
          ( model,
            List.map
              (fun (m : Suite_stats.measurement) -> (m.Suite_stats.requirement, m.Suite_stats.ii))
              ms ))
        (Suite_stats.measure_all ~config ~models loops))
    configs

let points loops = List.length configs * List.length models * List.length loops

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let open_fresh dir =
  remove dir;
  Store.open_store ~dir ()

(* The two store passes: over an empty store, then over the same store
   with the in-memory cache cleared.  Returns both times and the store. *)
let store_passes ~loops ~store_dir ~expected =
  let store = open_fresh store_dir in
  Store.set_ambient (Some store);
  Fun.protect ~finally:(fun () -> Store.set_ambient None) @@ fun () ->
  let cold, t_cold = Samples.timed (fun () -> pass loops) in
  let warm, t_warm = Samples.timed (fun () -> pass loops) in
  Samples.check "no-store, cold and warm suite results are equal"
    (cold = expected && warm = expected);
  (t_cold, t_warm, store)

(* Execute every point's final schedule; the memory cache is warm. *)
let verify loops =
  let t = Verify.tally () in
  let reference = Verify.reference_of () in
  List.iter
    (fun config ->
      List.iter
        (fun (l : Suite_stats.workload) ->
          let raw = Artifact.raw_schedule ~config l.Suite_stats.ddg in
          List.iter
            (fun model ->
              let v = Artifact.view_of_schedule ~model raw in
              Verify.point t ~reference ~model ~original:l.Suite_stats.ddg v.Artifact.sched)
            models)
        loops)
    configs;
  t

(* The no-store pass repeats for the timed phase; the store passes then
   run once, since each costs thousands of synchronous writes. *)
let run_untraced ~seconds ~loops ~store_dir =
  Store.set_ambient None;
  let first = ref [] and same = ref true in
  let reps =
    Samples.repeat_for ~seconds ~min:3 (fun () ->
        let r, t = Samples.timed (fun () -> pass loops) in
        if !first = [] then first := r else if r <> !first then same := false;
        (t, Samples.calibrate ()))
  in
  Samples.check "every no-store suite pass gives the same results" !same;
  let t_cold, t_warm, _ = store_passes ~loops ~store_dir ~expected:!first in
  remove store_dir;
  let n = points loops in
  let work = float_of_int n in
  let passes = List.length reps in
  Samples.add ~samples:passes ~note:"median no-store pass at reference speed" "points_per_s"
    "1/s"
    (Samples.median
       (List.map
          (fun (seconds, cal) -> Samples.at_reference ~rate:(work /. seconds) ~cal)
          reps));
  Samples.add ~samples:passes ~note:"fastest no-store pass, as timed" "raw_points_per_s" "1/s"
    (work /. Samples.fastest (List.map fst reps));
  Samples.add ~note:"empty-store pass, as timed" "cold_points_per_s" "1/s" (work /. t_cold);
  Samples.add ~note:"warm-store pass, as timed" "warm_points_per_s" "1/s" (work /. t_warm);
  let t = verify loops in
  Samples.add ~samples:t.Verify.points "wrong_output_share" "ratio" (Verify.share t);
  Samples.add ~samples:n "failed_share" "ratio" 0.0;
  ((passes + 2) * n, 0)

let run_traced ~loops ~store_dir ~dump_dir =
  let before = Artifact.cache_stats () in
  Store.set_ambient None;
  let expected, t_none = Samples.timed (fun () -> pass loops) in
  Layers.artifact ~before ~after:(Artifact.cache_stats ());
  let t_cold, _, store = store_passes ~loops ~store_dir ~expected in
  let s = Store.stats store in
  Samples.addi "store.writes" "count" s.Store.writes;
  Samples.addi "store.bytes" "bytes" s.Store.bytes;
  Samples.addi "store.hits" "count" s.Store.hits;
  Samples.addi "store.misses" "count" s.Store.misses;
  Samples.add ~samples:2 ~note:"cold pass minus no-store pass" "store.cold_overhead_s" "s"
    (t_cold -. t_none);
  remove store_dir;
  Verify.report (verify loops);
  let pts =
    Array.of_list
      (List.concat_map
         (fun config ->
           List.map (fun (l : Suite_stats.workload) -> (config, l.Suite_stats.ddg)) loops)
         configs)
  in
  let composed, off_s, on_s =
    Compose.traced (fun () ->
        Array.mapi
          (fun i (config, ddg) ->
            Spans.with_point i (fun () -> Compose.table_point ~config ~models ddg))
          pts)
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i (config, ddg) ->
      List.iter2
        (fun model r ->
          if r <> Compose.of_stats (Pipeline.run ~config ~model ddg) then incr mismatches)
        models composed.(i))
    pts;
  Layers.report_traced ~workload:"suite" ~dump_dir ~mismatches:!mismatches
    ~points:(points loops) ~off_s ~on_s;
  Layers.bypassed (Layers.pool_bypassed @ Layers.server_bypassed);
  (points loops, 0)
