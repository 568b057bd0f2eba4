(* perfbench: the repository benchmark.

     perfbench --workload grid|suite|serve --seed N --seconds S --trace 0|1

   With [--trace 0] a run times the workload for [S] seconds with every
   probe off and reports the end-to-end metrics; with [--trace 1] it
   reports per-layer metrics from a traced composition of the same
   points.  Both modes check the outputs.  The last line of standard
   output is one JSON object holding every metric measured; [run.py]
   turns it into the benchmark's result line.  NOTES.md explains the
   workloads and metrics. *)

module Artifact = Ncdrf_core.Artifact
module Pool = Ncdrf_parallel.Pool
module Suite = Ncdrf_workloads.Suite

let usage () =
  prerr_endline
    "usage: perfbench --workload grid|suite|serve --seed N --seconds S --trace 0|1 \
     [--work-dir DIR]";
  exit 2

(* The default 795-loop suite, in an order drawn from [seed].  The loop
   set itself stays fixed: a handful of heavy generated loops dominate
   compile time, so a suite regenerated per seed changes the work by
   far more than any regression bound (NOTES.md). *)
let suite_loops ~seed =
  let loops =
    Array.of_list
      (List.map
         (fun (e : Suite.entry) ->
           { Ncdrf_core.Suite_stats.ddg = e.Suite.ddg; weight = e.Suite.iterations })
         (Suite.full ~size:795 ()))
  in
  let rng = Random.State.make [| seed |] in
  for i = Array.length loops - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = loops.(i) in
    loops.(i) <- loops.(j);
    loops.(j) <- t
  done;
  Array.to_list loops

(* Set up [times] times, each followed by the host-speed kernel, and
   report the median at reference speed (and as timed); earlier set-ups
   are torn down, the last one is returned. *)
let setup ~times ~make ~discard =
  let rec go k acc =
    let v, t = Samples.timed make in
    let acc = (t, Samples.calibrate ()) :: acc in
    if k <= 1 then (v, acc)
    else begin
      discard v;
      go (k - 1) acc
    end
  in
  let v, reps = go times [] in
  Samples.add ~samples:times ~note:"median set-up at reference speed" "setup_s" "s"
    (Samples.median
       (List.map (fun (seconds, cal) -> Samples.time_at_reference ~seconds ~cal) reps));
  Samples.add ~samples:times ~note:"median set-up, as timed" "raw_setup_s" "s"
    (Samples.median (List.map fst reps));
  v

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let work_dir = ref (Filename.concat ".bench_build" "perfbench") in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := (try int_of_string v with _ -> usage ()); parse rest
    | "--seconds" :: v :: rest ->
      seconds := (try float_of_string v with _ -> usage ()); parse rest
    | "--trace" :: v :: rest -> trace := (try int_of_string v with _ -> usage ()); parse rest
    | "--work-dir" :: v :: rest -> work_dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  mkdir_p !work_dir;
  let traced = !trace = 1 in
  let attempted, failed =
    match !workload with
    | "grid" ->
      let loops, pool =
        setup ~times:15
          ~make:(fun () -> (suite_loops ~seed:!seed, Pool.create ~jobs:2 ()))
          ~discard:(fun (_, pool) -> Pool.shutdown pool)
      in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
      if traced then Grid.run_traced ~loops ~pool ~dump_dir:!work_dir
      else Grid.run_untraced ~seconds:!seconds ~loops ~pool
    | "suite" ->
      let store_dir = Filename.concat !work_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
      let loops =
        setup ~times:15
          ~make:(fun () ->
            let loops = suite_loops ~seed:!seed in
            ignore (Tables.open_fresh store_dir);
            loops)
          ~discard:(fun _ -> Tables.remove store_dir)
      in
      Fun.protect ~finally:(fun () -> Tables.remove store_dir) @@ fun () ->
      if traced then Tables.run_traced ~loops ~store_dir ~dump_dir:!work_dir
      else Tables.run_untraced ~seconds:!seconds ~loops ~store_dir
    | "serve" ->
      let socket = Filename.concat !work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
      let daemon =
        setup ~times:5
          ~make:(fun () ->
            Artifact.clear_cache ();
            Serving.warm_up ~socket)
          ~discard:(fun (d, _) -> ignore (Serving.shutdown d))
      in
      Serving.run ~traced ~seed:!seed ~seconds:!seconds ~daemon ~dump_dir:!work_dir
    | _ -> usage ()
  in
  Samples.add "peak_heap_mb" "MB" (Samples.peak_heap_mb ());
  Samples.print_report ~workload:!workload ~seed:!seed ~trace:!trace ~attempted ~failed
