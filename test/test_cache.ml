(* The compile cache and the staged-artifact layer built on it: cache
   unit behaviour (hit/miss accounting, LRU eviction, tiny capacities,
   concurrent access, a model of random operation sequences), key
   injectivity (Ddg.digest against its historical serializer,
   Config.fingerprint), the disk tier's entry-keyed views,
   the determinism guard (cached runs byte-identical to cache-disabled
   runs), the swaps-under-capacity regression, and the rewritten
   cumulative distribution against the old fold. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
module Cache = Ncdrf_cache.Cache
module Store = Ncdrf_cache.Store
module Pool = Ncdrf_parallel.Pool
module Telemetry = Ncdrf_telemetry.Telemetry
module Generator = Ncdrf_workloads.Generator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Cache unit tests.                                                   *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c : int Cache.t = Cache.create ~name:"t" ~capacity:8 () in
  let computes = ref 0 in
  let get k v =
    Cache.find_or_add c ~key:k (fun () ->
        incr computes;
        v)
  in
  check_int "first lookup computes" 1 (get "a" 1);
  check_int "second lookup hits" 1 (get "a" 99);
  check_int "computed once" 1 !computes;
  check_int "other key computes" 2 (get "b" 2);
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 2 s.Cache.misses;
  check_int "size" 2 s.Cache.size;
  check_int "evictions" 0 s.Cache.evictions;
  (match Cache.find c ~key:"a" with
   | Some 1 -> ()
   | Some _ | None -> Alcotest.fail "find misses a cached key");
  check_bool "find on absent key" true (Cache.find c ~key:"zzz" = None);
  Cache.clear c;
  check_int "clear empties" 0 (Cache.stats c).Cache.size;
  check_int "cleared key recomputes" 7 (get "a" 7)

let test_cache_lru_eviction () =
  (* One stripe so the LRU order is global and observable. *)
  let c : int Cache.t = Cache.create ~stripes:1 ~name:"lru" ~capacity:2 () in
  let add k v = ignore (Cache.find_or_add c ~key:k (fun () -> v)) in
  add "a" 1;
  add "b" 2;
  (* Touch "a" so "b" is the least recently used entry. *)
  ignore (Cache.find c ~key:"a");
  add "c" 3;
  check_bool "a survives (recently used)" true (Cache.find c ~key:"a" = Some 1);
  check_bool "b evicted (LRU)" true (Cache.find c ~key:"b" = None);
  check_bool "c resident" true (Cache.find c ~key:"c" = Some 3);
  let s = Cache.stats c in
  check_int "one eviction" 1 s.Cache.evictions;
  check_int "size stays at capacity" 2 s.Cache.size

let test_cache_capacity_one () =
  let c : string Cache.t = Cache.create ~stripes:1 ~name:"tiny" ~capacity:1 () in
  (* Every value still comes back right while entries thrash. *)
  for i = 0 to 19 do
    let k = string_of_int (i mod 3) in
    check_string "value correct under thrash" k (Cache.find_or_add c ~key:k (fun () -> k))
  done;
  let s = Cache.stats c in
  check_int "never over capacity" 1 s.Cache.size;
  check_bool "evictions happened" true (s.Cache.evictions > 0);
  check_int "every call counted" 20 (s.Cache.hits + s.Cache.misses)

let test_cache_concurrent () =
  let c : int Cache.t = Cache.create ~name:"par" ~capacity:64 () in
  let calls = 400 in
  Pool.with_pool ~jobs:4 (fun pool ->
      let out =
        Pool.map pool
          (fun i ->
            let k = i mod 8 in
            Cache.find_or_add c ~key:(string_of_int k) (fun () -> k * k))
          (List.init calls Fun.id)
      in
      List.iteri (fun i v -> check_int "concurrent value" (i mod 8 * (i mod 8)) v) out);
  let s = Cache.stats c in
  (* Racing computes may double-count misses, but every call settles as
     exactly one hit or miss, and the table never exceeds the key set. *)
  check_int "hits + misses = calls" calls (s.Cache.hits + s.Cache.misses);
  check_bool "at least one miss per distinct key" true (s.Cache.misses >= 8);
  check_int "eight residents" 8 s.Cache.size

(* The cache against a model, over random operation sequences at
   capacities 1-16.  With one stripe the LRU order is global, so a
   [Hashtbl] from key to last-use tick predicts every hit, miss,
   eviction and resident; with the default eight stripes the model is
   the set of keys ever added, and the cache must return the model's
   value or nothing, never another key's. *)
type cache_op =
  | Add of int
  | Peek of int
  | Clear
  | Stats

let cache_key k = Printf.sprintf "key-%d-%s" k (String.make (k mod 5) '#')
let cache_value k = (k * 7919) + 1

let gen_cache_ops =
  QCheck.Gen.(
    pair (int_range 1 16)
      (list_size (int_range 1 200)
         (frequency
            [
              (6, map (fun k -> Add k) (int_bound 24));
              (3, map (fun k -> Peek k) (int_bound 24));
              (1, return Clear);
              (1, return Stats);
            ])))

let print_cache_ops (capacity, ops) =
  Printf.sprintf "capacity=%d [%s]" capacity
    (String.concat ";"
       (List.map
          (function
            | Add k -> Printf.sprintf "add %d" k
            | Peek k -> Printf.sprintf "peek %d" k
            | Clear -> "clear"
            | Stats -> "stats")
          ops))

let prop_cache_lru_model =
  QCheck.Test.make ~count:300 ~name:"one-stripe cache = LRU model (capacities 1-16)"
    (QCheck.make ~print:print_cache_ops gen_cache_ops)
    (fun (capacity, ops) ->
      let c : int Cache.t = Cache.create ~stripes:1 ~name:"model" ~capacity () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let tick = ref 0 and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let use k =
        incr tick;
        Hashtbl.replace model k !tick
      in
      let evict () =
        if Hashtbl.length model > capacity then begin
          let victim, _ =
            Hashtbl.fold
              (fun k t (bk, bt) -> if t < bt then (k, t) else (bk, bt))
              model (-1, max_int)
          in
          Hashtbl.remove model victim;
          incr evictions
        end
      in
      let step = function
        | Add k ->
          let computed = ref false in
          let v =
            Cache.find_or_add c ~key:(cache_key k) (fun () ->
                computed := true;
                cache_value k)
          in
          let resident = Hashtbl.mem model k in
          if resident then incr hits else incr misses;
          use k;
          evict ();
          v = cache_value k && !computed = not resident
        | Peek k ->
          let got = Cache.find c ~key:(cache_key k) in
          if Hashtbl.mem model k then begin
            use k;
            got = Some (cache_value k)
          end
          else got = None
        | Clear ->
          Cache.clear c;
          Hashtbl.reset model;
          (Cache.stats c).Cache.size = 0
        | Stats ->
          let s = Cache.stats c in
          s.Cache.hits = !hits && s.Cache.misses = !misses
          && s.Cache.evictions = !evictions
          && s.Cache.size = Hashtbl.length model
      in
      List.for_all step (ops @ [ Stats ]))

let prop_cache_striped_model =
  QCheck.Test.make ~count:300 ~name:"striped cache agrees with a Hashtbl model"
    (QCheck.make ~print:print_cache_ops gen_cache_ops)
    (fun (capacity, ops) ->
      let c : int Cache.t = Cache.create ~name:"striped" ~capacity () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let calls = ref 0 in
      let step = function
        | Add k ->
          incr calls;
          Hashtbl.replace model k (cache_value k);
          Cache.find_or_add c ~key:(cache_key k) (fun () -> cache_value k) = cache_value k
        | Peek k -> (
          match Cache.find c ~key:(cache_key k) with
          | None -> true
          | Some v -> Hashtbl.find_opt model k = Some v)
        | Clear ->
          Cache.clear c;
          Hashtbl.reset model;
          (Cache.stats c).Cache.size = 0
        | Stats ->
          let s = Cache.stats c in
          (* Eight stripes of ceil(capacity / 8) entries each. *)
          s.Cache.hits + s.Cache.misses = !calls
          && s.Cache.size <= Hashtbl.length model
          && s.Cache.size <= 8 * ((capacity + 7) / 8)
      in
      List.for_all step (ops @ [ Stats ]))

(* ------------------------------------------------------------------ *)
(* Key injectivity: Ddg.digest and Config.fingerprint.                 *)
(* ------------------------------------------------------------------ *)

let test_digest_deterministic_and_sensitive () =
  let gen seed = Generator.generate Generator.default ~seed ~name:"dig" in
  check_string "same graph, same digest" (Ddg.digest (gen 3)) (Ddg.digest (gen 3));
  check_bool "different graph, different digest" true
    (Ddg.digest (gen 3) <> Ddg.digest (gen 4));
  (* Memoization must not change the value. *)
  let g = gen 5 in
  check_string "memoized digest stable" (Ddg.digest g) (Ddg.digest g);
  (* The paper example from two constructions digests identically. *)
  check_string "structurally equal graphs agree"
    (Ddg.digest (Ncdrf_workloads.Kernels.paper_example ()))
    (Ddg.digest (Ncdrf_workloads.Kernels.paper_example ()))

(* The digest keys the compile cache, the store and shard assignment,
   so it must keep its historical bytes: pinned for three kernels and
   equal to the verbatim serializer of test/digest_reference.ml. *)
let test_digest_pinned () =
  let pinned =
    [
      ("paper-example", "71fcd0a999728f2e109273b1691930d4");
      ("ll5-tridiag", "6a831ae5073e79258f18f3da76954498");
      ("fft-butterfly", "c85317418840b793a04877cb1fcb4de7");
    ]
  in
  List.iter
    (fun (name, want) ->
      match Ncdrf_workloads.Kernels.find name with
      | None -> Alcotest.failf "no kernel %s" name
      | Some g -> check_string (name ^ " digest") want (Ddg.digest g))
    pinned;
  List.iter
    (fun (g, _) ->
      check_string (Ddg.name g ^ " = reference") (Digest_reference.digest g) (Ddg.digest g))
    (Ncdrf_workloads.Kernels.all ())

(* Random graphs, and the graphs the spiller rewrites them into (spill
   slots and reload labels add multi-digit integers and new edges). *)
let prop_digest_matches_reference =
  let arb =
    QCheck.make
      ~print:(fun (seed, heavy, picks) ->
        Printf.sprintf "seed=%d heavy=%b picks=[%s]" seed heavy
          (String.concat ";" (List.map string_of_int picks)))
      QCheck.Gen.(triple (int_bound 50_000) bool (list_size (int_range 0 4) (int_bound 1000)))
  in
  QCheck.Test.make ~count:100 ~name:"Ddg.digest = reference serializer (with spill rewrites)"
    arb (fun (seed, heavy, picks) ->
      let params = if heavy then Generator.heavy else Generator.default in
      let ddg = Generator.generate params ~seed ~name:(Printf.sprintf "dig-%d" seed) in
      let agrees g = String.equal (Ddg.digest g) (Digest_reference.digest g) in
      let producers g =
        List.filter
          (fun v -> Ddg.consumers g v <> [])
          (List.init (Ddg.num_nodes g) Fun.id)
      in
      let rec go g = function
        | [] -> agrees g
        | pick :: rest -> (
          agrees g
          &&
          match producers g with
          | [] -> true
          | vs ->
            let v = List.nth vs (pick mod List.length vs) in
            go (Ncdrf_spill.Spiller.spill_value g ~slot:(Ncdrf_spill.Spiller.next_spill_slot g) v) rest)
      in
      go ddg picks)

let test_fingerprint_sensitive () =
  let fp = Config.fingerprint in
  check_string "fingerprint deterministic"
    (fp (Config.dual ~latency:3))
    (fp (Config.dual ~latency:3));
  check_bool "latency changes it" true
    (fp (Config.dual ~latency:3) <> fp (Config.dual ~latency:6));
  check_bool "parallelism changes it" true
    (fp (Config.pxly ~parallelism:1 ~latency:3)
     <> fp (Config.pxly ~parallelism:2 ~latency:3));
  check_bool "dual vs pxly differ" true
    (fp (Config.dual ~latency:3) <> fp (Config.pxly ~parallelism:2 ~latency:3))

(* ------------------------------------------------------------------ *)
(* Determinism: cached == warm == cache-disabled, for Pipeline.run.    *)
(* ------------------------------------------------------------------ *)

(* %h renders the exact bit pattern, so string equality of this
   rendering is byte-for-byte equality of the stats, schedule included. *)
let render_stats (st : Pipeline.stats) =
  let sched = st.Pipeline.schedule in
  let placements =
    String.concat ";"
      (List.init (Ddg.num_nodes sched.Schedule.ddg) (fun v ->
           Printf.sprintf "%d,%d" (Schedule.cycle sched v) (Schedule.cluster sched v)))
  in
  Printf.sprintf
    "%s %s mii=%d ii=%d stages=%d req=%d cap=%s fits=%b spilled=%d addmem=%d bumps=%d \
     memops=%d density=%h swaps=%d sched_ii=%d [%s]"
    st.Pipeline.name
    (Model.to_string st.Pipeline.model)
    st.Pipeline.mii st.Pipeline.ii st.Pipeline.stages st.Pipeline.requirement
    (match st.Pipeline.capacity with None -> "-" | Some c -> string_of_int c)
    st.Pipeline.fits st.Pipeline.spilled st.Pipeline.added_memops st.Pipeline.ii_bumps
    st.Pipeline.memops_per_iter st.Pipeline.density st.Pipeline.swaps (Schedule.ii sched)
    placements

let with_cache_disabled f =
  Artifact.set_cache_enabled false;
  Fun.protect ~finally:(fun () -> Artifact.set_cache_enabled true) f

let prop_pipeline_cold_warm_uncached =
  let arb =
    QCheck.make
      ~print:(fun (seed, lat, cap) ->
        Printf.sprintf "seed=%d lat=%d cap=%s" seed lat
          (match cap with None -> "-" | Some c -> string_of_int c))
      QCheck.Gen.(triple (int_bound 20_000) (int_range 1 8) (opt (int_range 8 64)))
  in
  QCheck.Test.make ~count:25
    ~name:"pipeline cold == warm == cache-disabled (all models, both latencies)" arb
    (fun (seed, latency, capacity) ->
      let ddg = Generator.generate Generator.default ~seed ~name:"cache-prop" in
      let config = Config.dual ~latency in
      List.for_all
        (fun model ->
          Artifact.clear_cache ();
          let run () = render_stats (Pipeline.run ~config ~model ?capacity ddg) in
          let cold = run () in
          let warm = run () in
          let off = with_cache_disabled run in
          String.equal cold warm && String.equal cold off)
        Model.all)

let test_capacity_one_artifact_cache_correct () =
  (* A cache that can hold a single entry thrashes on every stage but
     must never change a result. *)
  Fun.protect
    ~finally:(fun () -> Artifact.set_cache_capacity Artifact.default_capacity)
    (fun () ->
      let config = Config.dual ~latency:6 in
      let loops =
        List.filteri (fun i _ -> i < 6) (Ncdrf_workloads.Suite.full ~size:40 ~seed:2025 ())
      in
      let everything () =
        List.concat_map
          (fun (e : Ncdrf_workloads.Suite.entry) ->
            List.concat_map
              (fun model ->
                [ render_stats (Pipeline.run ~config ~model e.ddg);
                  render_stats (Pipeline.run ~config ~model ~capacity:24 e.ddg) ])
              Model.all)
          loops
      in
      let reference = with_cache_disabled everything in
      Artifact.set_cache_capacity 1;
      let thrashed = everything () in
      Alcotest.(check (list string)) "capacity-1 cache is invisible" reference thrashed;
      check_bool "the tiny cache really evicted" true
        ((Artifact.cache_stats ()).Ncdrf_cache.Cache.evictions > 0))

(* ------------------------------------------------------------------ *)
(* Determinism guard: fixed-seed 40-loop suite, cache on vs off.       *)
(* ------------------------------------------------------------------ *)

let fixed_suite () =
  List.map
    (fun e ->
      { Suite_stats.ddg = e.Ncdrf_workloads.Suite.ddg;
        weight = e.Ncdrf_workloads.Suite.iterations })
    (Ncdrf_workloads.Suite.full ~size:40 ~seed:2025 ())

let render_measurement (m : Suite_stats.measurement) =
  Printf.sprintf "%s w=%h req=%d ii=%d"
    (Ddg.name m.Suite_stats.loop.Suite_stats.ddg)
    m.Suite_stats.loop.Suite_stats.weight m.Suite_stats.requirement m.Suite_stats.ii

let render_performance (p : Suite_stats.performance) =
  Printf.sprintf "relative=%h density=%h spills=%d loops_spilled=%d unfit=%d"
    p.Suite_stats.relative p.Suite_stats.density p.Suite_stats.total_spills
    p.Suite_stats.loops_spilled p.Suite_stats.unfit

let test_determinism_guard () =
  let loops = fixed_suite () in
  let snapshot () =
    List.concat_map
      (fun latency ->
        let config = Config.dual ~latency in
        let measured =
          Suite_stats.measure_all ~config ~models:Model.all loops
          |> List.concat_map (fun (model, ms) ->
                 Model.to_string model :: List.map render_measurement ms)
        in
        let perf =
          List.map
            (fun model ->
              render_performance
                (Suite_stats.performance ~config ~model ~capacity:32 loops))
            Model.all
        in
        measured @ perf)
      [ 3; 6 ]
  in
  Artifact.clear_cache ();
  let cached = snapshot () in
  let uncached = with_cache_disabled snapshot in
  Alcotest.(check (list string)) "cached run byte-identical to cache-disabled run"
    uncached cached;
  (* And a second, fully warm pass changes nothing either. *)
  Alcotest.(check (list string)) "warm rerun byte-identical" cached (snapshot ())

(* ------------------------------------------------------------------ *)
(* Regression: swaps under a register capacity.                        *)
(* ------------------------------------------------------------------ *)

let test_swaps_reported_under_capacity () =
  (* Pipeline.run used to count the spiller's final schedule against
     itself, so every capacity run reported swaps = 0.  A capacity run
     that fits without spilling must report the same swaps as the
     unlimited-register run of the same loop. *)
  let config = Config.dual ~latency:3 in
  let ddg = Ncdrf_workloads.Kernels.paper_example () in
  let free = Pipeline.run ~config ~model:Model.Swapped ddg in
  check_bool "the example actually swaps" true (free.Pipeline.swaps > 0);
  let capped = Pipeline.run ~config ~model:Model.Swapped ~capacity:64 ddg in
  check_int "fits-first-try capacity run reports the swaps" free.Pipeline.swaps
    capped.Pipeline.swaps;
  check_int "no spilling in this case" 0 capped.Pipeline.spilled;
  (* Across the fixed suite at a tight capacity, spilling happens and
     swaps still show up; other models keep reporting 0. *)
  let config = Config.dual ~latency:6 in
  let loops = fixed_suite () in
  let stats =
    List.map
      (fun l -> Pipeline.run ~config ~model:Model.Swapped ~capacity:24 l.Suite_stats.ddg)
      loops
  in
  check_bool "some loop spilled" true
    (List.exists (fun st -> st.Pipeline.spilled > 0) stats);
  check_bool "swaps reported under capacity" true
    (List.exists (fun st -> st.Pipeline.swaps > 0) stats);
  check_bool "a spilled loop reports swaps" true
    (List.exists (fun st -> st.Pipeline.spilled > 0 && st.Pipeline.swaps > 0) stats);
  let unified =
    Pipeline.run ~config ~model:Model.Unified ~capacity:24 (List.hd loops).Suite_stats.ddg
  in
  check_int "unified never swaps" 0 unified.Pipeline.swaps

(* ------------------------------------------------------------------ *)
(* Cumulative distribution: sorted prefix sums == the old fold.        *)
(* ------------------------------------------------------------------ *)

(* The pre-rewrite implementation, kept verbatim as the reference. *)
let naive_cumulative ~weight_of measurements ~points =
  let total = List.fold_left (fun acc m -> acc +. weight_of m) 0.0 measurements in
  let at r =
    let covered =
      List.fold_left
        (fun acc (m : Suite_stats.measurement) ->
          if m.Suite_stats.requirement <= r then acc +. weight_of m else acc)
        0.0 measurements
    in
    if total = 0.0 then 0.0 else 100.0 *. covered /. total
  in
  List.map (fun r -> (r, at r)) points

let test_cumulative_matches_naive_fold () =
  let loops = fixed_suite () in
  (* Unsorted, duplicated and out-of-range points exercise the binary
     search at both ends. *)
  let points = [ 32; 8; 8; 0; -1; 1000; 16; 64; 24 ] in
  let point_t = Alcotest.(pair int (float 0.0)) in
  List.iter
    (fun config ->
      List.iter
        (fun model ->
          let ms = Suite_stats.measure ~config ~model loops in
          Alcotest.check (Alcotest.list point_t)
            (Printf.sprintf "static %s/%s" config.Config.name (Model.to_string model))
            (naive_cumulative ~weight_of:(fun _ -> 1.0) ms ~points)
            (Suite_stats.static_cumulative ms ~points);
          Alcotest.check (Alcotest.list point_t)
            (Printf.sprintf "dynamic %s/%s" config.Config.name (Model.to_string model))
            (naive_cumulative
               ~weight_of:(fun m ->
                 m.Suite_stats.loop.Suite_stats.weight *. float_of_int m.Suite_stats.ii)
               ms ~points)
            (Suite_stats.dynamic_cumulative ms ~points))
        [ Model.Unified; Model.Partitioned; Model.Swapped ])
    [ Config.dual ~latency:3; Config.dual ~latency:6 ];
  (* Degenerate inputs. *)
  Alcotest.check (Alcotest.list point_t) "empty suite" [ (16, 0.0) ]
    (Suite_stats.static_cumulative [] ~points:[ 16 ])

(* ------------------------------------------------------------------ *)
(* measure_all: one scheduling pass per loop, measure is a projection. *)
(* ------------------------------------------------------------------ *)

let test_measure_all_schedules_once () =
  let loops = fixed_suite () in
  let config = Config.dual ~latency:3 in
  let n = List.length loops in
  Telemetry.enable true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.enable false;
      Telemetry.reset ())
    (fun () ->
      Artifact.clear_cache ();
      Telemetry.reset ();
      let by_model = Suite_stats.measure_all ~config ~models:Model.all loops in
      check_int "one schedule span per loop, all models" n
        (Telemetry.span_count "schedule");
      check_int "one pipeline.loops bump per loop" n (Telemetry.counter "pipeline.loops");
      check_int "a measurement list per model" (List.length Model.all)
        (List.length by_model);
      (* A warm rerun adds no schedule spans at all. *)
      ignore (Suite_stats.measure_all ~config ~models:Model.all loops);
      check_int "warm rerun schedules nothing" n (Telemetry.span_count "schedule");
      (* Ideal and Unified share one view; their measurements agree. *)
      let req model =
        List.map (fun m -> m.Suite_stats.requirement) (List.assoc model by_model)
      in
      Alcotest.(check (list int)) "ideal == unified requirement" (req Model.Ideal)
        (req Model.Unified);
      (* measure is the single-model projection of measure_all. *)
      List.iter
        (fun model ->
          Alcotest.(check (list string))
            ("measure == measure_all: " ^ Model.to_string model)
            (List.map render_measurement (List.assoc model by_model))
            (List.map render_measurement (Suite_stats.measure ~config ~model loops)))
        Model.all)

(* One entry per schedule: every model at two capacities, then
   measure_all, computes each raw schedule's three views once (Ideal
   and Unified share one) and reads them back off the raw entry, so
   per loop one schedule miss and three view misses, then seven
   schedule hits and five view hits from the runs, and one schedule
   and four view hits from measure_all.  The memory tier ends up
   holding one entry per loop.  Both capacities are far above any of
   these loops' requirements, so nothing spills. *)
let test_views_ride_with_entry () =
  let config = Config.dual ~latency:6 in
  let loops = List.filteri (fun i _ -> i < 8) (fixed_suite ()) in
  let n = List.length loops in
  Artifact.clear_cache ();
  let before = Artifact.cache_stats () in
  List.iter
    (fun (l : Suite_stats.workload) ->
      List.iter
        (fun capacity ->
          List.iter
            (fun model ->
              let st = Pipeline.run ~config ~model ~capacity l.Suite_stats.ddg in
              check_int "nothing spills" 0 st.Pipeline.spilled)
            Model.all)
        [ 256; 512 ])
    loops;
  ignore (Suite_stats.measure_all ~config ~models:Model.all loops);
  let after = Artifact.cache_stats () in
  check_int "a schedule and three view misses per loop" (4 * n)
    (after.Cache.misses - before.Cache.misses);
  check_int "seventeen hits per loop" (17 * n) (after.Cache.hits - before.Cache.hits);
  check_int "one entry per loop" n after.Cache.size;
  Artifact.clear_cache ()

(* Runs [f] with a fresh store over [dir] as the ambient one. *)
let with_ambient_store dir f =
  let store = Store.open_store ~dir () in
  let saved = Store.ambient () in
  Store.set_ambient (Some store);
  Fun.protect ~finally:(fun () -> Store.set_ambient saved) (fun () -> f store)

let rec count_entries dir =
  Array.fold_left
    (fun n name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then n + count_entries path
      else if Filename.check_suffix name ".art" then n + 1
      else n)
    0 (Sys.readdir dir)

(* The disk tier names what the memory tier holds: one file per entry
   (a raw schedule or a spill round's) and one per filled view slot.
   A spilling sweep over two capacities and three models runs cold,
   then disk-warm from a cleared memory cache: the warm pass misses
   nothing on disk and its stats are byte-identical, and the store
   holds exactly the cold run's entries and filled slots (its memory
   misses). *)
let test_disk_names_entries () =
  let config = Config.dual ~latency:6 in
  let loops = List.filteri (fun i _ -> i < 10) (fixed_suite ()) in
  let sweep () =
    List.concat_map
      (fun (l : Suite_stats.workload) ->
        List.concat_map
          (fun capacity ->
            List.map
              (fun model -> Pipeline.run ~config ~model ~capacity l.Suite_stats.ddg)
              [ Model.Unified; Model.Partitioned; Model.Swapped ])
          [ 8; 12 ])
      loops
  in
  Helpers.with_store_dir @@ fun dir ->
  Fun.protect ~finally:Artifact.clear_cache @@ fun () ->
  Artifact.clear_cache ();
  let cold_misses, cold =
    with_ambient_store dir (fun store ->
        let before = Artifact.cache_stats () in
        let cold = sweep () in
        let misses = (Artifact.cache_stats ()).Cache.misses - before.Cache.misses in
        check_int "every memory miss is one disk write" misses (Store.stats store).Store.writes;
        (misses, cold))
  in
  check_bool "the sweep spills" true
    (List.exists (fun st -> st.Pipeline.spilled > 0) cold);
  check_int "one file per entry and filled slot" cold_misses (count_entries dir);
  Artifact.clear_cache ();
  with_ambient_store dir (fun store ->
      let warm = sweep () in
      let s = Store.stats store in
      check_int "warm pass misses nothing on disk" 0 s.Store.misses;
      check_int "warm pass reads every file" cold_misses s.Store.hits;
      check_int "warm pass writes nothing" 0 s.Store.writes;
      Alcotest.(check (list string))
        "disk-warm stats == cold" (List.map render_stats cold) (List.map render_stats warm))

(* A spill round at the MII of a graph with no spill code schedules
   exactly what the raw entry holds, so a key built from the schedule
   would share their view files.  Keyed by entry, the two views miss
   apart and are stored apart, and a second process hits both. *)
let test_views_keyed_by_entry () =
  let config = Config.dual ~latency:6 in
  let ddg =
    List.find
      (fun ddg -> Mii.mii config ddg > 1)
      (List.map (fun (l : Suite_stats.workload) -> l.Suite_stats.ddg) (fixed_suite ()))
  in
  let view e = ignore (Artifact.view ~model:Model.Partitioned e) in
  Helpers.with_store_dir @@ fun dir ->
  Fun.protect ~finally:Artifact.clear_cache @@ fun () ->
  let both () =
    let raw = Artifact.scheduled ~config ddg in
    let spill = Artifact.spill_entry ~config ~min_ii:(Artifact.entry_bound raw) ddg in
    (raw, spill)
  in
  Artifact.clear_cache ();
  with_ambient_store dir (fun store ->
      let raw, spill = both () in
      let a = Artifact.entry_schedule raw and b = Artifact.entry_schedule spill in
      check_bool "two entries" true (raw != spill);
      check_bool "one schedule" true
        (Schedule.ii a = Schedule.ii b && Schedule.placements a = Schedule.placements b);
      let before = Store.stats store in
      view raw;
      view spill;
      let after = Store.stats store in
      check_int "the views miss apart" 2 (after.Store.misses - before.Store.misses);
      check_int "no view hits the other's file" 0 (after.Store.hits - before.Store.hits);
      check_int "two entries, two views" 4 (count_entries dir));
  Artifact.clear_cache ();
  with_ambient_store dir (fun store ->
      let raw, spill = both () in
      view raw;
      view spill;
      let s = Store.stats store in
      check_int "a second process hits both entries and views" 4 s.Store.hits;
      check_int "and misses nothing" 0 s.Store.misses)

(* The flat schedule round-trips through the two store payload
   codecs, whatever its II, cycles (negative, large, the int range's
   ends) and clusters. *)
let prop_store_codecs_roundtrip =
  let gen =
    let open QCheck.Gen in
    let extreme = oneofl [ min_int; max_int; min_int + 1; max_int - 1; -1; 0; 1 ] in
    triple (int_bound 10_000) (int_range 2 4)
      (pair
         (oneof [ int_range 1 64; int_range 1 max_int; return max_int ])
         (list_size (return 64) (pair (oneof [ small_signed_int; int; extreme ]) int)))
  in
  QCheck.Test.make ~count:200 ~name:"flat schedules round-trip through the store codecs"
    (QCheck.make gen) (fun (seed, k, (ii, cells)) ->
      let ddg = Generator.generate Generator.default ~seed ~name:"codec-prop" in
      let config = if k = 2 then Config.dual ~latency:3 else Config.k_cluster ~k ~latency:3 () in
      let cell v = List.nth cells (v mod List.length cells) in
      let n = Ddg.num_nodes ddg in
      let s =
        Schedule.of_arrays ~config ~ii
          ~cycles:(Array.init n (fun v -> fst (cell v)))
          ~clusters:(Array.init n (fun v -> abs (snd (cell v) mod k)))
          ddg
      in
      List.for_all
        (fun codec ->
          match Artifact.store_roundtrip codec s with
          | None -> false
          | Some d ->
            d.Schedule.ddg == ddg && d.Schedule.config == config && d.Schedule.ii = ii
            && d.Schedule.cycles = s.Schedule.cycles
            && d.Schedule.clusters = s.Schedule.clusters)
        [ `Entry; `View ])

let suite =
  [
    Alcotest.test_case "cache hit/miss/clear accounting" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache evicts least recently used" `Quick test_cache_lru_eviction;
    Alcotest.test_case "capacity-1 cache stays correct" `Quick test_cache_capacity_one;
    Alcotest.test_case "cache is safe under concurrent domains" `Quick
      test_cache_concurrent;
    QCheck_alcotest.to_alcotest prop_cache_lru_model;
    QCheck_alcotest.to_alcotest prop_cache_striped_model;
    Alcotest.test_case "ddg digest deterministic and sensitive" `Quick
      test_digest_deterministic_and_sensitive;
    Alcotest.test_case "ddg digest pinned and = reference" `Quick test_digest_pinned;
    QCheck_alcotest.to_alcotest prop_digest_matches_reference;
    Alcotest.test_case "config fingerprint sensitive" `Quick test_fingerprint_sensitive;
    QCheck_alcotest.to_alcotest prop_pipeline_cold_warm_uncached;
    Alcotest.test_case "capacity-1 artifact cache stays correct" `Quick
      test_capacity_one_artifact_cache_correct;
    Alcotest.test_case "determinism guard: cache on == off on fixed suite" `Quick
      test_determinism_guard;
    Alcotest.test_case "swaps are reported under a capacity" `Quick
      test_swaps_reported_under_capacity;
    Alcotest.test_case "cumulative == naive fold" `Quick test_cumulative_matches_naive_fold;
    Alcotest.test_case "measure_all schedules each loop once" `Quick
      test_measure_all_schedules_once;
    Alcotest.test_case "views ride with their schedule's entry" `Quick
      test_views_ride_with_entry;
    Alcotest.test_case "the store holds one file per entry and slot" `Quick
      test_disk_names_entries;
    Alcotest.test_case "raw and spill entries key their views apart" `Quick
      test_views_keyed_by_entry;
    QCheck_alcotest.to_alcotest prop_store_codecs_roundtrip;
  ]
