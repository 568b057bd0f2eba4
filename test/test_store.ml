(* The persistent on-disk artifact store and the sharded-run machinery
   built around it: entry round-trips (binary keys included), corrupted
   or truncated entries degrading to misses, stale temp-file
   reclamation, LRU size-budget eviction, the second-process
   determinism guard (uncached == cold == disk-warm, byte-identical),
   the content-hash shard partition, and the shard merge (ledgers and
   metrics). *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
module Store = Ncdrf_cache.Store
module Json = Ncdrf_telemetry.Json
module Ledger = Ncdrf_telemetry.Ledger
module Trace = Ncdrf_telemetry.Trace
module Merge = Ncdrf_telemetry.Merge
module Generator = Ncdrf_workloads.Generator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every .art entry file under the store root, sorted for determinism. *)
let entry_files dir =
  let acc = ref [] in
  let walk d =
    match Sys.readdir d with
    | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat d e in
          if Sys.is_directory p then ()
          else if Filename.check_suffix p ".art" then acc := p :: !acc)
        entries
    | exception Sys_error _ -> ()
  in
  (match Sys.readdir dir with
  | entries -> Array.iter (fun e ->
      let p = Filename.concat dir e in
      if Sys.is_directory p then walk p)
      entries
  | exception Sys_error _ -> ());
  List.sort String.compare !acc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_raw path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

(* ------------------------------------------------------------------ *)
(* Round trips.                                                        *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  Helpers.with_store_dir (fun dir ->
      let t = Store.open_store ~dir () in
      (* Keys carry NUL separators and digests with arbitrary bytes in
         real use; payloads are arbitrary too. *)
      let cases =
        [ ("plain", "payload");
          ("nul\x00key\x00#raw", "42");
          ("newline\nkey", "line1\nline2\n");
          ("empty-payload", "");
          (String.make 300 '\xfe', String.make 5000 '\x00') ]
      in
      List.iter (fun (k, v) -> Store.save t ~key:k v) cases;
      List.iter
        (fun (k, v) ->
          match Store.load t ~key:k ~decode:Option.some with
          | Some got -> check_string "round-trips" v got
          | None -> Alcotest.failf "key %S missed after save" (String.escaped k))
        cases;
      check_bool "absent key misses" true
        (Store.load t ~key:"never-saved" ~decode:Option.some = None);
      (* A decode that rejects the payload is a miss, and the useless
         entry is unlinked so it stops masking the slot. *)
      Store.save t ~key:"stale-format" "v0-payload";
      check_bool "rejecting decode is a miss" true
        (Store.load t ~key:"stale-format" ~decode:(fun _ -> None) = None);
      check_bool "rejected entry unlinked" true
        (Store.load t ~key:"stale-format" ~decode:Option.some = None);
      let s = Store.stats t in
      check_int "writes counted" (List.length cases + 1) s.Store.writes;
      check_int "hits counted" (List.length cases) s.Store.hits;
      check_int "misses counted" 3 s.Store.misses;
      check_bool "bytes accounted" true (s.Store.bytes > 0);
      (* A second handle on the same directory sees the same entries —
         that is the whole point of the store. *)
      let t2 = Store.open_store ~dir () in
      List.iter
        (fun (k, v) ->
          check_bool "second process hits" true
            (Store.load t2 ~key:k ~decode:Option.some = Some v))
        cases)

(* ------------------------------------------------------------------ *)
(* Corruption degrades to a miss — never an exception.                 *)
(* ------------------------------------------------------------------ *)

let prop_corrupt_entry_is_miss =
  let arb =
    QCheck.make
      ~print:(fun (seed, cut, flip) ->
        Printf.sprintf "seed=%d cut=%d flip=%d" seed cut flip)
      QCheck.Gen.(triple (int_bound 10_000) (int_bound 10_000) (int_bound 10_000))
  in
  QCheck.Test.make ~count:40 ~name:"corrupted or truncated entry is a miss" arb
    (fun (seed, cut, flip) ->
      Helpers.with_store_dir (fun dir ->
          let t = Store.open_store ~dir () in
          let key = Printf.sprintf "corrupt\x00%d\x00#raw" seed in
          let payload = Printf.sprintf "3|%d,0|%d,1|%d,0" seed (seed + 1) (seed * 7) in
          Store.save t ~key payload;
          let path =
            match entry_files dir with
            | [ p ] -> p
            | files -> Alcotest.failf "expected 1 entry, found %d" (List.length files)
          in
          let raw = read_file path in
          let n = String.length raw in
          (* Either truncate at an arbitrary offset or flip one byte. *)
          (if cut mod 2 = 0 then write_raw path (String.sub raw 0 (cut mod n))
           else begin
             let b = Bytes.of_string raw in
             let i = flip mod n in
             Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5b));
             write_raw path (Bytes.to_string b)
           end);
          let missed = Store.load t ~key ~decode:Option.some = None in
          (* The corrupt entry was unlinked, so a recompute republishes
             and the slot works again. *)
          Store.save t ~key payload;
          let recovered = Store.load t ~key ~decode:Option.some = Some payload in
          missed && recovered))

(* Store writes are published without fsync, so an OS crash can leave
   what the page cache had not flushed: a renamed entry of length zero,
   a prefix of the entry, or an entry of the right length whose tail
   blocks read back as zeros.  Each must read as a miss and leave the
   slot usable. *)
let test_crash_torn_entry_is_miss () =
  Helpers.with_store_dir (fun dir ->
      let t = Store.open_store ~dir () in
      let key = "torn\x00#view" and payload = String.init 600 (fun i -> Char.chr (i mod 251)) in
      Store.save t ~key payload;
      let path =
        match entry_files dir with
        | [ p ] -> p
        | files -> Alcotest.failf "expected 1 entry, found %d" (List.length files)
      in
      let raw = read_file path in
      let n = String.length raw in
      let leftovers =
        [
          ("zero-length", "");
          ("prefix", String.sub raw 0 (n / 2));
          ("zero-filled tail", String.sub raw 0 (n / 2) ^ String.make (n - (n / 2)) '\x00');
        ]
      in
      List.iter
        (fun (what, content) ->
          write_raw path content;
          check_bool (what ^ " is a miss") true (Store.load t ~key ~decode:Option.some = None);
          check_bool (what ^ " unlinked") false (Sys.file_exists path);
          Store.save t ~key payload;
          check_bool (what ^ ": slot recovers") true
            (Store.load t ~key ~decode:Option.some = Some payload))
        leftovers;
      let litter =
        List.filter (fun f -> Filename.check_suffix f ".tmp")
          (Array.to_list (Sys.readdir (Filename.dirname path)))
      in
      check_int "no temp litter" 0 (List.length litter))

(* ------------------------------------------------------------------ *)
(* Stale temp reclamation.                                             *)
(* ------------------------------------------------------------------ *)

let test_stale_tmp_reclaim () =
  Helpers.with_store_dir (fun dir ->
      let t = Store.open_store ~dir () in
      Store.save t ~key:"live" "entry";
      let stale = Filename.concat dir ".store-dead.tmp" in
      let fresh = Filename.concat dir ".store-racing.tmp" in
      write_raw stale "half-written";
      write_raw fresh "half-written";
      (* Age only the stale one past the probe threshold. *)
      Unix.utimes stale 1000.0 1000.0;
      check_int "one stale temp reclaimed" 1 (Store.reclaim_stale t);
      check_bool "old temp removed" false (Sys.file_exists stale);
      check_bool "young temp presumed live" true (Sys.file_exists fresh);
      check_bool "entries untouched" true
        (Store.load t ~key:"live" ~decode:Option.some = Some "entry");
      (* Reopening the directory reclaims killed-process litter too. *)
      write_raw stale "half-written";
      Unix.utimes stale 1000.0 1000.0;
      let _t2 = Store.open_store ~dir () in
      check_bool "open_store reclaims stale temps" false (Sys.file_exists stale))

(* ------------------------------------------------------------------ *)
(* Size-budget eviction, least recently used first.                    *)
(* ------------------------------------------------------------------ *)

let test_eviction_lru () =
  Helpers.with_store_dir (fun dir ->
      let payload = String.make 4096 'x' in
      let t = Store.open_store ~max_bytes:(3 * 4096) ~dir () in
      Store.save t ~key:"old" payload;
      (* Age the first entry so the LRU order is unambiguous even when
         both writes land in the same clock tick. *)
      (match entry_files dir with
      | [ p ] -> Unix.utimes p 1000.0 1000.0
      | _ -> Alcotest.fail "expected one entry");
      Store.save t ~key:"young" payload;
      (* Two ~4k entries fit a 12k budget; the third pushes past it and
         the sweep must evict the oldest. *)
      Store.save t ~key:"newest" payload;
      Store.sweep t;
      check_bool "oldest evicted" true
        (Store.load t ~key:"old" ~decode:Option.some = None);
      check_bool "recent entries survive" true
        (Store.load t ~key:"newest" ~decode:Option.some = Some payload);
      let s = Store.stats t in
      check_bool "evictions counted" true (s.Store.evictions > 0);
      check_bool "resident size within budget" true (s.Store.bytes <= 3 * 4096))

(* ------------------------------------------------------------------ *)
(* Second-process determinism guard: uncached == cold == disk-warm.    *)
(* ------------------------------------------------------------------ *)

let fixed_loops () =
  List.map
    (fun seed -> Generator.generate Generator.default ~seed ~name:(Printf.sprintf "s%d" seed))
    [ 11; 23; 35; 47; 59; 71 ]

let render_stats (st : Pipeline.stats) =
  let sched = st.Pipeline.schedule in
  let placements =
    String.concat ";"
      (List.init (Ddg.num_nodes sched.Schedule.ddg) (fun v ->
           Printf.sprintf "%d,%d" (Schedule.cycle sched v) (Schedule.cluster sched v)))
  in
  Printf.sprintf "%s %s mii=%d ii=%d req=%d spilled=%d density=%h swaps=%d [%s]"
    st.Pipeline.name
    (Model.to_string st.Pipeline.model)
    st.Pipeline.mii st.Pipeline.ii st.Pipeline.requirement st.Pipeline.spilled
    st.Pipeline.density st.Pipeline.swaps placements

let test_disk_warm_determinism () =
  Helpers.with_store_dir (fun dir ->
      let config = Config.dual ~latency:6 in
      let snapshot () =
        List.concat_map
          (fun ddg ->
            List.concat_map
              (fun model ->
                [ render_stats (Pipeline.run ~config ~model ddg);
                  render_stats (Pipeline.run ~config ~model ~capacity:24 ddg) ])
              Model.all)
          (fixed_loops ())
      in
      let saved = Store.ambient () in
      Fun.protect
        ~finally:(fun () ->
          Store.set_ambient saved;
          Artifact.clear_cache ())
        (fun () ->
          (* Reference: no store, no memory cache. *)
          Store.set_ambient None;
          Artifact.set_cache_enabled false;
          let uncached = snapshot () in
          Artifact.set_cache_enabled true;
          (* Cold process: empty store, empty memory cache. *)
          Artifact.clear_cache ();
          Store.set_ambient (Some (Store.open_store ~dir ()));
          let cold = snapshot () in
          (* Warm process: fresh memory cache and a fresh handle on the
             populated directory — everything replays from disk. *)
          Artifact.clear_cache ();
          let warm_store = Store.open_store ~dir () in
          Store.set_ambient (Some warm_store);
          let warm = snapshot () in
          Alcotest.(check (list string)) "cold == uncached" uncached cold;
          Alcotest.(check (list string)) "disk-warm == uncached" uncached warm;
          let s = Store.stats warm_store in
          check_bool "warm process replayed from disk" true (s.Store.hits > 0);
          check_int "warm process missed nothing" 0 s.Store.misses;
          check_int "warm process rewrote nothing" 0 s.Store.writes))

(* The raw-schedule entry carries its MII: [mii!ii|cycle,cluster|...].
   An entry written without the MII (the format from before the MII
   moved into it) or with a non-integer MII reads as a disk miss; the
   point is recomputed, the entry rewritten in the current format, and
   every model's result equals an uncached run's. *)
let test_raw_payload_formats () =
  Helpers.with_store_dir (fun dir ->
      let config = Config.dual ~latency:6 in
      let ddg = List.hd (fixed_loops ()) in
      let key = Config.fingerprint config ^ "\x01" ^ Ddg.digest ddg ^ "#raw" in
      let results () =
        List.map (fun model -> render_stats (Pipeline.run ~config ~model ddg)) Model.all
      in
      let saved = Store.ambient () in
      Fun.protect
        ~finally:(fun () ->
          Store.set_ambient saved;
          Artifact.set_cache_enabled true;
          Artifact.clear_cache ())
        (fun () ->
          Store.set_ambient None;
          Artifact.set_cache_enabled false;
          let uncached = results () in
          Artifact.set_cache_enabled true;
          let sched = Modulo.schedule config ddg in
          let schedule_payload =
            String.concat "|"
              (string_of_int (Schedule.ii sched)
              :: List.init (Ddg.num_nodes ddg) (fun v ->
                     Printf.sprintf "%d,%d" (Schedule.cycle sched v) (Schedule.cluster sched v)))
          in
          let current = Printf.sprintf "%d!%s" (Mii.mii config ddg) schedule_payload in
          List.iter
            (fun (what, payload) ->
              let store = Store.open_store ~dir () in
              Store.save store ~key payload;
              Store.set_ambient (Some store);
              Artifact.clear_cache ();
              let before = Store.stats store in
              ignore (Artifact.scheduled ~config ddg);
              let after = Store.stats store in
              check_int (what ^ ": read as a disk miss") 1
                (after.Store.misses - before.Store.misses);
              check_int (what ^ ": rewritten") 1 (after.Store.writes - before.Store.writes);
              Alcotest.(check (option string))
                (what ^ ": rewritten with its MII") (Some current)
                (Store.load store ~key ~decode:Option.some);
              Alcotest.(check (list string)) (what ^ ": == uncached") uncached (results ()))
            [
              ("format without MII", schedule_payload);
              ("non-integer MII", "x!" ^ schedule_payload);
            ]))

(* ------------------------------------------------------------------ *)
(* Shard partition.                                                    *)
(* ------------------------------------------------------------------ *)

let shard_loops () =
  List.map
    (fun seed ->
      { Suite_stats.ddg =
          Generator.generate Generator.default ~seed ~name:(Printf.sprintf "p%d" seed);
        weight = float_of_int (seed + 1) })
    (List.init 24 Fun.id)

let test_shard_partition () =
  let loops = shard_loops () in
  let name (l : Suite_stats.workload) = Ddg.name l.Suite_stats.ddg in
  List.iter
    (fun count ->
      let shards =
        List.init count (fun index -> Suite_stats.shard ~index ~count loops)
      in
      (* Union of the shards is the input, order preserved within each,
         and no loop lands in two shards. *)
      let total = List.concat_map (fun s -> List.map name s) shards in
      check_int
        (Printf.sprintf "union of %d shards covers the suite" count)
        (List.length loops) (List.length total);
      check_int
        (Printf.sprintf "%d shards are disjoint" count)
        (List.length loops)
        (List.length (List.sort_uniq String.compare total));
      (* The partition is a pure function of loop content. *)
      List.iteri
        (fun index s ->
          Alcotest.(check (list string))
            (Printf.sprintf "shard %d/%d deterministic" index count)
            (List.map name s)
            (List.map name (Suite_stats.shard ~index ~count loops)))
        shards)
    [ 1; 2; 3; 5 ];
  Alcotest.(check (list string)) "count = 1 is the identity"
    (List.map name loops)
    (List.map name (Suite_stats.shard ~index:0 ~count:1 loops));
  let invalid index count =
    match Suite_stats.shard ~index ~count loops with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative index rejected" true (invalid (-1) 2);
  check_bool "index >= count rejected" true (invalid 2 2);
  check_bool "count = 0 rejected" true (invalid 0 0)

(* ------------------------------------------------------------------ *)
(* Merging shard outputs.                                              *)
(* ------------------------------------------------------------------ *)

let record ~label ~loop ~config ~total_ns =
  {
    Trace.label;
    request = "";
    loop;
    config;
    fp = "00000000";
    models = "ncdrf";
    capacity = Some 32;
    clusters = Some 2;
    mii = Some 3;
    ii = Some 4;
    rounds = None;
    spilled = None;
    requirement = Some 17;
    maxlive = None;
    spill_full = None;
    cache_hits = 2;
    cache_misses = 1;
    disk_hits = 1;
    disk_misses = 0;
    stages = [ ("alloc", 5); ("schedule", 9) ];
    total_ns;
    ok = true;
    error = None;
  }

let test_merge_ledgers () =
  let a = record ~label:"fig8" ~loop:"zeta" ~config:"dual" ~total_ns:10 in
  let b = record ~label:"fig8" ~loop:"alpha" ~config:"dual" ~total_ns:20 in
  let c = record ~label:"fig6" ~loop:"mid" ~config:"dual" ~total_ns:30 in
  (* The unsharded writer sorts by identity; merging the two shards must
     land on exactly that order. *)
  let unsharded = List.sort Ledger.compare_records [ a; b; c ] in
  let merged = Merge.merge_ledgers [ [ c ]; [ a; b ] ] in
  check_string "merged shard order == unsharded order"
    (Ledger.to_jsonl unsharded) (Ledger.to_jsonl merged);
  let stripped = Merge.strip_record_timing a in
  check_int "total_ns zeroed" 0 stripped.Trace.total_ns;
  check_bool "stage durations zeroed" true
    (List.for_all (fun (_, ns) -> ns = 0) stripped.Trace.stages);
  check_string "identity untouched" a.Trace.loop stripped.Trace.loop;
  check_int "counts untouched" a.Trace.disk_hits stripped.Trace.disk_hits

let suite_metrics ~jobs ~wall_s ~loops ~hits =
  Json.Obj
    [
      ("schema", Json.String "ncdrf-suite-metrics/1");
      ("jobs", Json.Int jobs);
      ("suite_size", Json.Int 60);
      ("wall_s", Json.Float wall_s);
      ("loops_per_sec", Json.Float (float_of_int loops /. wall_s));
      ( "telemetry",
        Json.Obj
          [
            ( "spans",
              Json.Obj
                [ ( "schedule",
                    Json.Obj
                      [ ("total_s", Json.Float wall_s); ("count", Json.Int loops);
                        ("max_s", Json.Float 0.5); ("self_s", Json.Float (wall_s /. 2.0)) ] )
                ] );
            ( "counters",
              Json.Obj
                [ ("cache.disk_hits", Json.Int hits);
                  ("pipeline.loops", Json.Int loops) ] );
          ] );
    ]

(* A bench metrics document: one entry per experiment, each with a
   schedule span and a pipeline.loops counter of [loops], plus one
   failure record.  [serial] adds the wall-clock fields of older
   files, which a merge must drop. *)
let bench_metrics ?(serial = false) ~failure experiments =
  let experiment (name, wall_s, loops) =
    Json.Obj
      ([ ("name", Json.String name); ("wall_s", Json.Float wall_s);
         ("loops", Json.Int loops);
         ("loops_per_sec", Json.Float (float_of_int loops /. wall_s));
         ( "stages",
           Json.Obj
             [ ( "schedule",
                 Json.Obj
                   [ ("total_s", Json.Float wall_s); ("count", Json.Int loops);
                     ("max_s", Json.Float 0.5) ] ) ] );
         ("counters", Json.Obj [ ("pipeline.loops", Json.Int loops) ]) ]
      @
      if serial then
        [ ("serial_wall_s", Json.Float (2.0 *. wall_s)); ("speedup_vs_serial", Json.Float 2.0) ]
      else [])
  in
  Json.Obj
    [
      ("schema", Json.String "ncdrf-bench-metrics/1");
      ("jobs", Json.Int 2);
      ("recommended_jobs", Json.Int 2);
      ("suite_size", Json.Int 150);
      ("suite_seed", Json.Int 42);
      ("total_wall_s", Json.Float 1.0);
      ("experiments", Json.List (List.map experiment experiments));
      ("failures", Json.List [ Json.String failure ]);
    ]

let rec has_key key = function
  | Json.Obj fields ->
    List.exists (fun (k, v) -> String.equal k key || has_key key v) fields
  | Json.List items -> List.exists (has_key key) items
  | _ -> false

(* Path lookup into the Json tree: field "a.b.c" of nested objects. *)
let rec json_path json = function
  | [] -> Some json
  | key :: rest -> (
    match json with
    | Json.Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> json_path v rest
      | None -> None)
    | _ -> None)

let test_merge_metrics () =
  let m1 = suite_metrics ~jobs:1 ~wall_s:2.0 ~loops:30 ~hits:7 in
  let m2 = suite_metrics ~jobs:4 ~wall_s:3.0 ~loops:31 ~hits:5 in
  (match Merge.merge_metrics [ m1; m2 ] with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok merged ->
    let at path = json_path merged path in
    check_bool "counters summed" true
      (at [ "telemetry"; "counters"; "cache.disk_hits" ] = Some (Json.Int 12));
    check_bool "span counts summed" true
      (at [ "telemetry"; "spans"; "schedule"; "count" ] = Some (Json.Int 61));
    check_bool "span self times summed" true
      (at [ "telemetry"; "spans"; "schedule"; "self_s" ] = Some (Json.Float 2.5));
    check_bool "jobs is the max" true (at [ "jobs" ] = Some (Json.Int 4));
    check_bool "wall clock summed" true (at [ "wall_s" ] = Some (Json.Float 5.0));
    (* strip_timing nulls every wall-clock field but keeps counts. *)
    let stripped = Merge.strip_timing merged in
    check_bool "wall_s stripped" true (json_path stripped [ "wall_s" ] = Some Json.Null);
    check_bool "self_s stripped" true
      (json_path stripped [ "telemetry"; "spans"; "schedule"; "self_s" ] = Some Json.Null);
    check_bool "counters survive stripping" true
      (json_path stripped [ "telemetry"; "counters"; "cache.disk_hits" ]
      = Some (Json.Int 12)));
  (* Bench shards: experiments union in first-seen order, per-experiment
     wall clocks, loops, counters and span counts sum, failures
     concatenate, and no serial-rerun field survives. *)
  let b1 = bench_metrics ~serial:true ~failure:"a" [ ("fig6", 1.0, 10); ("fig8", 2.0, 20) ] in
  let b2 = bench_metrics ~failure:"b" [ ("fig8", 3.0, 21); ("table1", 0.5, 5) ] in
  (match Merge.merge_metrics [ b1; b2 ] with
  | Error e -> Alcotest.failf "bench merge failed: %s" e
  | Ok merged ->
    let experiments =
      match json_path merged [ "experiments" ] with
      | Some (Json.List l) -> l
      | _ -> Alcotest.fail "merged bench metrics carry no experiments list"
    in
    let names =
      List.map (fun e -> json_path e [ "name" ]) experiments
      |> List.map (function Some (Json.String n) -> n | _ -> "?")
    in
    Alcotest.(check (list string)) "experiments in first-seen order"
      [ "fig6"; "fig8"; "table1" ] names;
    let fig8 = List.nth experiments 1 in
    check_bool "experiment wall clocks summed" true
      (json_path fig8 [ "wall_s" ] = Some (Json.Float 5.0));
    check_bool "experiment loops summed" true
      (json_path fig8 [ "loops" ] = Some (Json.Int 41));
    check_bool "experiment counters summed" true
      (json_path fig8 [ "counters"; "pipeline.loops" ] = Some (Json.Int 41));
    check_bool "experiment span counts summed" true
      (json_path fig8 [ "stages"; "schedule"; "count" ] = Some (Json.Int 41));
    check_bool "failures concatenated" true
      (json_path merged [ "failures" ]
      = Some (Json.List [ Json.String "a"; Json.String "b" ]));
    check_bool "no serial_wall_s" false (has_key "serial_wall_s" merged);
    check_bool "no speedup_vs_serial" false (has_key "speedup_vs_serial" merged));
  (match Merge.merge_metrics [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty merge must error");
  match
    Merge.merge_metrics
      [ m1; Json.Obj [ ("schema", Json.String "ncdrf-serve-metrics/1") ] ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed schemas must error"

let suite =
  [
    Alcotest.test_case "store round-trips binary keys and payloads" `Quick
      test_store_roundtrip;
    QCheck_alcotest.to_alcotest prop_corrupt_entry_is_miss;
    Alcotest.test_case "zero-length or torn entry is a miss" `Quick
      test_crash_torn_entry_is_miss;
    Alcotest.test_case "stale temp files are reclaimed by age" `Quick
      test_stale_tmp_reclaim;
    Alcotest.test_case "size budget evicts least recently used" `Quick test_eviction_lru;
    Alcotest.test_case "uncached == cold == disk-warm, byte-identical" `Quick
      test_disk_warm_determinism;
    Alcotest.test_case "shard partition: disjoint, total, deterministic" `Quick
      test_shard_partition;
    Alcotest.test_case "shard ledgers merge to the unsharded order" `Quick
      test_merge_ledgers;
    Alcotest.test_case "shard metrics merge sums counters" `Quick test_merge_metrics;
    Alcotest.test_case "raw entry without an integer MII is a miss" `Quick
      test_raw_payload_formats;
  ]
