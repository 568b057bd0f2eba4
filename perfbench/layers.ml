(* Per-layer metrics of the traced composition: self time, call counts
   and tails per public entry point, the spiller's callback split, and
   the library's own deterministic program counters. *)

module Telemetry = Ncdrf_telemetry.Telemetry
module Json = Ncdrf_telemetry.Json

let us_tail p (s : Spans.stats) =
  match s.Spans.self_samples with [] -> 0.0 | xs -> 1e6 *. Samples.quantile xs p

let report_spans () =
  let get = Spans.by_name () in
  let calls name = Samples.addi (name ^ ".calls") "count" (get name).Spans.calls in
  let self name = Samples.add (name ^ ".self_s") "s" (get name).Spans.self_s in
  let tail name label p =
    let s = get name in
    Samples.add ~samples:s.Spans.calls (name ^ "." ^ label) "us" (us_tail p s)
  in
  List.iter
    (fun name ->
      calls name;
      self name)
    [ "mii"; "modulo"; "swap"; "requirements"; "spiller" ];
  tail "mii" "p99_us" 0.99;
  tail "modulo" "p99_us" 0.99;
  Samples.add ~samples:(List.length Compose.counts.Compose.modulo_calls)
    "modulo.ii_at_mii_share" "ratio" (Compose.ii_at_mii_share ());
  tail "swap" "p50_us" 0.5;
  tail "swap" "p99_us" 0.99;
  Samples.addi "swap.applied" "count" Compose.counts.Compose.swaps_applied;
  tail "requirements" "p50_us" 0.5;
  tail "requirements" "p99_us" 0.99;
  Samples.add "spiller.schedule_cb_s" "s" (get "spiller.schedule_cb").Spans.total_s;
  Samples.add "spiller.requirement_cb_s" "s" (get "spiller.requirement_cb").Spans.total_s;
  Samples.addi "spiller.rounds" "count" Compose.counts.Compose.rounds;
  Samples.addi "spiller.spilled" "count" Compose.counts.Compose.spilled;
  Samples.addi "spiller.ii_bumps" "count" Compose.counts.Compose.ii_bumps;
  List.iter
    (fun name -> Samples.addi name "count" (Telemetry.counter name))
    [ "alloc.probes"; "spill.full_reschedules"; "spill.lb_pruned" ]

(* Everything a traced run reports about its composition: whether every
   composed point equalled the pipeline ([mismatches] of [points]
   differed), the per-layer span metrics, the recording overhead (the
   recorded composition against the same composition unrecorded), and
   the span dump, which must load back as JSON. *)
let report_traced ~workload ~dump_dir ~mismatches ~points ~off_s ~on_s =
  Samples.check
    (Printf.sprintf "traced composition equals Pipeline.run (%d of %d points differ)"
       mismatches points)
    (mismatches = 0);
  report_spans ();
  Samples.add ~samples:4 "trace.overhead_share" "ratio" ((on_s /. off_s) -. 1.0);
  let path = Spans.dump ~path:(Filename.concat dump_dir ("spans-" ^ workload ^ ".json")) in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Samples.check "span dump loads as JSON" (Result.is_ok (Json.of_string text))

(* Layers the workload does not reach report zero. *)
let bypassed metrics =
  List.iter
    (fun (name, unit_) -> Samples.add ~samples:0 ~note:"bypassed" name unit_ 0.0)
    metrics

let store_bypassed =
  [ ("store.writes", "count"); ("store.bytes", "bytes"); ("store.hits", "count");
    ("store.misses", "count"); ("store.cold_overhead_s", "s") ]

let pool_bypassed =
  [ ("pool.speedup", "ratio"); ("pool.busy_share", "ratio"); ("pool.imbalance", "ratio") ]

let server_bypassed =
  [ ("server.p50_ms", "ms"); ("server.p99_ms", "ms"); ("transport.p50_ms", "ms");
    ("server.cache_hit_ratio", "ratio") ]

let artifact ~before ~after =
  let module Cache = Ncdrf_cache.Cache in
  let hits = after.Cache.hits - before.Cache.hits in
  let misses = after.Cache.misses - before.Cache.misses in
  Samples.addi "artifact.hits" "count" hits;
  Samples.addi "artifact.misses" "count" misses;
  Samples.add "artifact.hit_ratio" "ratio"
    (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses))
