open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_spill
module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace
module Ledger = Ncdrf_telemetry.Ledger
module Error = Ncdrf_error.Error
module Fault = Ncdrf_fault.Fault
module Regalloc = Ncdrf_regalloc

type stats = {
  name : string;
  model : Model.t;
  mii : int;
  ii : int;
  stages : int;
  requirement : int;
  capacity : int option;
  fits : bool;
  spilled : int;
  added_memops : int;
  ii_bumps : int;
  memops_per_iter : int;
  density : float;
  swaps : int;
  schedule : Schedule.t;
  error : Ncdrf_error.Error.t option;
}

(* Config fingerprints embed NUL-separated binary structure; the ledger
   carries the display name plus a short digest for identity. *)
let short_fingerprint config =
  String.sub (Digest.to_hex (Digest.string (Config.fingerprint config))) 0 12

(* Harvest the ambient point context into one ledger record.  Stage
   times are the self nanoseconds the point's stage frames summed per
   name (a point can record e.g. several "alloc" frames across spill
   rounds), so they are disjoint and add up to at most [total_ns]. *)
let point_record ~models ~capacity ~t0 ~ok (p : Trace.point) =
  let opt v = if v < 0 then None else Some v in
  let stages =
    List.map (fun (st : Trace.stage) -> (st.Trace.stage, st.Trace.ns)) p.Trace.stages
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    Ledger.label = Ledger.label ();
    request = Trace.current_request ();
    loop = p.Trace.loop;
    config = p.Trace.config;
    fp = p.Trace.fp;
    models;
    capacity;
    clusters = opt p.Trace.clusters;
    mii = opt p.Trace.mii;
    ii = opt p.Trace.ii;
    rounds = opt p.Trace.rounds;
    spilled = opt p.Trace.spilled;
    requirement = opt p.Trace.requirement;
    maxlive = opt p.Trace.maxlive;
    spill_full = opt p.Trace.spill_full;
    cache_hits = p.Trace.cache_hits;
    cache_misses = p.Trace.cache_misses;
    disk_hits = p.Trace.disk_hits;
    disk_misses = p.Trace.disk_misses;
    stages;
    total_ns = Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0);
    ok;
    error = p.Trace.error;
  }

(* The generic observed-unit wrapper: install an ambient trace context
   under the given labels and harvest it into one ledger record on
   return or raise.  [with_point] instantiates it for (config, loop)
   compilation points; the serving daemon instantiates it per request
   (loop = request id, config = "serve/<kind>"). *)
let observe ~loop ~config ?(fp = "") ?(models = "") ?capacity f =
  if not (Trace.active ()) then f ()
  else begin
    let t0 = Telemetry.now_ns () in
    Trace.with_context ~loop ~config ~fp @@ fun () ->
    let record ~ok =
      if Ledger.enabled () then
        Option.iter
          (fun p -> Ledger.add (point_record ~models ~capacity ~t0 ~ok p))
          (Trace.current ())
    in
    match f () with
    | v ->
      record ~ok:true;
      v
    | exception e ->
      (match e with
      | Sys.Break -> ()
      | _ ->
        Trace.set_error (Error.category_name (Error.category_of_exn e));
        record ~ok:false);
      raise e
  end

let with_point ~config ~models ?capacity ddg f =
  if not (Trace.active ()) then f ()
  else begin
    let models = String.concat "+" (List.map Model.to_string models) in
    observe ~loop:(Ddg.name ddg) ~config:config.Config.name
      ~fp:(short_fingerprint config) ~models ?capacity (fun () ->
        Trace.set_result ~clusters:(Config.num_clusters config) ();
        f ())
  end

(* Cheap, sound lower bound on a raw schedule's register requirement
   under [model], used by the spiller to skip exact measurements of
   rounds that are provably still over capacity.  Unified: MaxLive.
   Partitioned: per-cluster MaxLive under the current assignment.
   Swapped: the assignment will change, but every cluster counts its
   locals plus all globals, so the widest cluster holds at least
   [ceil (MaxLive / num_clusters)] values under any assignment. *)
let spill_lower_bound ~config ~model raw ~lifetimes =
  match model with
  | Model.Ideal -> 0
  | Model.Unified ->
    Regalloc.Lifetime.max_live ~ii:(Schedule.ii raw) (Lazy.force lifetimes)
  | Model.Partitioned -> Requirements.max_live_cost ~lifetimes:(Lazy.force lifetimes) raw
  | Model.Swapped ->
    let ml = Regalloc.Lifetime.max_live ~ii:(Schedule.ii raw) (Lazy.force lifetimes) in
    let k = max 1 (Config.num_clusters config) in
    (ml + k - 1) / k

let run ~config ~model ?capacity ?victim ddg =
  with_point ~config ~models:[ model ] ?capacity ddg @@ fun () ->
  Telemetry.incr "pipeline.loops";
  Telemetry.incr ~by:(Config.num_clusters config) "cluster.subfiles";
  if Config.has_port_caps config then Telemetry.incr "ports.capped_points";
  let mii = Artifact.mii ~config ddg in
  let finish ?error ~final_ddg ~sched ~requirement ~fits ~spilled ~added_memops ~ii_bumps
      ~swaps () =
    {
      name = Ddg.name ddg;
      model;
      mii;
      ii = Schedule.ii sched;
      stages = Schedule.stages sched;
      requirement;
      capacity;
      fits;
      spilled;
      added_memops;
      ii_bumps;
      memops_per_iter = Traffic.memops_per_iteration final_ddg;
      density = Traffic.density sched;
      swaps;
      schedule = sched;
      error;
    }
  in
  match capacity, model with
  | None, _ | Some _, Model.Ideal ->
    let artifact = Artifact.scheduled ~config ddg in
    let v = Artifact.view artifact ~model in
    let fits =
      match capacity, model with
      | _, Model.Ideal | None, _ -> true
      | Some cap, _ -> v.Artifact.requirement <= cap
    in
    if Trace.active () then
      Trace.set_result ~ii:(Schedule.ii v.Artifact.sched)
        ~requirement:v.Artifact.requirement
        ~maxlive:(Requirements.max_live_cost v.Artifact.sched) ();
    finish ~final_ddg:ddg ~sched:v.Artifact.sched ~requirement:v.Artifact.requirement
      ~fits ~spilled:0 ~added_memops:0 ~ii_bumps:0 ~swaps:v.Artifact.swaps ()
  | Some cap, _ ->
    (* Round 0 of the spill loop schedules the original graph at the
       free-running II and measures it — exactly what a capacity-less
       run computes.  Doing that {e before} entering the spiller keeps
       the common fits-immediately case out of the spill stage entirely
       (and shares the raw-schedule memo entry with free runs of the
       same point).  The spiller's entry fault point fires here so an
       armed "spill" fault still hits every capacity run; the selection
       hash is stateless, so the second firing inside [Spiller.run] on
       the slow path decides identically (a no-op). *)
    Fault.point ~stage:"spill" ~key:(Ddg.name ddg);
    let raw0 = Artifact.spill_schedule ~config ~min_ii:1 ddg in
    let v0 = Artifact.view_of_schedule ~model raw0 in
    if v0.Artifact.requirement <= cap then begin
      Telemetry.incr ~by:0 "pipeline.spilled";
      Telemetry.incr ~by:0 "pipeline.ii_bumps";
      if Trace.active () then
        Trace.set_result
          ~ii:(Schedule.ii v0.Artifact.sched)
          ~rounds:0 ~spilled:0 ~requirement:v0.Artifact.requirement
          ~maxlive:(Requirements.max_live_cost v0.Artifact.sched) ();
      finish ~final_ddg:ddg ~sched:v0.Artifact.sched
        ~requirement:v0.Artifact.requirement ~fits:true ~spilled:0 ~added_memops:0
        ~ii_bumps:0 ~swaps:v0.Artifact.swaps ()
    end
    else begin
    (* The "spill" span wraps the whole iterative spill loop, which
       re-schedules and re-allocates internally: its self time is the
       loop's own work, and the nested "schedule"/"alloc"/"swap" frames
       of its rounds count under their own names (its inclusive
       [total_s] still covers them).  Only cache misses record: a warm
       round contributes nothing. *)
    let outcome =
      Telemetry.time "spill" (fun () ->
          Spiller.run ~config
            ~requirement:(fun raw ->
              let v = Artifact.view_of_schedule ~model raw in
              (v.Artifact.sched, v.Artifact.requirement))
            ~schedule:(fun ~min_ii ddg -> Artifact.spill_schedule ~config ~min_ii ddg)
            ~capacity:cap ?victim
            ~lower_bound:(spill_lower_bound ~config ~model)
            ddg)
    in
    Telemetry.incr ~by:outcome.Spiller.spilled "pipeline.spilled";
    Telemetry.incr ~by:outcome.Spiller.ii_bumps "pipeline.ii_bumps";
    (* Swaps are counted against the final round's pre-transform
       schedule, which the spiller now threads out — counting the final
       schedule against itself reported 0 for every capacity run. *)
    let swaps =
      Artifact.count_swaps model outcome.Spiller.raw_schedule outcome.Spiller.schedule
    in
    if Trace.active () then begin
      Trace.set_result
        ~ii:(Schedule.ii outcome.Spiller.schedule)
        ~rounds:outcome.Spiller.rounds ~spilled:outcome.Spiller.spilled
        ~requirement:outcome.Spiller.requirement
        ~maxlive:(Requirements.max_live_cost outcome.Spiller.schedule) ();
      Option.iter
        (fun (e : Error.t) -> Trace.set_error (Error.category_name e.Error.category))
        outcome.Spiller.error
    end;
    finish ?error:outcome.Spiller.error ~final_ddg:outcome.Spiller.ddg
      ~sched:outcome.Spiller.schedule ~requirement:outcome.Spiller.requirement
      ~fits:outcome.Spiller.fits ~spilled:outcome.Spiller.spilled
      ~added_memops:outcome.Spiller.added_memops ~ii_bumps:outcome.Spiller.ii_bumps
      ~swaps ()
    end
