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

(* The generic observed-unit wrapper: install a fresh point as the
   ambient trace context under the given labels, and finish it into the
   ledger on return or raise.  Stage self times accumulate into it per
   name (a point can record e.g. several "alloc" frames across spill
   rounds), so they are disjoint and add up to at most [total_ns].
   [with_point] instantiates it for (config, loop) compilation points;
   the serving daemon instantiates it per request (loop = request id,
   config = "serve/<kind>"). *)
let observe ~loop ~config ?(fp = "") ?(models = "") ?capacity f =
  if not (Trace.active ()) then f ()
  else begin
    let t0 = Telemetry.now_ns () in
    let p =
      {
        Trace.label = Ledger.label ();
        request = Trace.current_request ();
        loop;
        config;
        fp;
        models;
        capacity;
        clusters = None;
        mii = None;
        ii = None;
        rounds = None;
        spilled = None;
        requirement = None;
        maxlive = None;
        spill_full = None;
        cache_hits = 0;
        cache_misses = 0;
        disk_hits = 0;
        disk_misses = 0;
        stages = [];
        total_ns = 0;
        ok = true;
        error = None;
      }
    in
    let finish ~ok =
      p.total_ns <- Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0);
      p.ok <- ok;
      Ledger.add p
    in
    match Trace.with_context p f with
    | v ->
      finish ~ok:true;
      v
    | exception e ->
      (match e with
      | Sys.Break -> ()
      | _ ->
        p.error <- Some (Error.category_name (Error.category_of_exn e));
        finish ~ok:false);
      raise e
  end

let with_point ~config ~models ?capacity ddg f =
  if not (Trace.active ()) then f ()
  else begin
    let models = String.concat "+" (List.map Model.to_string models) in
    observe ~loop:(Ddg.name ddg) ~config:config.Config.name
      ~fp:(short_fingerprint config) ~models ?capacity (fun () ->
        Trace.update (fun p -> p.Trace.clusters <- Some (Config.num_clusters config));
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
    let k = Int.max 1 (Config.num_clusters config) in
    (ml + k - 1) / k

let run ~config ~model ?capacity ?victim ddg =
  with_point ~config ~models:[ model ] ?capacity ddg @@ fun () ->
  Telemetry.incr "pipeline.loops";
  Telemetry.incr ~by:(Config.num_clusters config) "cluster.subfiles";
  if Config.has_port_caps config then Telemetry.incr "ports.capped_points";
  let a = Artifact.scheduled ~config ddg in
  let finish ?error ~final_ddg ~sched ~requirement ~fits ~spilled ~added_memops ~ii_bumps
      ~swaps () =
    (* [sched] schedules [final_ddg] (or a graph of the same digest), so
       one count serves both figures. *)
    let memops = Traffic.memops_per_iteration final_ddg in
    {
      name = Ddg.name ddg;
      model;
      mii = a.Artifact.mii;
      ii = Schedule.ii sched;
      stages = Schedule.stages sched;
      requirement;
      capacity;
      fits;
      spilled;
      added_memops;
      ii_bumps;
      memops_per_iter = memops;
      density = Traffic.density ~memops sched;
      swaps;
      schedule = sched;
      error;
    }
  in
  (* Every point measures the raw schedule's view first.  For a
     capacity run that is the spill loop's round 0; measuring it
     {e before} entering the spiller keeps the common fits-immediately
     case out of the spill stage entirely.  The spiller's entry fault
     point fires here so an armed "spill" fault still hits every
     capacity run; the selection hash is stateless, so the second
     firing inside [Spiller.run] on the slow path decides identically
     (a no-op). *)
  let spills = capacity <> None && model <> Model.Ideal in
  if spills then Fault.point ~stage:"spill" ~key:(Ddg.name ddg);
  let v = Artifact.view ~model a.Artifact.entry in
  match capacity with
  | Some cap when spills && v.Artifact.requirement > cap ->
    (* The "spill" span wraps the whole iterative spill loop, which
       re-schedules and re-allocates internally: its self time is the
       loop's own work, rescheduling included (a round's schedule
       records no frame), and the nested "alloc"/"swap" frames of its
       rounds' views count under their own names (its inclusive
       [total_s] still covers them).  Only cache misses record: a warm
       view contributes nothing.  The spiller asks for the requirement
       of the schedules the scheduling callback returned, possibly a
       round late, so the entries of this run's rounds are kept to read
       their views off. *)
    let rounds = ref [] in
    let outcome =
      Telemetry.time "spill" (fun () ->
          Spiller.run ~config
            ~requirement:(fun raw ->
              let v =
                match List.assq_opt raw !rounds with
                | Some e -> Artifact.view ~model e
                | None -> Artifact.view_of_schedule ~model raw
              in
              (v.Artifact.sched, v.Artifact.requirement))
            ~schedule:(fun ~min_ii ddg ->
              let e = Artifact.spill_entry ~config ~min_ii ddg in
              let raw = Artifact.entry_schedule e in
              rounds := (raw, e) :: !rounds;
              raw)
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
    if Trace.active () then
      Trace.update (fun p ->
          p.Trace.ii <- Some (Schedule.ii outcome.Spiller.schedule);
          p.Trace.rounds <- Some outcome.Spiller.rounds;
          p.Trace.spilled <- Some outcome.Spiller.spilled;
          p.Trace.requirement <- Some outcome.Spiller.requirement;
          p.Trace.maxlive <- Some (Requirements.max_live_cost outcome.Spiller.schedule);
          Option.iter
            (fun (e : Error.t) -> p.Trace.error <- Some (Error.category_name e.Error.category))
            outcome.Spiller.error);
    finish ?error:outcome.Spiller.error ~final_ddg:outcome.Spiller.ddg
      ~sched:outcome.Spiller.schedule ~requirement:outcome.Spiller.requirement
      ~fits:outcome.Spiller.fits ~spilled:outcome.Spiller.spilled
      ~added_memops:outcome.Spiller.added_memops ~ii_bumps:outcome.Spiller.ii_bumps
      ~swaps ()
  | Some _ | None ->
    if spills then begin
      Telemetry.incr ~by:0 "pipeline.spilled";
      Telemetry.incr ~by:0 "pipeline.ii_bumps"
    end;
    if Trace.active () then
      Trace.update (fun p ->
          p.Trace.ii <- Some (Schedule.ii v.Artifact.sched);
          p.Trace.requirement <- Some v.Artifact.requirement;
          p.Trace.maxlive <- Some (Requirements.max_live_cost v.Artifact.sched);
          if spills then begin
            p.Trace.rounds <- Some 0;
            p.Trace.spilled <- Some 0
          end);
    finish ~final_ddg:ddg ~sched:v.Artifact.sched ~requirement:v.Artifact.requirement
      ~fits:true ~spilled:0 ~added_memops:0 ~ii_bumps:0 ~swaps:v.Artifact.swaps ()
