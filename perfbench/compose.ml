(* The traced composition: one compilation point rebuilt from the same
   public calls [Pipeline.run] and [Suite_stats.measure_all] make, each
   wrapped in a span.  Run with the in-memory cache disabled, every call
   does its work, so span self times are the layers' costs.  The
   results (II, requirement, values spilled) must equal the pipeline's
   on every point. *)

open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
module Spiller = Ncdrf_spill.Spiller
module Lifetime = Ncdrf_regalloc.Lifetime

type result = {
  ii : int;
  requirement : int;
  spilled : int;
}

(* Work counters of the recorded pass, read by the per-layer report. *)
type counts = {
  mutable swaps_applied : int;
  mutable rounds : int;
  mutable spilled : int;
  mutable ii_bumps : int;
  mutable modulo_calls : (Config.t * int * Ncdrf_ir.Ddg.t * int) list;
      (** (config, min_ii, graph, achieved II) of every modulo call *)
}

let counts =
  { swaps_applied = 0; rounds = 0; spilled = 0; ii_bumps = 0; modulo_calls = [] }

let reset_counts () =
  counts.swaps_applied <- 0;
  counts.rounds <- 0;
  counts.spilled <- 0;
  counts.ii_bumps <- 0;
  counts.modulo_calls <- []

(* Modulo scheduling as the pipeline reaches it: through the spiller's
   scheduling step, which at [min_ii = 1] on an unspilled graph is the
   raw schedule. *)
let modulo ~config ~min_ii ddg =
  let s = Spans.span "modulo" (fun () -> Artifact.spill_schedule ~config ~min_ii ddg) in
  if !Spans.on then
    counts.modulo_calls <- (config, min_ii, ddg, Schedule.ii s) :: counts.modulo_calls;
  s

(* Share of modulo calls whose first II attempt succeeded: the achieved
   II equals the bound the search starts from.  Computed after the
   recorded pass so the bound computations stay outside every span. *)
let ii_at_mii_share () =
  match counts.modulo_calls with
  | [] -> 0.0
  | calls ->
    let at_bound =
      List.length
        (List.filter
           (fun (config, min_ii, ddg, ii) -> ii = max min_ii (Mii.mii config ddg))
           calls)
    in
    float_of_int at_bound /. float_of_int (List.length calls)

(* [Artifact.apply_model], call by call. *)
let requirement model sched =
  match model with
  | Model.Ideal | Model.Unified ->
    (sched, Spans.span "requirements" (fun () -> Requirements.unified sched))
  | Model.Partitioned ->
    ( sched,
      Spans.span "requirements" (fun () ->
          (Requirements.partitioned sched).Requirements.requirement) )
  | Model.Swapped ->
    let swapped, st = Spans.span "swap" (fun () -> Swap.improve sched) in
    if !Spans.on then counts.swaps_applied <- counts.swaps_applied + st.Swap.swaps;
    ( swapped,
      Spans.span "requirements" (fun () ->
          (Requirements.partitioned swapped).Requirements.requirement) )

(* The per-model MaxLive lower bound [Pipeline.run] hands the spiller,
   rebuilt from public functions so pruned rounds match. *)
let lower_bound ~config ~model raw ~lifetimes =
  match model with
  | Model.Ideal -> 0
  | Model.Unified -> Lifetime.max_live ~ii:(Schedule.ii raw) (Lazy.force lifetimes)
  | Model.Partitioned -> Requirements.max_live_cost ~lifetimes:(Lazy.force lifetimes) raw
  | Model.Swapped ->
    let ml = Lifetime.max_live ~ii:(Schedule.ii raw) (Lazy.force lifetimes) in
    let k = max 1 (Config.num_clusters config) in
    (ml + k - 1) / k

(* One [Pipeline.run ~config ~model ?capacity] point. *)
let pipeline_point ~config ~model ?capacity ddg =
  ignore (Spans.span "mii" (fun () -> Mii.mii config ddg));
  let raw0 = modulo ~config ~min_ii:1 ddg in
  let sched0, r0 = requirement model raw0 in
  let free = { ii = Schedule.ii sched0; requirement = r0; spilled = 0 } in
  match capacity, model with
  | None, _ | Some _, Model.Ideal -> free
  | Some cap, _ when r0 <= cap -> free
  | Some cap, _ ->
    let o =
      Spans.span "spiller" (fun () ->
          Spiller.run ~config
            ~requirement:(fun raw ->
              Spans.span "spiller.requirement_cb" (fun () -> requirement model raw))
            ~schedule:(fun ~min_ii ddg ->
              Spans.span "spiller.schedule_cb" (fun () -> modulo ~config ~min_ii ddg))
            ~capacity:cap ~lower_bound:(lower_bound ~config ~model) ddg)
    in
    if !Spans.on then begin
      counts.rounds <- counts.rounds + o.Spiller.rounds;
      counts.spilled <- counts.spilled + o.Spiller.spilled;
      counts.ii_bumps <- counts.ii_bumps + o.Spiller.ii_bumps
    end;
    {
      ii = Schedule.ii o.Spiller.schedule;
      requirement = o.Spiller.requirement;
      spilled = o.Spiller.spilled;
    }

(* One (config, loop) of [Suite_stats.measure_all]: one raw schedule,
   then each model's view of it.  Results in the order of [models]. *)
let table_point ~config ~models ddg =
  let raw = modulo ~config ~min_ii:1 ddg in
  List.map
    (fun model ->
      let sched, r = requirement model raw in
      { ii = Schedule.ii sched; requirement = r; spilled = 0 })
    models

let of_stats (s : Pipeline.stats) =
  { ii = s.Pipeline.ii; requirement = s.Pipeline.requirement; spilled = s.Pipeline.spilled }

(* Runs [pass] with the compile cache off, each time from a cold
   allocator memo: unrecorded, recorded (spans and telemetry counters),
   and again both ways, so neither side alone pays the warm-up.
   Returns (result of the last recorded pass, unrecorded seconds,
   recorded seconds); spans, counts and the library's program counters
   hold the last recorded pass until the next reset. *)
let traced pass =
  let module Telemetry = Ncdrf_telemetry.Telemetry in
  Artifact.set_cache_enabled false;
  Fun.protect ~finally:(fun () ->
      Spans.on := false;
      Telemetry.enable false;
      Artifact.set_cache_enabled true)
  @@ fun () ->
  let run recorded =
    Artifact.clear_cache ();
    if recorded then begin
      Spans.reset ();
      reset_counts ();
      Telemetry.reset ()
    end;
    Telemetry.enable recorded;
    Spans.on := recorded;
    let t0 = Samples.now () in
    let r = pass () in
    let dt = Samples.now () -. t0 in
    Spans.on := false;
    Telemetry.enable false;
    (r, dt)
  in
  let _, off1 = run false in
  let _, on1 = run true in
  let _, off2 = run false in
  let r, on2 = run true in
  (r, off1 +. off2, on1 +. on2)
