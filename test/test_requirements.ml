(* Differential tests of [Requirements] — one analysis per schedule,
   index subsets of one conflict table — against the per-cluster-table
   implementation it replaced ([Requirements_reference]): requirements,
   every lazy breakdown field, MaxLive and the placements of
   [partitioned_allocation], on the dual L3/L6 suite schedules and
   their swapped variants and on random schedules at k in {1, 2, 3, 4}
   with and without port caps, and the unified requirement.  Also
   checks that the views [Artifact] computes from one shared analysis
   equal the reference's, that the counting sort behind
   [Requirements.sorted]'s start order equals [Alloc.sorted]'s, that
   the occupancy an analysis and the swap pass share bounds the joint
   search exactly as the per-search recomputation did, that the
   executor's allocation counts its probes, and that warm searches do
   not allocate. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
open Ncdrf_regalloc
module Ref = Requirements_reference
module Telemetry = Ncdrf_telemetry.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

(* Every partitioned output of one schedule (requirements, every lazy
   breakdown field, MaxLive, MaxLive cost and the placements), rendered
   so a mismatch reports what differs.  [partitioned] is given as a
   function so the analysis-sharing entry point can be checked too. *)
let new_outputs ?(partitioned = Requirements.partitioned) sched =
  let d = partitioned sched in
  [
    ("requirement", string_of_int d.Requirements.requirement);
    ("clusters", ints (Lazy.force d.Requirements.cluster_requirements));
    ("global", string_of_int (Lazy.force d.Requirements.global_requirement));
    ("locals", ints (Lazy.force d.Requirements.local_requirements));
    ("max_live", ints (Lazy.force d.Requirements.max_live));
    ("max_live_cost", string_of_int (Requirements.max_live_cost sched));
    ( "max_live_cost_lifetimes",
      string_of_int (Requirements.max_live_cost ~lifetimes:(Lifetime.of_schedule sched) sched) );
  ]

let ref_outputs sched =
  let d = Ref.partitioned sched in
  [
    ("requirement", string_of_int d.Ref.requirement);
    ("clusters", ints (Lazy.force d.Ref.cluster_requirements));
    ("global", string_of_int (Lazy.force d.Ref.global_requirement));
    ("locals", ints (Lazy.force d.Ref.local_requirements));
    ("max_live", ints (Lazy.force d.Ref.max_live));
    ("max_live_cost", string_of_int (Ref.max_live_cost sched));
    ("max_live_cost_lifetimes", string_of_int (Ref.max_live_cost sched));
  ]

let placements ps =
  String.concat ";"
    (List.map
       (fun p ->
         Printf.sprintf "%d@%d-%d:r%d" p.Alloc.value.Lifetime.producer
           p.Alloc.value.Lifetime.start p.Alloc.value.Lifetime.stop p.Alloc.register)
       ps)

let new_allocation sched =
  let a = Requirements.partitioned_allocation sched in
  Printf.sprintf "cap=%d globals=%s locals=%s" a.Requirements.capacity
    (String.concat ";"
       (List.map
          (fun (p, cs) ->
            placements [ p ] ^ "/" ^ String.concat "," (List.map string_of_int cs))
          a.Requirements.globals))
    (String.concat " | " (Array.to_list (Array.map placements a.Requirements.locals)))

let ref_allocation sched =
  let a = Ref.partitioned_allocation sched in
  Printf.sprintf "cap=%d globals=%s locals=%s" a.Ref.capacity
    (String.concat ";"
       (List.map
          (fun (p, cs) ->
            placements [ p ] ^ "/" ^ String.concat "," (List.map string_of_int cs))
          a.Ref.globals))
    (String.concat " | " (Array.to_list (Array.map placements a.Ref.locals)))

let render fields = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

(* [None] when every partitioned output matches, else both renderings. *)
let mismatch ?partitioned sched =
  let got = render (new_outputs ?partitioned sched @ [ ("allocation", new_allocation sched) ])
  and want = render (ref_outputs sched @ [ ("allocation", ref_allocation sched) ]) in
  if got = want then None else Some (got, want)

(* [None] when the unified requirement matches, else both values. *)
let unified_mismatch sched =
  let got = Requirements.unified sched and want = Ref.unified sched in
  if got = want then None
  else Some (Printf.sprintf "unified=%d" got, Printf.sprintf "unified=%d" want)

(* The partitioned outputs and the unified requirement. *)
let check what ?partitioned sched =
  let unified = unified_mismatch sched in
  match mismatch ?partitioned sched, unified with
  | None, None -> ()
  | Some (got, want), _ | None, Some (got, want) ->
    Alcotest.failf "%s:\n  new %s\n  ref %s" what got want

(* The dual L3/L6 suite schedules and their swapped variants; the
   swapped variant is measured both from its own analysis and from the
   raw schedule's, as the Swapped view does. *)
let test_suite_schedules () =
  let loops = Ncdrf_workloads.Suite.full () in
  List.iter
    (fun latency ->
      let config = Config.dual ~latency in
      List.iter
        (fun (e : Ncdrf_workloads.Suite.entry) ->
          let raw = Modulo.schedule config e.Ncdrf_workloads.Suite.ddg in
          let what = Printf.sprintf "%s L%d" (Ddg.name e.Ncdrf_workloads.Suite.ddg) latency in
          check what raw;
          let a = Requirements.analyse raw in
          let swapped, _, _ = Swap.improve_occupancy a raw in
          check (what ^ " swapped") swapped;
          check (what ^ " swapped, shared analysis")
            ~partitioned:(Requirements.partitioned_of a)
            swapped)
        loops)
    [ 3; 6 ]

(* A random machine: k in {1, 2, 3, 4} clusters, latency 3 or 6, and
   per-subfile port caps or none. *)
let config_of ~k ~latency ~caps =
  if caps then Config.k_cluster ~read_ports:2 ~write_ports:1 ~k ~latency ()
  else Config.k_cluster ~k ~latency ()

let prop_random_schedules =
  let arb =
    QCheck.make
      ~print:(fun (seed, k, heavy, caps) ->
        Printf.sprintf "seed=%d k=%d heavy=%b caps=%b" seed k heavy caps)
      QCheck.Gen.(quad (int_bound 50_000) (int_range 1 4) bool bool)
  in
  QCheck.Test.make ~count:60 ~name:"Requirements = reference on random schedules" arb
    (fun (seed, k, heavy, caps) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let ddg = Ncdrf_workloads.Generator.generate params ~seed ~name:"req-eq" in
      let config = config_of ~k ~latency:(if seed mod 2 = 0 then 3 else 6) ~caps in
      let raw = Modulo.schedule config ddg in
      let swapped, _ = Swap.improve raw in
      let agrees = function
        | None -> true
        | Some (got, want) -> QCheck.Test.fail_reportf "new %s\nref %s" got want
      in
      List.for_all
        (fun sched -> agrees (mismatch sched) && agrees (unified_mismatch sched))
        [ raw; swapped ])

(* The views of one call share an analysis and reuse the Partitioned
   requirement when no swap applies; each must equal the reference
   computed from scratch, in either model order. *)
let test_shared_views () =
  let loops = Ncdrf_workloads.Suite.full ~size:120 () in
  List.iter
    (fun config ->
      List.iter
        (fun (e : Ncdrf_workloads.Suite.entry) ->
          let raw = Modulo.schedule config e.Ncdrf_workloads.Suite.ddg in
          let ref_swapped, _ = Swap_reference.improve raw in
          let want =
            [
              (Model.Unified, Ref.unified raw);
              (Model.Partitioned, (Ref.partitioned raw).Ref.requirement);
              (Model.Swapped, (Ref.partitioned ref_swapped).Ref.requirement);
            ]
          in
          List.iter
            (fun models ->
              Artifact.clear_cache ();
              let a = Artifact.scheduled ~config e.Ncdrf_workloads.Suite.ddg in
              List.iter2
                (fun model v ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s %s %s" (Ddg.name raw.Schedule.ddg) config.Config.name
                       (Model.to_string model))
                    (List.assoc model want) v.Artifact.requirement;
                  if model = Model.Swapped then
                    Alcotest.(check bool) "swapped schedule" true
                      (Schedule.placements v.Artifact.sched = Schedule.placements ref_swapped))
                models
                (Artifact.views ~models a))
            [
              [ Model.Unified; Model.Partitioned; Model.Swapped ];
              [ Model.Swapped; Model.Partitioned ];
            ])
        loops)
    [ Config.dual ~latency:3; Config.k_cluster ~k:3 ~latency:6 () ];
  Artifact.clear_cache ()

(* [Requirements.sorted]'s counting sort against the comparison sort it
   replaces, on one schedule. *)
let start_order_agrees sched =
  let a = Requirements.analyse sched in
  let all = Array.init (Array.length a.Requirements.start) Fun.id in
  Requirements.sorted a = Alloc.sorted (Lazy.force a.Requirements.table) all

let test_start_order_suite () =
  let checked = ref 0 in
  List.iter
    (fun latency ->
      let config = Config.dual ~latency in
      List.iter
        (fun (e : Ncdrf_workloads.Suite.entry) ->
          let raw = Modulo.schedule config e.Ncdrf_workloads.Suite.ddg in
          incr checked;
          if not (start_order_agrees raw) then
            Alcotest.failf "%s L%d: start order differs" (Ddg.name raw.Schedule.ddg) latency)
        (Ncdrf_workloads.Suite.full ()))
    [ 3; 6 ];
  check_int "dual L3/L6 suite schedules" 1590 !checked;
  (* Hand-built cycles: negative, and spread too wide to count. *)
  let sched = Helpers.paper_schedule () in
  let respread f =
    Schedule.make ~config:sched.Schedule.config ~ii:(Schedule.ii sched)
      ~placements:
        (Array.mapi
           (fun v p -> { p with Schedule.cycle = f v p.Schedule.cycle })
           (Schedule.placements sched))
      sched.Schedule.ddg
  in
  List.iter
    (fun (what, f) -> check_bool what true (start_order_agrees (respread f)))
    [
      ("paper schedule", fun _ c -> c);
      ("negative cycles", fun _ c -> c - 50);
      ("reversed cycles", fun _ c -> -c);
      ("wide cycles", fun v c -> if v = 0 then c + (1 lsl 40) else c);
      ("extreme cycles", fun v c -> if v mod 2 = 0 then max_int - c else min_int + c);
    ]

let prop_start_order_random =
  let arb =
    QCheck.make
      ~print:(fun (seed, k, heavy) -> Printf.sprintf "seed=%d k=%d heavy=%b" seed k heavy)
      QCheck.Gen.(triple (int_bound 50_000) (int_range 1 4) bool)
  in
  QCheck.Test.make ~count:100 ~name:"counting-sort start order = Alloc.sorted" arb
    (fun (seed, k, heavy) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let ddg = Ncdrf_workloads.Generator.generate params ~seed ~name:"order-eq" in
      let config = config_of ~k ~latency:(if seed mod 2 = 0 then 3 else 6) ~caps:false in
      start_order_agrees (Modulo.schedule config ddg))

(* The shared occupancy against the bounds every joint search used to
   recompute ([Ref.Joint], verbatim): member sets, and the full joint's
   lower bound and total, for the analysed schedule and for the
   occupancy the swap pass hands on; the Swapped requirement read from
   it, and [partitioned_of] on the swapped schedule, equal the
   reference's on that schedule. *)
let occupancy_agrees a sched (occ : Requirements.occupancy) =
  let lower, total = Ref.Joint.bounds a sched in
  occ.Requirements.members = Ref.Joint.members a sched
  && Array.fold_left Int.max a.Requirements.longest occ.Requirements.peaks = lower
  && a.Requirements.total = total
  && occ.Requirements.peaks = (Requirements.occupancy_of a sched).Requirements.peaks

let prop_shared_bounds =
  let arb =
    QCheck.make
      ~print:(fun (seed, k, heavy) -> Printf.sprintf "seed=%d k=%d heavy=%b" seed k heavy)
      QCheck.Gen.(triple (int_bound 50_000) (oneofl [ 2; 4 ]) bool)
  in
  QCheck.Test.make ~count:120 ~name:"shared occupancy bounds = recomputed (k = 2, 4)" arb
    (fun (seed, k, heavy) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let ddg = Ncdrf_workloads.Generator.generate params ~seed ~name:"bounds-eq" in
      let config = config_of ~k ~latency:(if seed mod 2 = 0 then 3 else 6) ~caps:false in
      let raw = Modulo.schedule config ddg in
      let a = Requirements.analyse raw in
      let swapped, stats, occ = Swap.improve_occupancy a raw in
      let want = (Ref.partitioned swapped).Ref.requirement in
      occupancy_agrees a raw (Lazy.force a.Requirements.occupancy)
      && occupancy_agrees a swapped occ
      && (stats.Swap.swaps > 0 || swapped == raw)
      && Requirements.requirement_of a occ = want
      && (Requirements.partitioned_of a swapped).Requirements.requirement = want)

(* [partitioned_allocation] runs [partitioned]'s joint search, then
   places every value once more at the capacity it found; the probes of
   those final passes count in [alloc.probes] too. *)
let test_allocation_counts_probes () =
  let sched = Helpers.paper_schedule () in
  let probes f =
    Telemetry.reset ();
    f sched;
    Telemetry.counter "alloc.probes"
  in
  Telemetry.enable true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.enable false;
      Telemetry.reset ())
    (fun () ->
      let search = probes (fun s -> ignore (Requirements.partitioned s)) in
      let allocation = probes (fun s -> ignore (Requirements.partitioned_allocation s)) in
      check_bool "the joint search probes" true (search > 0);
      check_bool "the final placements' probes are counted" true (allocation > search))

(* Once a schedule's analysis is built and searched once, the searches
   allocate nothing beyond a few words of closures and results: a
   second [unified_of] and a second [requirement_of] each take at most
   [warm_words] minor words on every default-suite schedule at dual L3,
   however many values and capacities they try. *)
let warm_words = 32.

let test_warm_searches_allocate_nothing () =
  let config = Config.dual ~latency:3 in
  let checked = ref 0 in
  List.iter
    (fun (e : Ncdrf_workloads.Suite.entry) ->
      let sched = Modulo.schedule config e.Ncdrf_workloads.Suite.ddg in
      let a = Requirements.analyse sched in
      let occ = Requirements.occupancy_of a sched in
      let unified = Requirements.unified_of a in
      let requirement = Requirements.requirement_of a occ in
      let before = Gc.minor_words () in
      let unified' = Requirements.unified_of a in
      let unified_words = Gc.minor_words () -. before in
      let before = Gc.minor_words () in
      let requirement' = Requirements.requirement_of a occ in
      let requirement_words = Gc.minor_words () -. before in
      let name = Ddg.name sched.Schedule.ddg in
      check_int (name ^ ": warm unified") unified unified';
      check_int (name ^ ": warm requirement") requirement requirement';
      if unified_words > warm_words || requirement_words > warm_words then
        Alcotest.failf "%s: warm unified_of took %.0f minor words, requirement_of %.0f (at most %.0f)"
          name unified_words requirement_words warm_words;
      incr checked)
    (Ncdrf_workloads.Suite.full ());
  check_int "dual L3 suite schedules" 795 !checked

let suite =
  [
    Alcotest.test_case "suite schedules = reference" `Slow test_suite_schedules;
    Alcotest.test_case "shared-analysis views = reference" `Quick test_shared_views;
    QCheck_alcotest.to_alcotest prop_random_schedules;
    Alcotest.test_case "start order = Alloc.sorted on suite schedules" `Quick
      test_start_order_suite;
    QCheck_alcotest.to_alcotest prop_start_order_random;
    QCheck_alcotest.to_alcotest prop_shared_bounds;
    Alcotest.test_case "partitioned_allocation counts its probes" `Quick
      test_allocation_counts_probes;
    Alcotest.test_case "warm searches allocate nothing" `Quick
      test_warm_searches_allocate_nothing;
  ]
