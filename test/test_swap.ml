(* The incremental swap pass against the full-recompute oracle
   (Swap_reference): identical placements and statistics on random
   graphs and on scheduled suite loops, at k = 2, 3 and 4 and on the
   worked example's machine; plus the invariants the pass and the
   requirement breakdown document. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let configs () =
  [
    Config.dual ~latency:3;
    Config.dual ~latency:6;
    Config.k_cluster ~k:3 ~latency:3 ();
    Config.k_cluster ~k:4 ~latency:3 ();
    Config.example ();
  ]

let same_result (got, gs) (want, ws) =
  got.Schedule.placements = want.Schedule.placements
  && gs.Swap.swaps = ws.Swap.swaps
  && gs.Swap.initial_cost = ws.Swap.initial_cost
  && gs.Swap.final_cost = ws.Swap.final_cost
  && gs.Swap.final_cost = Requirements.max_live_cost got

let describe (sched, st) =
  Printf.sprintf "swaps=%d init=%d final=%d clusters=[%s]" st.Swap.swaps
    st.Swap.initial_cost st.Swap.final_cost
    (String.concat ";"
       (Array.to_list
          (Array.map (fun p -> string_of_int p.Schedule.cluster) sched.Schedule.placements)))

let check_equivalent what sched =
  let got = Swap.improve sched and want = Swap_reference.improve sched in
  if not (same_result got want) then
    Alcotest.failf "%s: incremental %s, reference %s" what (describe got) (describe want)

let prop_random_graphs =
  let arb =
    QCheck.make
      ~print:(fun (seed, ci, heavy) ->
        Printf.sprintf "seed=%d config=%d heavy=%b" seed ci heavy)
      QCheck.Gen.(triple (int_bound 50_000) (int_bound 4) bool)
  in
  QCheck.Test.make ~count:150 ~name:"incremental swap = reference on random graphs" arb
    (fun (seed, ci, heavy) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let ddg = Ncdrf_workloads.Generator.generate params ~seed ~name:"swap-eq" in
      let config = List.nth (configs ()) ci in
      let sched = Modulo.schedule config ddg in
      let got = Swap.improve sched and want = Swap_reference.improve sched in
      if same_result got want then true
      else QCheck.Test.fail_reportf "incremental %s, reference %s" (describe got) (describe want))

let suite_loops () =
  Ncdrf_workloads.Suite.full ()
  |> List.map (fun e -> e.Ncdrf_workloads.Suite.ddg)

let test_suite_loops () =
  let swapped = ref 0 in
  List.iter
    (fun config ->
      List.iter
        (fun ddg ->
          let sched = Modulo.schedule config ddg in
          check_equivalent (Printf.sprintf "%s on %s" (Ddg.name ddg) config.Config.name) sched;
          if (snd (Swap.improve sched)).Swap.swaps > 0 then incr swapped)
        (suite_loops ()))
    (configs ());
  check_bool "the sample exercises swapping" true (!swapped >= 100)

(* [max_passes] cuts both loops after the same number of swaps, and the
   [Exact] estimate takes the same descent. *)
let test_max_passes_and_exact () =
  let loops = List.filteri (fun i _ -> i < 12) (suite_loops ()) in
  List.iter
    (fun config ->
      List.iter
        (fun ddg ->
          let sched = Modulo.schedule config ddg in
          let what = Printf.sprintf "%s on %s" (Ddg.name ddg) config.Config.name in
          List.iter
            (fun max_passes ->
              let got = Swap.improve ~max_passes sched
              and want = Swap_reference.improve ~max_passes sched in
              check_bool
                (Printf.sprintf "%s max_passes=%d" what max_passes)
                true (same_result got want))
            [ 0; 1; 2 ];
          let got, gs = Swap.improve ~estimate:Swap.Exact sched
          and want, ws = Swap_reference.improve ~estimate:Swap.Exact sched in
          check_bool (what ^ " exact placements") true
            (got.Schedule.placements = want.Schedule.placements);
          check_bool (what ^ " exact stats") true (gs = ws))
        loops)
    [
      Config.dual ~latency:3;
      Config.k_cluster ~k:3 ~latency:3 ();
      Config.k_cluster ~k:4 ~latency:3 ();
    ]

let test_paper_example () =
  check_equivalent "paper example" (Helpers.paper_schedule ())

(* With more than two nodes in one (class, slot) bucket — the example
   machine has two load/store units per cluster — an exchange changes
   which pairs sit on different clusters, so the candidate set is not
   invariant under swapping. *)
let test_candidates_change_under_swapping () =
  let config = Config.example () in
  let changed =
    List.length
      (List.filter
         (fun ddg ->
           let sched = Modulo.schedule config ddg in
           let swapped, _ = Swap.improve sched in
           Swap.candidates swapped <> Swap.candidates sched)
         (suite_loops ()))
  in
  check_bool "some loop ends with a different candidate set" true (changed > 0)

(* requirements.mli: at k = 2 every cluster's table starts with all the
   globals, which First-Fit places the same way in the joint search and
   in isolation, so [requirement] is at least every cluster requirement.
   At k >= 3 a cluster in isolation places only its own replicated
   subset, and First-Fit can do worse on that than on the joint
   placement; there only the per-cluster MaxLive bound holds. *)
let test_requirement_dominates_clusters () =
  let check ~name ~bound config =
    List.iter
      (fun ddg ->
        let sched = Modulo.schedule config ddg in
        List.iter
          (fun sched ->
            let d = Requirements.partitioned sched in
            let worst = Array.fold_left max 0 (Lazy.force (bound d)) in
            if d.Requirements.requirement < worst then
              Alcotest.failf "%s on %s: requirement %d < %s %d" (Ddg.name ddg)
                config.Config.name d.Requirements.requirement name worst)
          [ sched; fst (Swap.improve sched) ])
      (suite_loops ())
  in
  let clusters d = d.Requirements.cluster_requirements in
  let max_live d = d.Requirements.max_live in
  check ~name:"cluster requirement" ~bound:clusters (Config.dual ~latency:3);
  check ~name:"cluster requirement" ~bound:clusters (Config.dual ~latency:6);
  check ~name:"cluster MaxLive" ~bound:max_live (Config.dual ~latency:3);
  check ~name:"cluster MaxLive" ~bound:max_live (Config.k_cluster ~k:3 ~latency:3 ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_random_graphs;
    Alcotest.test_case "incremental swap = reference on suite loops" `Quick test_suite_loops;
    Alcotest.test_case "max_passes and Exact match the reference" `Quick
      test_max_passes_and_exact;
    Alcotest.test_case "incremental swap = reference on the paper example" `Quick
      test_paper_example;
    Alcotest.test_case "candidate set changes under swapping" `Quick
      test_candidates_change_under_swapping;
    Alcotest.test_case "requirement >= cluster requirements (k=2), MaxLive (k=3)" `Quick
      test_requirement_dominates_clusters;
  ]
