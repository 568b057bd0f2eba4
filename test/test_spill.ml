(* Tests for the naive spiller and traffic accounting. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_spill
open Ncdrf_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let kernel name =
  match Ncdrf_workloads.Kernels.find name with
  | Some g -> g
  | None -> Alcotest.failf "kernel %s missing" name

let unified_requirement sched = (sched, Requirements.unified sched)

let test_no_spill_when_capacity_suffices () =
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  let outcome = Spiller.run ~config ~requirement:unified_requirement ~capacity:64 ddg in
  check_bool "fits" true outcome.Spiller.fits;
  check_int "no spills" 0 outcome.Spiller.spilled;
  check_int "requirement is 42" 42 outcome.Spiller.requirement

let test_spilling_reduces_requirement () =
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  let outcome = Spiller.run ~config ~requirement:unified_requirement ~capacity:30 ddg in
  check_bool "fits" true outcome.Spiller.fits;
  check_bool "spilled something" true (outcome.Spiller.spilled > 0);
  check_bool "requirement within capacity" true (outcome.Spiller.requirement <= 30);
  check_bool "memops added" true (outcome.Spiller.added_memops > 0);
  Helpers.check_valid "spilled schedule" outcome.Spiller.schedule

let test_spill_adds_store_and_loads () =
  (* Spilling a value with k consumers adds 1 store + k loads. *)
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  let outcome = Spiller.run ~config ~requirement:unified_requirement ~capacity:35 ddg in
  check_bool "one spill expected" true (outcome.Spiller.spilled >= 1);
  (* First spilled value is L1 (longest lifetime, 2 consumers):
     1 store + 2 loads. *)
  check_bool "memops consistent" true
    (outcome.Spiller.added_memops >= (2 * outcome.Spiller.spilled));
  let spill_ops =
    Ddg.fold_nodes outcome.Spiller.ddg ~init:0 ~f:(fun acc n ->
        if Helpers.is_spill_access n.Ddg.opcode then acc + 1 else acc)
  in
  check_int "spill ops in graph" outcome.Spiller.added_memops spill_ops

let test_spill_first_victim_is_longest () =
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  let outcome = Spiller.run ~config ~requirement:unified_requirement ~capacity:35 ddg in
  (* L1 (lifetime 13) must be the first victim: its consumers M3 and A6
     now read spill loads, so L1's only consumer is the spill store. *)
  let l1 = Helpers.node_by_label outcome.Spiller.ddg "L1" in
  let consumers = Ddg.consumers outcome.Spiller.ddg l1.Ddg.id in
  (match consumers with
   | [ e ] ->
     let c = Ddg.node outcome.Spiller.ddg e.Ddg.dst in
     check_bool "consumer is a spill store" true
       (match c.Ddg.opcode with Opcode.Store (Opcode.Spill _) -> true | _ -> false)
   | _ -> Alcotest.failf "L1 has %d consumers after spill" (List.length consumers))

let test_spilled_values_not_respilled () =
  (* Tiny capacity forces many rounds; termination + no spill-of-spill. *)
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  let outcome = Spiller.run ~config ~requirement:unified_requirement ~capacity:12 ddg in
  check_bool "terminates" true (outcome.Spiller.rounds <= 64);
  let ok =
    Ddg.fold_nodes outcome.Spiller.ddg ~init:true ~f:(fun acc n ->
        match n.Ddg.opcode with
        | Opcode.Load (Opcode.Spill _) ->
          (* a spill load's value must never feed a spill store *)
          acc
          && List.for_all
               (fun e ->
                 match (Ddg.node outcome.Spiller.ddg e.Ddg.dst).Ddg.opcode with
                 | Opcode.Store (Opcode.Spill _) -> false
                 | _ -> true)
               (Ddg.consumers outcome.Spiller.ddg n.Ddg.id)
        | _ -> acc)
  in
  check_bool "no spill chains" true ok

let test_spill_raises_ii_under_memory_pressure () =
  (* dual has 2 LS units; the example already uses 3 memory ops, so
     spilling must push ResMII (and II) up. *)
  let config = Config.dual ~latency:6 in
  let ddg = Helpers.example_ddg () in
  let free = Pipeline.run ~config ~model:Model.Unified ddg in
  let tight = Pipeline.run ~config ~model:Model.Unified ~capacity:20 ddg in
  check_bool "fits" true tight.Pipeline.fits;
  check_bool "II grew or no spill was needed" true
    (tight.Pipeline.spilled = 0 || tight.Pipeline.ii >= free.Pipeline.ii)

let test_safety_valve_ii_bump () =
  (* Capacity below what spilling alone can reach: every value spilled
     still needs ~latency-long reload lifetimes.  The spiller must fall
     back to II bumps and still terminate. *)
  let config = Config.dual ~latency:6 in
  let ddg = kernel "ll7-state" in
  let outcome = Spiller.run ~config ~requirement:unified_requirement ~capacity:4 ddg in
  check_bool "terminated" true (outcome.Spiller.rounds <= 64 + 32);
  check_bool "bumped II or fit" true (outcome.Spiller.fits || outcome.Spiller.ii_bumps > 0)

let test_traffic_density () =
  let config = Config.dual ~latency:3 in
  let ddg = Helpers.example_ddg () in
  let sched = Modulo.schedule config ddg in
  (* 3 memory ops, bandwidth 2: II is at least 2 (ResMII); density =
     3 / (II * 2). *)
  let expected =
    3.0 /. (float_of_int (Schedule.ii sched) *. 2.0)
  in
  let memops = Traffic.memops_per_iteration ddg in
  Alcotest.(check (float 1e-9)) "density" expected (Traffic.density ~memops sched);
  check_int "memops" 3 memops

let test_spiller_under_partitioned_model () =
  let config = Config.dual ~latency:6 in
  let ddg = kernel "ll9-integrate" in
  let requirement sched =
    let swapped, _ = Swap.improve sched in
    (swapped, (Requirements.partitioned swapped).Requirements.requirement)
  in
  let outcome = Spiller.run ~config ~requirement ~capacity:16 ddg in
  check_bool "fits" true outcome.Spiller.fits;
  check_bool "within capacity" true (outcome.Spiller.requirement <= 16);
  Helpers.check_valid "swapped+spilled schedule" outcome.Spiller.schedule

(* --- Fission (paper 5.4 option 2) --- *)

let test_fission_splits_example () =
  let ddg = Helpers.example_ddg () in
  match Fission.split ddg with
  | None -> Alcotest.fail "example loop should be splittable"
  | Some s ->
    check_bool "first validates" true (Ddg.validate s.Fission.first = Ok ());
    check_bool "second validates" true (Ddg.validate s.Fission.second = Ok ());
    check_bool "cut is non-trivial" true (s.Fission.cut_values > 0);
    (* Each cut value costs one store and one load. *)
    check_int "memops added" (2 * s.Fission.cut_values) s.Fission.added_memops;
    (* All original operations survive, plus the scratch traffic. *)
    check_int "node conservation"
      (Ddg.num_nodes ddg + s.Fission.added_memops)
      (Ddg.num_nodes s.Fission.first + Ddg.num_nodes s.Fission.second)

let test_fission_reduces_pressure () =
  let config = Config.dual ~latency:6 in
  let requirement g = Requirements.unified (Modulo.schedule config g) in
  let ddg = kernel "ll7-state" in
  let original = requirement ddg in
  match Fission.split ddg with
  | None -> Alcotest.fail "ll7-state should be splittable"
  | Some s ->
    let worst = max (requirement s.Fission.first) (requirement s.Fission.second) in
    check_bool "pieces need fewer registers" true (worst < original)

let test_fission_respects_recurrences () =
  (* {load} -> {s-add recurrence} -> {store}: splittable, but the
     recurrence cycle must end up whole inside exactly one piece. *)
  let open Expr in
  let g =
    compile ~name:"one-scc" [ Def ("s", prev "s" + load "x"); Store ("o", ref_ "s") ]
  in
  match Fission.split g with
  | None -> Alcotest.fail "three-component loop should be splittable"
  | Some s ->
    let carried piece = List.exists (fun e -> e.Ddg.distance > 0) (Ddg.edges piece) in
    let pieces_with_recurrence =
      List.length (List.filter carried [ s.Fission.first; s.Fission.second ])
    in
    check_int "recurrence in exactly one piece" 1 pieces_with_recurrence

let test_fission_split_until () =
  let config = Config.dual ~latency:6 in
  let requirement g = Requirements.unified (Modulo.schedule config g) in
  let ddg = kernel "ll9-integrate" in
  let original = requirement ddg in
  let capacity = max 6 (original / 2) in
  let pieces, fits = Fission.split_until ~requirement ~capacity ddg in
  check_bool "at least two pieces" true (List.length pieces >= 2);
  List.iter
    (fun g -> check_bool "piece validates" true (Ddg.validate g = Ok ()))
    pieces;
  if fits then
    List.iter
      (fun g -> check_bool "piece fits" true (requirement g <= capacity))
      pieces

let test_fission_unsplittable () =
  let open Expr in
  (* Two ops locked in one SCC plus nothing else splittable off. *)
  let g = compile ~name:"lock" [ Def ("s", prev "s" + inv "c"); Store ("o", ref_ "s") ] in
  (* load-free; components: {add} -> {store}: still splittable into 2.
     A single node is not. *)
  (match Fission.split g with
   | Some s ->
     check_bool "both pieces non-empty" true
       (Ddg.num_nodes s.Fission.first > 0 && Ddg.num_nodes s.Fission.second > 0)
   | None -> ());
  let single =
    let b = Ddg.Builder.create ~name:"single" in
    ignore (Ddg.Builder.add_node b (Opcode.Load (Opcode.Array "x")) ~label:"L");
    Ddg.Builder.freeze b
  in
  check_bool "single node unsplittable" true (Fission.split single = None)

let prop_spiller_terminates_and_fits =
  let arb =
    QCheck.make
      ~print:(fun (seed, cap) -> Printf.sprintf "seed=%d cap=%d" seed cap)
      QCheck.Gen.(pair (int_bound 20_000) (int_range 12 48))
  in
  QCheck.Test.make ~count:25 ~name:"spiller terminates with a valid schedule" arb
    (fun (seed, capacity) ->
      let g =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default ~seed
          ~name:"spill-prop"
      in
      let config = Config.dual ~latency:3 in
      let outcome =
        Spiller.run ~config ~requirement:unified_requirement ~capacity g
      in
      Schedule.validate outcome.Spiller.schedule = Ok ()
      && ((not outcome.Spiller.fits) || outcome.Spiller.requirement <= capacity))

let prop_fission_structural =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 30_000) in
  QCheck.Test.make ~count:40 ~name:"fission pieces are valid and conserve operations" arb
    (fun seed ->
      let g =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.heavy ~seed
          ~name:"fis-prop"
      in
      match Fission.split g with
      | None -> true
      | Some s ->
        Ddg.validate s.Fission.first = Ok ()
        && Ddg.validate s.Fission.second = Ok ()
        && Ddg.num_nodes s.Fission.first + Ddg.num_nodes s.Fission.second
           = Ddg.num_nodes g + s.Fission.added_memops)

(* --- Spiller vs the verbatim reference oracle --- *)

(* Outcomes are compared field by field; schedules via II + placements
   (plain int records) and graphs via their content digest, never with
   [=] on whole values — [Ddg.t] carries a mutable digest memo whose
   population depends on evaluation order. *)
let same_schedule a b =
  Schedule.ii a = Schedule.ii b
  && Schedule.placements a = Schedule.placements b
  && Ddg.digest a.Schedule.ddg = Ddg.digest b.Schedule.ddg

let same_outcome (o : Spiller.outcome) (r : Spiller_reference.outcome) =
  same_schedule o.Spiller.schedule r.Spiller.schedule
  && same_schedule o.Spiller.raw_schedule r.Spiller.raw_schedule
  && Ddg.digest o.Spiller.ddg = Ddg.digest r.Spiller.ddg
  && o.Spiller.requirement = r.Spiller.requirement
  && o.Spiller.fits = r.Spiller.fits
  && o.Spiller.spilled = r.Spiller.spilled
  && o.Spiller.added_memops = r.Spiller.added_memops
  && o.Spiller.ii_bumps = r.Spiller.ii_bumps
  && o.Spiller.rounds = r.Spiller.rounds
  && o.Spiller.error = r.Spiller.error

let same_spiller_outcome (o : Spiller.outcome) (r : Spiller.outcome) =
  same_schedule o.Spiller.schedule r.Spiller.schedule
  && same_schedule o.Spiller.raw_schedule r.Spiller.raw_schedule
  && Ddg.digest o.Spiller.ddg = Ddg.digest r.Spiller.ddg
  && o.Spiller.requirement = r.Spiller.requirement
  && o.Spiller.fits = r.Spiller.fits
  && o.Spiller.spilled = r.Spiller.spilled
  && o.Spiller.added_memops = r.Spiller.added_memops
  && o.Spiller.ii_bumps = r.Spiller.ii_bumps
  && o.Spiller.rounds = r.Spiller.rounds
  && o.Spiller.error = r.Spiller.error

(* A sound lower bound for [unified_requirement]: MaxLive never exceeds
   the unified minimum capacity. *)
let unified_lower_bound raw ~lifetimes =
  Ncdrf_regalloc.Lifetime.max_live ~ii:(Schedule.ii raw) (Lazy.force lifetimes)

let victims = [| Spiller.Longest_lifetime; Spiller.Best_ratio; Spiller.Fewest_consumers |]

(* The exact configuration the reference loop implements: no II floor.
   The floor is almost-identity but not identity — see the regression
   test below. *)

let spiller_eq_arb =
  QCheck.make
    ~print:(fun (seed, cap, heavy) ->
      Printf.sprintf "seed=%d cap=%d heavy=%b" seed cap heavy)
    QCheck.Gen.(triple (int_bound 20_000) (int_range 10 48) bool)

let prop_spiller_matches_reference =
  QCheck.Test.make ~count:30
    ~name:"reference policy is byte-identical to Spiller_reference" spiller_eq_arb
    (fun (seed, capacity, heavy) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let g = Ncdrf_workloads.Generator.generate params ~seed ~name:"spill-eq" in
      let config = Config.dual ~latency:3 in
      let victim = victims.(seed mod Array.length victims) in
      let o =
        Spiller.run ~config ~requirement:unified_requirement ~capacity ~victim
          ~ii_floor:false g
      in
      let r =
        Spiller_reference.run ~config ~requirement:unified_requirement ~capacity ~victim g
      in
      same_outcome o r)

(* The II floor (on by default) is almost-identity: it only
   matters when the heuristic scheduler achieves a *lower* II after
   spill code restructured the graph — then the floored loop keeps the
   higher II and may spill in a different order.  Generator seed 14923
   at capacity 15 (heavy, best-ratio) is such a case: the floored and
   reference loops converge to equally good outcomes (same II,
   requirement, spill/bump/round counts) whose spill ops are inserted
   in different orders.  Pin both facts so the divergence stays
   understood rather than resurfacing as a flaky equivalence. *)
let test_ii_floor_divergence_case () =
  let g =
    Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.heavy ~seed:14923
      ~name:"spill-eq"
  in
  let config = Config.dual ~latency:3 in
  let victim = Spiller.Best_ratio in
  let o =
    Spiller.run ~config ~requirement:unified_requirement ~capacity:15 ~victim g
  in
  let r =
    Spiller_reference.run ~config ~requirement:unified_requirement ~capacity:15 ~victim g
  in
  Alcotest.(check int) "same II" (Schedule.ii r.Spiller_reference.schedule)
    (Schedule.ii o.Spiller.schedule);
  Alcotest.(check int) "same requirement" r.Spiller_reference.requirement
    o.Spiller.requirement;
  Alcotest.(check bool) "same fits" r.Spiller_reference.fits o.Spiller.fits;
  Alcotest.(check int) "same spilled" r.Spiller_reference.spilled o.Spiller.spilled;
  Alcotest.(check int) "same II bumps" r.Spiller_reference.ii_bumps o.Spiller.ii_bumps;
  Alcotest.(check int) "same rounds" r.Spiller_reference.rounds o.Spiller.rounds;
  Alcotest.(check bool) "spill order differs (the floor engaged)" false
    (Schedule.placements o.Spiller.schedule
    = Schedule.placements r.Spiller_reference.schedule)

let prop_lower_bound_preserves_outcomes =
  QCheck.Test.make ~count:30
    ~name:"lower-bound pruning never changes the outcome" spiller_eq_arb
    (fun (seed, capacity, heavy) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let g = Ncdrf_workloads.Generator.generate params ~seed ~name:"spill-lb" in
      let config = Config.dual ~latency:3 in
      let o =
        Spiller.run ~config ~requirement:unified_requirement ~capacity
          ~lower_bound:unified_lower_bound g
      in
      let r = Spiller.run ~config ~requirement:unified_requirement ~capacity g in
      same_spiller_outcome o r)

(* The same equivalence on real (scheduled) kernels, at a spilling and a
   non-spilling capacity each. *)
let test_spiller_matches_reference_on_kernels () =
  let config = Config.dual ~latency:6 in
  List.iter
    (fun (g, _) ->
      List.iter
        (fun capacity ->
          let o = Spiller.run ~config ~requirement:unified_requirement ~capacity g in
          let r =
            Spiller_reference.run ~config ~requirement:unified_requirement ~capacity g
          in
          if not (same_outcome o r) then
            Alcotest.failf "%s at capacity %d: outcome diverged from the reference"
              (Ddg.name g) capacity)
        [ 8; 64 ])
    (Ncdrf_workloads.Kernels.all ())

(* --- Traffic density edge cases --- *)

let test_density_zero_bandwidth_is_infinite () =
  let g = Expr.(compile ~name:"membound" [ Store ("o", load "x") ]) in
  (* One LS unit but zero machine-wide ports: bandwidth 0.  The schedule
     is built directly — such a machine cannot pass resource validation,
     which is exactly why density must not report its traffic as free. *)
  let config =
    Config.make ~name:"no-bw"
      ~clusters:[| { Config.adders = 1; multipliers = 1; ls_units = 1; read_ports = None; write_ports = None } |]
      ~add_latency:3 ~mul_latency:3 ~load_ports:0 ~store_ports:0 ()
  in
  let placements =
    Array.init (Ddg.num_nodes g) (fun v -> { Schedule.cycle = v; cluster = 0 })
  in
  let sched = Schedule.make ~config ~ii:1 ~placements g in
  check_bool "density is infinite" true
    (Traffic.density ~memops:(Traffic.memops_per_iteration g) sched = infinity)

(* --- Fission regressions --- *)

(* A value consumed by the other piece at distances 0 and 1 must
   round-trip through two distinct scratch views: element [i] for the
   same-iteration consumer, element [i - 1] for the loop-carried one.
   The pre-fix code collapsed both onto one load of the distance-0
   view. *)
let test_fission_loop_carried_cross_cut () =
  let g =
    let open Expr in
    compile ~name:"cross-cut"
      [ Def ("a", load "x" + inv "c"); Store ("o", ref_ "a" + prev "a") ]
  in
  match Fission.split g with
  | None -> Alcotest.fail "cross-cut loop should be splittable"
  | Some s ->
    check_bool "first validates" true (Ddg.validate s.Fission.first = Ok ());
    check_bool "second validates" true (Ddg.validate s.Fission.second = Ok ());
    let scratch_loads =
      Ddg.fold_nodes s.Fission.second ~init:[] ~f:(fun acc n ->
          match n.Ddg.opcode with
          | Opcode.Load (Opcode.Array a) when Helpers.contains a "fis." -> (n, a) :: acc
          | _ -> acc)
    in
    let arrays = List.sort_uniq compare (List.map snd scratch_loads) in
    check_int "two scratch loads" 2 (List.length scratch_loads);
    check_int "two distinct views" 2 (List.length arrays);
    check_bool "one view is the distance-1 stream" true
      (List.exists (fun a -> Helpers.contains a ".d1") arrays);
    (* The iteration offset lives in the array identity; reconnection
       edges are all distance 0. *)
    List.iter
      (fun (n, _) ->
        List.iter
          (fun e -> check_int "reconnect distance" 0 e.Ddg.distance)
          (Ddg.succs s.Fission.second n.Ddg.id))
      scratch_loads;
    (* The producer stores once; the consumers load twice. *)
    check_int "added memops" 3 s.Fission.added_memops;
    check_int "node conservation"
      (Ddg.num_nodes g + s.Fission.added_memops)
      (Ddg.num_nodes s.Fission.first + Ddg.num_nodes s.Fission.second);
    let cfg = Config.dual ~latency:3 in
    Helpers.check_valid "first piece schedules" (Modulo.schedule cfg s.Fission.first);
    Helpers.check_valid "second piece schedules" (Modulo.schedule cfg s.Fission.second)

(* A decomposition that fits with exactly [max_pieces] pieces converged;
   the pre-fix code tested the cap before the fit and reported it as a
   failure. *)
let test_fission_split_until_exact_cap_converges () =
  let config = Config.dual ~latency:6 in
  let requirement g = Requirements.unified (Modulo.schedule config g) in
  let ddg = kernel "ll9-integrate" in
  match Fission.split ddg with
  | None -> Alcotest.fail "ll9-integrate should be splittable"
  | Some s ->
    let cap = max (requirement s.Fission.first) (requirement s.Fission.second) in
    check_bool "the whole loop does not fit" true (requirement ddg > cap);
    let pieces, fits = Fission.split_until ~requirement ~capacity:cap ~max_pieces:2 ddg in
    check_int "exactly two pieces" 2 (List.length pieces);
    check_bool "reported as converged" true fits

(* The per-pass split budget keeps the cap exact: a pass used to
   concat-map every unfitting piece and could double the count past
   [max_pieces]. *)
let test_fission_split_until_cap_not_overshot () =
  let config = Config.dual ~latency:6 in
  let requirement g = Requirements.unified (Modulo.schedule config g) in
  let ddg = kernel "ll9-integrate" in
  let pieces, fits = Fission.split_until ~requirement ~capacity:1 ~max_pieces:3 ddg in
  check_bool "at most three pieces" true (List.length pieces <= 3);
  check_bool "nothing fits in one register" true (not fits)

(* The spiller tracks the next spill slot incrementally across rounds;
   the final graph must agree with the from-scratch fold: one fresh slot
   per spilled value, starting from the input graph's next slot. *)
let test_incremental_spill_slots () =
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  let before = Spiller.next_spill_slot ddg in
  check_int "fresh graph starts at slot 0" 0 before;
  let outcome = Spiller.run ~config ~requirement:unified_requirement ~capacity:30 ddg in
  check_bool "spilled something" true (outcome.Spiller.spilled > 0);
  check_int "slots consumed = values spilled"
    (before + outcome.Spiller.spilled)
    (Spiller.next_spill_slot outcome.Spiller.ddg)

(* --- The array-built spill rewrite vs the Builder copy --- *)

let same_flat (a : Dep_graph.t) (b : Dep_graph.t) =
  a.n = b.n && a.op = b.op && a.fu = b.fu && a.lat = b.lat
  && a.succ_first = b.succ_first && a.succ_src = b.succ_src && a.succ_dst = b.succ_dst
  && a.succ_dist = b.succ_dist && a.succ_flow = b.succ_flow
  && a.pred_first = b.pred_first && a.pred_src = b.pred_src && a.pred_dist = b.pred_dist
  && a.scc = b.scc && a.cycle_slots = b.cycle_slots
  && a.cycle_span = b.cycle_span && a.valid = b.valid
  && Ddg.digest a.ddg = Ddg.digest b.ddg

let same_lists a b =
  Ddg.num_nodes a = Ddg.num_nodes b
  && Ddg.num_edges a = Ddg.num_edges b
  && Ddg.nodes a = Ddg.nodes b
  && List.for_all
       (fun v -> Ddg.succs a v = Ddg.succs b v && Ddg.preds a v = Ddg.preds b v)
       (List.init (Ddg.num_nodes a) Fun.id)

(* A chain of spills from a random loop, each victim picked among all
   nodes (a store too, which leaves an invalid graph), long enough to
   reach slots of two digits.  At every step [Ddg.spill] must give the
   oracle's digest and adjacency lists, and [Dep_graph.spill] what
   [Dep_graph.make] gives for the new graph. *)
let prop_spill_rewrite_matches_transform =
  let arb =
    QCheck.make
      ~print:(fun ((seed, heavy), latency, picks) ->
        Printf.sprintf "seed=%d heavy=%b lat=%d picks=[%s]" seed heavy latency
          (String.concat ";" (List.map string_of_int picks)))
      QCheck.Gen.(
        triple
          (pair (int_bound 100_000) bool)
          (oneofl [ 3; 6 ])
          (list_size (int_range 1 14) (int_bound 1000)))
  in
  QCheck.Test.make ~count:120 ~name:"Ddg.spill = Builder rewrite, flat spill = make" arb
    (fun ((seed, heavy), latency, picks) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let ddg = Ncdrf_workloads.Generator.generate params ~seed ~name:"spill-rw" in
      let config = Config.dual ~latency in
      let rec go (g : Dep_graph.t) = function
        | [] -> true
        | pick :: rest ->
          let ddg = g.Dep_graph.ddg in
          let v = pick mod Ddg.num_nodes ddg in
          let slot = Spiller.next_spill_slot ddg in
          let want = Spiller_reference.spill_value ddg ~slot v in
          let got = Spiller.spill_value ddg ~slot v in
          let g' =
            Dep_graph.spill g v
              ~store:(Opcode.Store (Opcode.Spill slot), Printf.sprintf "sS%d" slot)
              ~reload:(fun i ->
                (Opcode.Load (Opcode.Spill slot), Printf.sprintf "sL%d.%d" slot i))
          in
          Ddg.digest got = Ddg.digest want
          && same_lists got want
          && same_lists g'.Dep_graph.ddg want
          && same_flat g' (Dep_graph.make config want)
          && go g' rest
      in
      go (Dep_graph.make config ddg) picks)

(* The scheduling step of a spill round reuses the graph the round
   built: [Dep_graph.make] returns it rather than flattening again. *)
let test_round_graph_is_reused () =
  let config = Config.dual ~latency:3 in
  let g = Dep_graph.make config (Helpers.example_ddg ()) in
  let g' =
    Dep_graph.spill g 0 ~store:(Opcode.Store (Opcode.Spill 0), "sS0")
      ~reload:(fun i -> (Opcode.Load (Opcode.Spill 0), Printf.sprintf "sL0.%d" i))
  in
  check_bool "same graph, same flattening" true
    (Dep_graph.make config g'.Dep_graph.ddg == g');
  check_bool "another configuration flattens anew" true
    (Dep_graph.make (Config.dual ~latency:3) g'.Dep_graph.ddg != g')

let suite =
  [
    Alcotest.test_case "no spill when capacity suffices" `Quick
      test_no_spill_when_capacity_suffices;
    Alcotest.test_case "spilling reduces requirement" `Quick test_spilling_reduces_requirement;
    Alcotest.test_case "spill adds store and loads" `Quick test_spill_adds_store_and_loads;
    Alcotest.test_case "first victim is the longest lifetime" `Quick
      test_spill_first_victim_is_longest;
    Alcotest.test_case "spilled values are not respilled" `Quick
      test_spilled_values_not_respilled;
    Alcotest.test_case "spilling raises II under memory pressure" `Quick
      test_spill_raises_ii_under_memory_pressure;
    Alcotest.test_case "safety valve II bump" `Quick test_safety_valve_ii_bump;
    Alcotest.test_case "traffic density" `Quick test_traffic_density;
    Alcotest.test_case "spiller under the swapped model" `Quick
      test_spiller_under_partitioned_model;
    Alcotest.test_case "fission: splits the example" `Quick test_fission_splits_example;
    Alcotest.test_case "fission: reduces pressure" `Quick test_fission_reduces_pressure;
    Alcotest.test_case "fission: respects recurrences" `Quick
      test_fission_respects_recurrences;
    Alcotest.test_case "fission: split_until" `Quick test_fission_split_until;
    Alcotest.test_case "fission: unsplittable loops" `Quick test_fission_unsplittable;
    Alcotest.test_case "incremental spill slots" `Quick test_incremental_spill_slots;
    Alcotest.test_case "spiller matches the reference on kernels" `Quick
      test_spiller_matches_reference_on_kernels;
    Alcotest.test_case "density with zero bandwidth" `Quick
      test_density_zero_bandwidth_is_infinite;
    Alcotest.test_case "fission: loop-carried cross-cut views" `Quick
      test_fission_loop_carried_cross_cut;
    Alcotest.test_case "fission: exact-cap decomposition converges" `Quick
      test_fission_split_until_exact_cap_converges;
    Alcotest.test_case "fission: piece cap never overshot" `Quick
      test_fission_split_until_cap_not_overshot;
    QCheck_alcotest.to_alcotest prop_spiller_terminates_and_fits;
    QCheck_alcotest.to_alcotest prop_fission_structural;
    QCheck_alcotest.to_alcotest prop_spiller_matches_reference;
    QCheck_alcotest.to_alcotest prop_lower_bound_preserves_outcomes;
    Alcotest.test_case "II floor divergence case stays equally good" `Quick
      test_ii_floor_divergence_case;
    QCheck_alcotest.to_alcotest prop_spill_rewrite_matches_transform;
    Alcotest.test_case "a round's graph is flattened once" `Quick test_round_graph_is_reused;
  ]
