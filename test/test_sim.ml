(* End-to-end execution tests: the pipelined executor (real rotating
   register files, cycle-accurate issue/completion, dual-subfile
   write/read policies) must produce exactly the sequential reference
   interpreter's results, for every kernel, model, latency — and for
   spilled code. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core
open Ncdrf_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let same_stores what expected actual =
  if not (Reference.equal_stores expected actual) then begin
    let show es =
      String.concat "; "
        (List.map
           (fun e ->
             Printf.sprintf "%s[%d]=%.6f" e.Reference.array e.Reference.iteration
               e.Reference.value)
           es)
    in
    Alcotest.failf "%s:\nreference: %s\nexecutor:  %s" what (show expected) (show actual)
  end

let test_example_unified_execution () =
  let sched = Helpers.paper_schedule () in
  let expected = Reference.run ~iterations:20 sched.Schedule.ddg in
  let outcome = Executor.run_unified ~iterations:20 sched in
  same_stores "paper example, unified" expected outcome.Executor.stores;
  check_int "capacity is the unified requirement" 42 outcome.Executor.capacity;
  check_int "one store per iteration" 20 (List.length outcome.Executor.stores);
  check_bool "reads were checked" true (outcome.Executor.register_reads > 0)

let test_example_dual_execution () =
  let sched = Helpers.paper_schedule () in
  let expected = Reference.run ~iterations:20 sched.Schedule.ddg in
  let outcome = Executor.run_clustered ~iterations:20 sched in
  same_stores "paper example, dual" expected outcome.Executor.stores;
  check_int "capacity is the partitioned requirement" 29 outcome.Executor.capacity

let test_example_swapped_execution () =
  let sched, _ = Swap.improve (Helpers.paper_schedule ()) in
  let expected = Reference.run ~iterations:20 sched.Schedule.ddg in
  let outcome = Executor.run_clustered ~iterations:20 sched in
  same_stores "paper example, swapped" expected outcome.Executor.stores;
  check_int "capacity matches the swapped requirement" 23 outcome.Executor.capacity

let test_all_kernels_execute_correctly () =
  List.iter
    (fun latency ->
      let config = Config.dual ~latency in
      List.iter
        (fun (ddg, _) ->
          let sched = Modulo.schedule config ddg in
          let iterations = (2 * Schedule.stages sched) + 3 in
          let expected = Reference.run ~iterations ddg in
          let unified = Executor.run_unified ~iterations sched in
          same_stores (Ddg.name ddg ^ " unified") expected unified.Executor.stores;
          let dual = Executor.run_clustered ~iterations sched in
          same_stores (Ddg.name ddg ^ " dual") expected dual.Executor.stores;
          let swapped, _ = Swap.improve sched in
          let sw = Executor.run_clustered ~iterations swapped in
          same_stores (Ddg.name ddg ^ " swapped") expected sw.Executor.stores)
        (Ncdrf_workloads.Kernels.all ()))
    [ 3; 6 ]

let test_spilled_code_executes_correctly () =
  (* Spill code rewrites the graph; the reference interprets the
     rewritten graph (spill slots included), so results must still
     match the ORIGINAL graph's semantics for the original stores. *)
  let config = Config.example () in
  let ddg = Helpers.example_ddg () in
  let outcome =
    Ncdrf_spill.Spiller.run ~config
      ~requirement:(fun s -> (s, Requirements.unified s))
      ~capacity:20 ddg
  in
  check_bool "spilled" true (outcome.Ncdrf_spill.Spiller.spilled > 0);
  let spilled_ddg = outcome.Ncdrf_spill.Spiller.ddg in
  let sched = outcome.Ncdrf_spill.Spiller.schedule in
  let iterations = (2 * Schedule.stages sched) + 3 in
  let expected_original = Reference.run ~iterations ddg in
  let expected_spilled = Reference.run ~iterations spilled_ddg in
  same_stores "spilling preserves semantics (reference level)" expected_original
    expected_spilled;
  let exec = Executor.run_unified ~iterations sched in
  same_stores "spilled code executes correctly" expected_spilled exec.Executor.stores

let test_recurrence_kernels_execute () =
  (* Loop-carried values cross the rotating-file boundary between
     iterations: run long enough to wrap the register file several
     times. *)
  List.iter
    (fun name ->
      let ddg =
        match Ncdrf_workloads.Kernels.find name with
        | Some g -> g
        | None -> Alcotest.failf "kernel %s missing" name
      in
      let sched = Modulo.schedule (Config.dual ~latency:6) ddg in
      let iterations = 50 in
      let expected = Reference.run ~iterations ddg in
      let outcome = Executor.run_clustered ~iterations sched in
      same_stores name expected outcome.Executor.stores)
    [ "ll5-tridiag"; "ll11-first-sum"; "recurrence-d2"; "coupled-recurrence";
      "running-average" ]

let test_port_capped_machine_executes () =
  (* P1L3: one adder/multiplier, 1 store + 2 load ports — schedules are
     port-constrained but must still execute bit-exactly. *)
  let config = Config.pxly ~parallelism:1 ~latency:3 in
  List.iter
    (fun name ->
      let ddg =
        match Ncdrf_workloads.Kernels.find name with
        | Some g -> g
        | None -> Alcotest.failf "kernel %s missing" name
      in
      let sched = Modulo.schedule config ddg in
      let iterations = Schedule.stages sched + 4 in
      same_stores (name ^ " on P1L3")
        (Reference.run ~iterations ddg)
        (Executor.run_unified ~iterations sched).Executor.stores)
    [ "sum-8"; "fft-butterfly"; "ll9-integrate"; "clip-saturate" ]

let test_dual_rejects_single_cluster () =
  let sched = Modulo.schedule (Config.pxly ~parallelism:2 ~latency:3) (Helpers.example_ddg ()) in
  try
    ignore (Executor.run_clustered ~iterations:4 sched);
    Alcotest.fail "single-cluster dual execution accepted"
  with Ncdrf_error.Error.Error e ->
    Alcotest.check
      (Alcotest.testable
         (fun ppf c -> Fmt.string ppf (Ncdrf_error.Error.category_name c))
         ( = ))
      "typed category" Ncdrf_error.Error.Invalid_graph e.Ncdrf_error.Error.category

let test_executor_cycle_count () =
  let sched = Helpers.paper_schedule () in
  let outcome = Executor.run_unified ~iterations:10 sched in
  (* Last op of iteration 9 is S7: issue 13 + 9*1, finish +1, +1 for
     the count. *)
  check_int "cycles" (13 + 9 + 1 + 1) outcome.Executor.cycles

let test_reference_deterministic () =
  let ddg = Helpers.example_ddg () in
  let a = Reference.run ~iterations:8 ddg in
  let b = Reference.run ~iterations:8 ddg in
  check_bool "deterministic" true (a = b);
  check_bool "nonempty" true (a <> [])

let prop_executor_matches_reference =
  let arb =
    QCheck.make
      ~print:(fun (seed, lat, heavy) -> Printf.sprintf "seed=%d lat=%d heavy=%b" seed lat heavy)
      QCheck.Gen.(triple (int_bound 50_000) (int_range 1 8) bool)
  in
  QCheck.Test.make ~count:60 ~name:"executor = reference on random loops (unified & dual)"
    arb
    (fun (seed, latency, heavy) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let ddg = Ncdrf_workloads.Generator.generate params ~seed ~name:"sim-prop" in
      let config = Config.dual ~latency in
      let sched = Modulo.schedule config ddg in
      let iterations = Schedule.stages sched + 5 in
      let expected = Reference.run ~iterations ddg in
      let unified = Executor.run_unified ~iterations sched in
      let dual = Executor.run_clustered ~iterations sched in
      let swapped, _ = Swap.improve sched in
      let sw = Executor.run_clustered ~iterations swapped in
      Reference.equal_stores expected unified.Executor.stores
      && Reference.equal_stores expected dual.Executor.stores
      && Reference.equal_stores expected sw.Executor.stores)

(* --- Spilled programs compute the original loop --- *)

(* The values a spill rewrite may pick, as the spiller does: producers
   with consumers that are neither reloads nor already spilled. *)
let spill_candidates g =
  List.filter
    (fun v ->
      let consumers = Ddg.consumers g v in
      consumers <> []
      && (not (Opcode.is_spill_load (Ddg.node g v).Ddg.opcode))
      && not
           (List.exists
              (fun e -> Helpers.is_spill_access (Ddg.node g e.Ddg.dst).Ddg.opcode)
              consumers))
    (List.init (Ddg.num_nodes g) Fun.id)

let spill g v = Ncdrf_spill.Spiller.spill_value g ~slot:(Ncdrf_spill.Spiller.next_spill_slot g) v

(* Every fitting final schedule of a Figure 8 slice — the 150-loop
   suite on the dual machine at L in {3, 6} and R in {16, 32}, models
   Unified, Partitioned and Swapped — executes to the stores the
   reference interpreter computes on the ORIGINAL graph, spilled or
   not.  Before reloads kept their origin's operand order and live-ins,
   276 of these 1,755 points diverged, every one of them spilled. *)
let test_fig8_slice_computes_original_loop () =
  let iterations = 8 in
  let points = ref 0 and spilled = ref 0 and diverged = ref [] in
  List.iter
    (fun (e : Ncdrf_workloads.Suite.entry) ->
      let ddg = e.Ncdrf_workloads.Suite.ddg in
      let expected = Reference.run ~iterations ddg in
      List.iter
        (fun (latency, capacity) ->
          let config = Config.dual ~latency in
          List.iter
            (fun model ->
              let stats = Pipeline.run ~config ~model ~capacity ddg in
              if stats.Pipeline.fits then begin
                incr points;
                if stats.Pipeline.spilled > 0 then incr spilled;
                let run =
                  match model with
                  | Model.Unified -> Executor.run_unified
                  | Model.Ideal | Model.Partitioned | Model.Swapped -> Executor.run_clustered
                in
                let ok =
                  match run ~iterations stats.Pipeline.schedule with
                  | o -> Reference.equal_stores expected o.Executor.stores
                  | exception Executor.Corrupted _ -> false
                in
                if not ok then
                  diverged :=
                    Printf.sprintf "%s L%d R%d %s" (Ddg.name ddg) latency capacity
                      (Model.to_string model)
                    :: !diverged
              end)
            [ Model.Unified; Model.Partitioned; Model.Swapped ])
        [ (3, 16); (3, 32); (6, 16); (6, 32) ])
    (Ncdrf_workloads.Suite.full ~size:150 ());
  check_int "fitting points" 1755 !points;
  check_bool "the slice exercises spilled schedules" true (!spilled > 0);
  Alcotest.(check (list string)) "diverged points" [] (List.rev !diverged)

(* Spilling is semantically invisible: the reference interpreter
   computes the same stores on a graph and on any chain of spill
   rewrites of it. *)
let prop_spill_rewrites_preserve_semantics =
  let arb =
    QCheck.make
      ~print:(fun (seed, heavy, picks) ->
        Printf.sprintf "seed=%d heavy=%b picks=[%s]" seed heavy
          (String.concat ";" (List.map string_of_int picks)))
      QCheck.Gen.(triple (int_bound 50_000) bool (list_size (int_range 1 4) (int_bound 1000)))
  in
  QCheck.Test.make ~count:200 ~name:"spill rewrites preserve semantics" arb
    (fun (seed, heavy, picks) ->
      let params =
        if heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
      in
      let ddg = Ncdrf_workloads.Generator.generate params ~seed ~name:"spill-prop" in
      let iterations = 6 in
      let expected = Reference.run ~iterations ddg in
      let agrees g = Reference.equal_stores expected (Reference.run ~iterations g) in
      let rec go g = function
        | [] -> agrees g
        | pick :: rest -> (
          agrees g
          &&
          match spill_candidates g with
          | [] -> true
          | vs -> go (spill g (List.nth vs (pick mod List.length vs))) rest)
      in
      go ddg picks)

(* The check above has teeth: a spill rewrite that wires a reload to the
   wrong consumer, or reads it an iteration late, makes both the
   reference and the executor disagree with the original loop. *)
let test_wrong_spill_rewrite_diverges () =
  let config = Helpers.example_config () in
  let ddg = Helpers.example_ddg () in
  let iterations = 12 in
  let expected = Reference.run ~iterations ddg in
  let l1 = (Helpers.node_by_label ddg "L1").Ddg.id in
  let spilled = spill ddg l1 in
  let reload =
    List.find
      (fun v -> Opcode.is_spill_load (Ddg.node spilled v).Ddg.opcode)
      (List.init (Ddg.num_nodes spilled) Fun.id)
  in
  let consumer = (List.hd (Ddg.consumers spilled reload)).Ddg.dst in
  let rewire ~dst ~distance =
    Transform_reference.transform spilled
      ~drop_edge:(fun e -> e.Ddg.src = reload && e.Ddg.kind = Ddg.Flow)
      ~add_edges:[ { Ddg.src = reload; dst; distance; kind = Ddg.Flow } ]
      ()
  in
  let a6 = (Helpers.node_by_label ddg "A6").Ddg.id in
  check_bool "A6 does not read L1" true (a6 <> consumer);
  List.iter
    (fun (what, wrong) ->
      check_bool (what ^ ": reference diverges") false
        (Reference.equal_stores expected (Reference.run ~iterations wrong));
      let sched = Ncdrf_spill.Spiller.schedule_once config ~min_ii:1 wrong in
      let executed =
        match Executor.run_unified ~iterations sched with
        | o -> Reference.equal_stores expected o.Executor.stores
        | exception Executor.Corrupted _ -> false
      in
      check_bool (what ^ ": executor diverges") false executed)
    [ ("reload wired to the wrong consumer", rewire ~dst:a6 ~distance:0);
      ("reload one iteration late", rewire ~dst:consumer ~distance:1) ];
  (* The faithful rewrite, by contrast, agrees on both sides. *)
  same_stores "faithful rewrite" expected (Reference.run ~iterations spilled);
  same_stores "faithful rewrite executes" expected
    (Executor.run_unified ~iterations
       (Ncdrf_spill.Spiller.schedule_once config ~min_ii:1 spilled))
      .Executor.stores

(* --- Failure injection --- *)

let prop_mutations_caught =
  (* Nudge one operation's cycle or cluster in a valid schedule: either
     the static validator rejects the result, or — if the mutation
     happens to produce another valid schedule — execution still matches
     the reference.  This checks that Schedule.validate is strong enough
     to protect the executor. *)
  let arb =
    QCheck.make
      ~print:(fun (seed, victim, delta, flip) ->
        Printf.sprintf "seed=%d victim=%d delta=%d flip=%b" seed victim delta flip)
      QCheck.Gen.(quad (int_bound 20_000) (int_bound 1_000) (int_range (-3) 3) bool)
  in
  QCheck.Test.make ~count:60 ~name:"schedule mutations are caught or harmless" arb
    (fun (seed, victim, delta, flip_cluster) ->
      let ddg =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default ~seed
          ~name:"mut-prop"
      in
      let config = Config.dual ~latency:3 in
      let sched = Modulo.schedule config ddg in
      let n = Ddg.num_nodes ddg in
      let v = victim mod n in
      let placements =
        Array.init n (fun i ->
            let cycle = Schedule.cycle sched i in
            let cluster = Schedule.cluster sched i in
            if i = v then
              {
                Schedule.cycle = (cycle + delta);
                cluster = (if flip_cluster then 1 - cluster else cluster);
              }
            else { Schedule.cycle; cluster })
      in
      let mutated =
        Schedule.make ~config ~ii:(Schedule.ii sched) ~placements ddg
      in
      match Schedule.validate mutated with
      | Error _ -> true (* the validator caught it *)
      | Ok () ->
        (* Still a legal schedule: it must also execute correctly. *)
        let iterations = Schedule.stages mutated + 4 in
        let expected = Reference.run ~iterations ddg in
        (try
           Reference.equal_stores expected
             (Executor.run_unified ~iterations mutated).Executor.stores
           && Reference.equal_stores expected
                (Executor.run_clustered ~iterations mutated).Executor.stores
         with Executor.Corrupted _ -> false))

(* --- Memory system model --- *)

let kernel_for_memory name =
  match Ncdrf_workloads.Kernels.find name with
  | Some g -> g
  | None -> Alcotest.failf "kernel %s missing" name

let test_memory_no_accesses () =
  let open Expr in
  (* Arithmetic-only loop: defs consumed by one store... we need at
     least a store to be realistic; use an all-arith body and strip by
     checking a loop with no memory is impossible here, so instead use a
     single-store loop on a wide-banked memory: zero contention. *)
  let g = compile ~name:"light" [ Store ("o", inv "a" + inv "b") ] in
  let sched = Modulo.schedule (Config.dual ~latency:3) g in
  let r =
    Memory_system.simulate
      ~config:{ Memory_system.banks = 8; service_time = 1; tolerance = 4 }
      ~iterations:20 sched
  in
  Alcotest.(check (float 1e-9)) "no slowdown" 1.0 r.Memory_system.slowdown;
  check_int "one access per iteration" 20 r.Memory_system.accesses

let test_memory_single_bank_contention () =
  (* sum-8 issues 8 loads + 1 store per iteration; with a single slow
     bank the memory must become the bottleneck. *)
  let g =
    match Ncdrf_workloads.Kernels.find "sum-8" with
    | Some g -> g
    | None -> Alcotest.fail "kernel missing"
  in
  let sched = Modulo.schedule (Config.dual ~latency:3) g in
  let tight =
    Memory_system.simulate
      ~config:{ Memory_system.banks = 1; service_time = 2; tolerance = 2 }
      ~iterations:30 sched
  in
  check_bool "slowdown" true (tight.Memory_system.slowdown > 1.5);
  check_bool "delays observed" true (tight.Memory_system.delayed > 0);
  check_bool "pipeline slipped" true (tight.Memory_system.pipeline_slips > 0);
  let wide =
    Memory_system.simulate
      ~config:{ Memory_system.banks = 64; service_time = 2; tolerance = 2 }
      ~iterations:30 sched
  in
  check_bool "more banks help" true
    (wide.Memory_system.slowdown <= tight.Memory_system.slowdown)

let test_memory_slower_banks_hurt_more () =
  (* Monotonicity in the service time: a slower memory can only add
     slowdown; and the slowdown correlates with the schedule's traffic
     density when comparing at a fixed II (the paper's Figure 9
     argument). *)
  let config = Config.dual ~latency:6 in
  let sched = Modulo.schedule config (kernel_for_memory "ll9-integrate") in
  let slow service_time =
    (Memory_system.simulate
       ~config:{ Memory_system.banks = 2; service_time; tolerance = 2 }
       ~iterations:40 sched)
      .Memory_system.slowdown
  in
  check_bool "service 4 >= service 2" true (slow 4 >= slow 2 -. 1e-9);
  check_bool "service 2 >= service 1" true (slow 2 >= slow 1 -. 1e-9)

let suite =
  [
    Alcotest.test_case "example executes (unified)" `Quick test_example_unified_execution;
    Alcotest.test_case "example executes (dual)" `Quick test_example_dual_execution;
    Alcotest.test_case "example executes (swapped)" `Quick test_example_swapped_execution;
    Alcotest.test_case "all kernels execute correctly" `Slow
      test_all_kernels_execute_correctly;
    Alcotest.test_case "spilled code executes correctly" `Quick
      test_spilled_code_executes_correctly;
    Alcotest.test_case "fig8 slice computes the original loop" `Quick
      test_fig8_slice_computes_original_loop;
    Alcotest.test_case "a wrong spill rewrite diverges" `Quick
      test_wrong_spill_rewrite_diverges;
    Alcotest.test_case "recurrence kernels execute" `Quick test_recurrence_kernels_execute;
    Alcotest.test_case "port-capped machine executes" `Quick
      test_port_capped_machine_executes;
    Alcotest.test_case "dual rejects single cluster" `Quick test_dual_rejects_single_cluster;
    Alcotest.test_case "executor cycle count" `Quick test_executor_cycle_count;
    Alcotest.test_case "reference deterministic" `Quick test_reference_deterministic;
    Alcotest.test_case "memory: light loop has no slowdown" `Quick test_memory_no_accesses;
    Alcotest.test_case "memory: single-bank contention" `Quick
      test_memory_single_bank_contention;
    Alcotest.test_case "memory: slower banks hurt more" `Quick
      test_memory_slower_banks_hurt_more;
    QCheck_alcotest.to_alcotest prop_executor_matches_reference;
    QCheck_alcotest.to_alcotest prop_mutations_caught;
    QCheck_alcotest.to_alcotest prop_spill_rewrites_preserve_semantics;
  ]
