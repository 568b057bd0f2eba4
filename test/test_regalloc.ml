(* Tests for lifetimes and the cyclic (rotating register file)
   allocator, including a brute-force cross-check of the modular
   conflict predicate and qcheck properties. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Table 2 lifetimes --- *)

let test_table2_lifetimes () =
  let sched = Helpers.paper_schedule () in
  let expect label len =
    let l = Helpers.lifetime_of sched label in
    check_int label len (Lifetime.length l)
  in
  expect "L1" 13;
  expect "L2" 7;
  expect "M3" 6;
  expect "A4" 6;
  expect "M5" 6;
  expect "A6" 4

let test_lifetime_sum_is_42 () =
  let sched = Helpers.paper_schedule () in
  let total =
    List.fold_left (fun acc l -> acc + Lifetime.length l) 0 (Lifetime.of_schedule sched)
  in
  check_int "sum of lifetimes" 42 total

let test_max_live_example () =
  let sched = Helpers.paper_schedule () in
  check_int "maxlive at II=1" 42
    (Lifetime.max_live ~ii:1 (Lifetime.of_schedule sched))

let test_lifetime_of_dead_value () =
  let open Expr in
  (* r's value is dead: it lives only while the multiplier writes it. *)
  let g = compile ~name:"dead" [ Def ("r", load "x" * inv "k"); Store ("o", load "x") ] in
  let cfg = Config.dual ~latency:3 in
  let sched = Modulo.schedule cfg g in
  let mul = List.find (fun n -> n.Ddg.opcode = Opcode.Fmul) (Ddg.nodes g) in
  let l =
    List.find (fun l -> l.Lifetime.producer = mul.Ddg.id) (Lifetime.of_schedule sched)
  in
  check_int "dead value lives its latency" 3 (Lifetime.length l)

let test_loop_carried_consumer_extends_lifetime () =
  let sched =
    Modulo.schedule (Config.dual ~latency:3)
      (match Ncdrf_workloads.Kernels.find "ll5-tridiag" with
      | Some g -> g
      | None -> Alcotest.fail "kernel missing")
  in
  let ii = Schedule.ii sched in
  (* The recurrence value (mul result) is consumed one iteration later:
     its lifetime must span at least II. *)
  let ddg = sched.Schedule.ddg in
  let mul = List.find (fun n -> n.Ddg.opcode = Opcode.Fmul) (Ddg.nodes ddg) in
  let l =
    List.find (fun l -> l.Lifetime.producer = mul.Ddg.id) (Lifetime.of_schedule sched)
  in
  check_bool "spans an II" true (Lifetime.length l >= ii)

let test_live_at_slot_formula () =
  (* start 0, length 13, ii 4: instances live at slots 0..3 are
     ceil((13 - r)/4) = 4,3,3,3. *)
  let l = { Lifetime.producer = 0; start = 0; stop = 13 } in
  check_int "slot 0" 4 (Lifetime.live_at_slot l ~ii:4 ~slot:0);
  check_int "slot 1" 3 (Lifetime.live_at_slot l ~ii:4 ~slot:1);
  check_int "slot 2" 3 (Lifetime.live_at_slot l ~ii:4 ~slot:2);
  check_int "slot 3" 3 (Lifetime.live_at_slot l ~ii:4 ~slot:3);
  check_int "min registers" 4 (Lifetime.min_registers ~ii:4 l)

(* --- Conflict predicate: brute force cross-check --- *)

(* Simulate the rotating file over many iterations and check whether two
   placements ever put live instances in the same physical register. *)
let brute_force_conflict ~ii ~capacity (v, rv) (w, rw) =
  (* Physical register of instance k of a value at virtual register r is
     (r + k) mod capacity; instance k is live on
     [start + k*ii, stop + k*ii).  Scan a window of instances wide
     enough to cover every residue. *)
  let phys r k = (((r + k) mod capacity) + capacity) mod capacity in
  let span = 2 * (capacity + ii + Lifetime.length v + Lifetime.length w) in
  let clash = ref false in
  for kv = -span to span do
    for kw = -span to span do
      if not (v.Lifetime.producer = w.Lifetime.producer && kv = kw) then begin
        let vb = v.Lifetime.start + (kv * ii) in
        let wb = w.Lifetime.start + (kw * ii) in
        let overlap =
          vb < wb + Lifetime.length w && wb < vb + Lifetime.length v
        in
        if overlap && phys rv kv = phys rw kw then clash := true
      end
    done
  done;
  !clash

let prop_conflict_brute_force =
  let gen =
    QCheck.Gen.(
      let lifetime =
        map2
          (fun start len -> { Lifetime.producer = 0; start; stop = start + len })
          (int_bound 12) (int_range 1 14)
      in
      let placed cap = map2 (fun l r -> (l, r)) lifetime (int_bound (cap - 1)) in
      int_range 1 4 >>= fun ii ->
      int_range 2 10 >>= fun capacity ->
      placed capacity >>= fun a ->
      placed capacity >>= fun b -> return (ii, capacity, a, b))
  in
  let arb =
    QCheck.make
      ~print:(fun (ii, cap, ((a : Lifetime.t), ra), (b, rb)) ->
        Printf.sprintf "ii=%d cap=%d a=[%d,%d)@%d b=[%d,%d)@%d" ii cap a.Lifetime.start
          a.Lifetime.stop ra b.Lifetime.start b.Lifetime.stop rb)
      gen
  in
  QCheck.Test.make ~count:300 ~name:"conflict = brute force" arb
    (fun (ii, capacity, (a, ra), (b, rb)) ->
      (* Only meaningful when each value fits the capacity on its own. *)
      QCheck.assume (Lifetime.min_registers ~ii a <= capacity);
      QCheck.assume (Lifetime.min_registers ~ii b <= capacity);
      let fast = Alloc.conflict ~ii ~capacity (a, ra) (b, rb) in
      let slow = brute_force_conflict ~ii ~capacity ({ a with producer = 0 }, ra)
          ({ b with producer = 1 }, rb) in
      fast = slow)

let prop_allocation_is_conflict_free =
  let arb =
    QCheck.make
      ~print:(fun (seed, lat) -> Printf.sprintf "seed=%d lat=%d" seed lat)
      QCheck.Gen.(pair (int_bound 50_000) (int_range 1 8))
  in
  QCheck.Test.make ~count:60 ~name:"min_capacity allocation passes check" arb
    (fun (seed, latency) ->
      let g =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default ~seed
          ~name:"alloc-prop"
      in
      let cfg = Config.dual ~latency in
      let sched = Modulo.schedule cfg g in
      let lifetimes = Lifetime.of_schedule sched in
      let ii = Schedule.ii sched in
      let capacity = Alloc.min_capacity ~ii lifetimes in
      match lifetimes with
      | [] -> capacity = 0
      | _ ->
        capacity >= Lifetime.max_live ~ii lifetimes
        &&
        (match Alloc.allocate ~ii ~capacity lifetimes with
        | None -> false
        | Some placements -> Alloc.check ~ii ~capacity placements = Ok ()))

(* Exhaustive optimal allocation for tiny instances: try every register
   assignment up to a capacity bound and find the true minimum. *)
let brute_force_min_capacity ~ii lifetimes ~upper =
  let arr = Array.of_list lifetimes in
  let n = Array.length arr in
  let feasible capacity =
    let rec assign idx regs =
      if idx >= n then true
      else begin
        let ok r =
          List.for_all
            (fun (j, rj) -> not (Alloc.conflict ~ii ~capacity (arr.(j), rj) (arr.(idx), r)))
            regs
          && Lifetime.min_registers ~ii arr.(idx) <= capacity
        in
        let rec try_reg r =
          r < capacity && ((ok r && assign (idx + 1) ((idx, r) :: regs)) || try_reg (r + 1))
        in
        try_reg 0
      end
    in
    assign 0 []
  in
  let rec search c = if c > upper then upper + 1 else if feasible c then c else search (c + 1) in
  search 1

let prop_first_fit_close_to_optimal =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun ii ->
      int_range 2 4 >>= fun count ->
      list_repeat count (pair (int_bound 6) (int_range 1 9)) >>= fun raw ->
      return (ii, raw))
  in
  let arb =
    QCheck.make
      ~print:(fun (ii, raw) ->
        Printf.sprintf "ii=%d %s" ii
          (String.concat " " (List.map (fun (s, l) -> Printf.sprintf "[%d,+%d)" s l) raw)))
      gen
  in
  QCheck.Test.make ~count:80 ~name:"first-fit vs brute-force optimum" arb
    (fun (ii, raw) ->
      let lifetimes =
        List.mapi
          (fun i (start, len) -> { Lifetime.producer = i; start; stop = start + len })
          raw
      in
      let ff = Alloc.min_capacity ~ii lifetimes in
      let opt = brute_force_min_capacity ~ii lifetimes ~upper:ff in
      (* The true optimum can never beat the MaxLive lower bound, the
         heuristic can never beat the optimum, and on these tiny
         instances first-fit stays within a small constant of it
         (Rau'92 reports near-optimality; 4 bounds the worst adversarial
         case we allow). *)
      Lifetime.max_live ~ii lifetimes <= opt && opt <= ff && ff <= opt + 4)

let test_first_fit_example_is_42 () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Lifetime.of_schedule sched in
  check_int "min capacity" 42 (Alloc.min_capacity ~ii:1 lifetimes);
  match Alloc.allocate ~ii:1 ~capacity:42 lifetimes with
  | Some p ->
    check_bool "conflict free" true (Alloc.check ~ii:1 ~capacity:42 p = Ok ())
  | None -> Alcotest.fail "allocation failed at the maxlive capacity"

(* A register set in the scratch before a pass counts as placed, the
   way the requirement searches pre-place the globals. *)
let test_allocate_honours_preplaced () =
  let a = { Lifetime.producer = 0; start = 0; stop = 4 } in
  let b = { Lifetime.producer = 1; start = 0; stop = 4 } in
  let table = Conflict.make ~ii:4 [ a; b ] in
  let s = Alloc.scratch table in
  let place_b ~capacity =
    Alloc.unassign_all s;
    (Alloc.registers s).(0) <- 0;
    Alloc.place table s ~capacity [| 1 |] ~pos:0 ~len:1
  in
  check_bool "fits beside the pre-placed value" true (place_b ~capacity:2);
  check_bool "avoids the pre-placed register" true ((Alloc.registers s).(1) <> 0);
  (* Capacity 1 cannot hold both. *)
  check_bool "over capacity fails" false (place_b ~capacity:1)

let test_orders_allocate_validly () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Lifetime.of_schedule sched in
  List.iter
    (fun order ->
      let c = Alloc.min_capacity ~order ~ii:1 lifetimes in
      check_bool "capacity sane" true (c >= 42))
    [ Alloc.Start_time; Alloc.Longest_first; Alloc.Node_order ]

let suite =
  [
    Alcotest.test_case "Table 2: lifetimes" `Quick test_table2_lifetimes;
    Alcotest.test_case "lifetime sum is 42" `Quick test_lifetime_sum_is_42;
    Alcotest.test_case "maxlive on example" `Quick test_max_live_example;
    Alcotest.test_case "dead value lifetime" `Quick test_lifetime_of_dead_value;
    Alcotest.test_case "loop-carried consumer extends lifetime" `Quick
      test_loop_carried_consumer_extends_lifetime;
    Alcotest.test_case "live_at_slot formula" `Quick test_live_at_slot_formula;
    Alcotest.test_case "first fit on example needs 42" `Quick test_first_fit_example_is_42;
    Alcotest.test_case "pre-placed values respected" `Quick test_allocate_honours_preplaced;
    Alcotest.test_case "alternative orders" `Quick test_orders_allocate_validly;
    QCheck_alcotest.to_alcotest prop_conflict_brute_force;
    QCheck_alcotest.to_alcotest prop_first_fit_close_to_optimal;
    QCheck_alcotest.to_alcotest prop_allocation_is_conflict_free;
  ]
