(* Unit tests for machine configurations and modulo reservation tables. *)

open Ncdrf_ir
open Ncdrf_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_config_constructors () =
  let p2l6 = Config.pxly ~parallelism:2 ~latency:6 in
  check_int "adders" 2 (Config.total_adders p2l6);
  check_int "multipliers" 2 (Config.total_multipliers p2l6);
  check_int "clusters" 1 (Config.num_clusters p2l6);
  check_int "add latency" 6 (Config.latency p2l6 Opcode.Fadd);
  check_int "mul latency" 6 (Config.latency p2l6 Opcode.Fmul);
  check_int "mem latency" 1 (Config.latency p2l6 (Opcode.Load (Opcode.Array "x")));
  let dual = Config.dual ~latency:3 in
  check_int "dual clusters" 2 (Config.num_clusters dual);
  check_int "dual adders" 2 (Config.total_adders dual);
  check_int "dual ls" 2 (Config.total_ls_units dual);
  let example = Config.example () in
  check_int "example ls" 4 (Config.total_ls_units example)

let test_memory_bandwidth () =
  (* PxLy: 3 LS units but 2 load + 1 store ports -> bandwidth 3. *)
  check_int "pxly bandwidth" 3 (Config.memory_bandwidth (Config.pxly ~parallelism:1 ~latency:3));
  check_int "dual bandwidth" 2 (Config.memory_bandwidth (Config.dual ~latency:3));
  check_int "example bandwidth" 4 (Config.memory_bandwidth (Config.example ()))

let test_config_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      Alcotest.fail "invalid config accepted"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () ->
      Config.make ~name:"bad" ~clusters:[||] ~add_latency:3 ~mul_latency:3 ());
  expect_invalid (fun () ->
      Config.make ~name:"bad"
        ~clusters:[| { Config.adders = 1; multipliers = 1; ls_units = 1; read_ports = None; write_ports = None } |]
        ~add_latency:0 ~mul_latency:3 ());
  expect_invalid (fun () ->
      Config.make ~name:"bad"
        ~clusters:[| { Config.adders = -1; multipliers = 1; ls_units = 1; read_ports = None; write_ports = None } |]
        ~add_latency:3 ~mul_latency:3 ())

let test_reservation_capacity () =
  let cfg = Config.dual ~latency:3 in
  let rt = Reservation.create cfg ~ii:2 in
  (* Each cluster has one adder; II=2 gives two slots. *)
  check_bool "first add at 0" true (Reservation.reserve rt ~op:Opcode.Fadd ~cycle:0 >= 0);
  check_bool "second add at 0" true (Reservation.reserve rt ~op:Opcode.Fadd ~cycle:0 >= 0);
  check_bool "third add at 0 fails" true (Reservation.reserve rt ~op:Opcode.Fadd ~cycle:0 < 0);
  check_bool "add at slot 1 still free" true
    (Reservation.reserve rt ~op:Opcode.Fadd ~cycle:1 >= 0);
  (* Slot is cycle mod II: cycle 2 is slot 0 again. *)
  check_bool "add at cycle 2 fails" true (Reservation.reserve rt ~op:Opcode.Fadd ~cycle:2 < 0)

let test_reservation_balances_clusters () =
  let cfg = Config.dual ~latency:3 in
  let rt = Reservation.create cfg ~ii:1 in
  let c1 = Reservation.reserve rt ~op:Opcode.Fmul ~cycle:0 in
  let c2 = Reservation.reserve rt ~op:Opcode.Fmul ~cycle:0 in
  if c1 < 0 || c2 < 0 then Alcotest.fail "reservations failed";
  check_bool "distinct clusters" true (c1 <> c2)

let test_reservation_release () =
  let cfg = Config.dual ~latency:3 in
  let rt = Reservation.create cfg ~ii:1 in
  (match Reservation.reserve rt ~op:Opcode.Fadd ~cycle:0 with
   | -1 -> Alcotest.fail "reserve failed"
   | cluster ->
     check_int "used" 1 (Reservation.used rt ~op:Opcode.Fadd ~cycle:0 ~cluster);
     Reservation.release rt ~op:Opcode.Fadd ~cycle:0 ~cluster;
     check_int "freed" 0 (Reservation.used rt ~op:Opcode.Fadd ~cycle:0 ~cluster);
     check_bool "reusable" true (Reservation.reserve rt ~op:Opcode.Fadd ~cycle:0 >= 0));
  try
    Reservation.release rt ~op:Opcode.Fmul ~cycle:0 ~cluster:0;
    Alcotest.fail "double release accepted"
  with Invalid_argument _ -> ()

let test_port_caps () =
  (* P1L3 has 3 LS units but only 1 store port and 2 load ports. *)
  let cfg = Config.pxly ~parallelism:1 ~latency:3 in
  let rt = Reservation.create cfg ~ii:1 in
  let store = Opcode.Store (Opcode.Array "x") in
  let load = Opcode.Load (Opcode.Array "x") in
  check_bool "first store ok" true (Reservation.reserve rt ~op:store ~cycle:0 >= 0);
  check_bool "second store blocked by port" true
    (Reservation.reserve rt ~op:store ~cycle:0 < 0);
  check_bool "port saturation visible" true (Reservation.port_saturated rt ~op:store ~cycle:0);
  check_bool "first load ok" true (Reservation.reserve rt ~op:load ~cycle:0 >= 0);
  check_bool "second load ok" true (Reservation.reserve rt ~op:load ~cycle:0 >= 0);
  (* Third load: port cap (2) binds before unit count (3 LS, 1 used by
     the store). *)
  check_bool "third load blocked" true (Reservation.reserve rt ~op:load ~cycle:0 < 0)

let test_reserve_in_specific_cluster () =
  let cfg = Config.dual ~latency:3 in
  let rt = Reservation.create cfg ~ii:1 in
  check_bool "cluster 1 explicit" true
    (Reservation.reserve_in rt ~op:Opcode.Fadd ~cycle:0 ~cluster:1);
  check_bool "cluster 1 full" false
    (Reservation.reserve_in rt ~op:Opcode.Fadd ~cycle:0 ~cluster:1);
  check_bool "cluster 0 free" true
    (Reservation.reserve_in rt ~op:Opcode.Fadd ~cycle:0 ~cluster:0)

let test_negative_cycle_slots () =
  let cfg = Config.dual ~latency:3 in
  let rt = Reservation.create cfg ~ii:3 in
  (* Cycle -1 is slot 2. *)
  check_bool "negative cycle reserves" true
    (Reservation.reserve rt ~op:Opcode.Fadd ~cycle:(-1) >= 0);
  check_int "maps to slot 2" 1 (Reservation.used rt ~op:Opcode.Fadd ~cycle:2 ~cluster:0)

(* --- Hardware cost models (paper Section 3.2) --- *)

let test_cost_area_model () =
  let spec = { Cost.registers = 32; read_ports = 4; write_ports = 4; bits = 64 } in
  (* area = 32 * 64 * 8^2 *)
  Alcotest.(check (float 1e-6)) "area" (float_of_int (32 * 64 * 64)) (Cost.area spec);
  (* Linear in registers, quadratic in ports. *)
  let double_regs = Cost.area { spec with Cost.registers = 64 } in
  Alcotest.(check (float 1e-6)) "linear in registers" (2.0 *. Cost.area spec) double_regs;
  let double_ports = Cost.area { spec with Cost.read_ports = 8; write_ports = 8 } in
  Alcotest.(check (float 1e-6)) "quadratic in ports" (4.0 *. Cost.area spec) double_ports

let test_cost_access_time_monotone () =
  let base = { Cost.registers = 32; read_ports = 4; write_ports = 4; bits = 64 } in
  check_bool "more registers is slower" true
    (Cost.access_time { base with Cost.registers = 64 } > Cost.access_time base);
  check_bool "more read ports is slower" true
    (Cost.access_time { base with Cost.read_ports = 8 } > Cost.access_time base)

let test_operand_field_bits () =
  check_int "32 regs" 5 (Cost.operand_field_bits ~registers:32);
  check_int "64 regs" 6 (Cost.operand_field_bits ~registers:64);
  check_int "33 regs" 6 (Cost.operand_field_bits ~registers:33)

let test_cost_organizations () =
  let cfg = Config.dual ~latency:6 in
  (* Unified: 2*(2 add)+2*(2 mul)+2 ls = 10 reads; 6 writes. *)
  let unified, copies_u = Cost.specify cfg ~registers:32 Cost.Unified in
  check_int "unified reads" 10 unified.Cost.read_ports;
  check_int "unified writes" 6 unified.Cost.write_ports;
  check_int "unified copies" 1 copies_u;
  (* Dual: each copy serves one cluster's 5 reads, takes all 6 writes. *)
  let dual, copies_d = Cost.specify cfg ~registers:32 Cost.non_consistent_dual in
  check_int "dual reads" 5 dual.Cost.read_ports;
  check_int "dual writes" 6 dual.Cost.write_ports;
  check_int "dual copies" 2 copies_d;
  (* Paper Section 3.2 / conclusions: the dual organization is cheaper
     than doubling the registers and does not penalize access time. *)
  check_bool "NCDRF cheaper than doubling" true
    (Cost.total_area cfg ~registers:32 Cost.non_consistent_dual
     < Cost.total_area cfg ~registers:32 Cost.Doubled_unified);
  check_bool "NCDRF no access-time penalty" true
    (Cost.organization_access_time cfg ~registers:32 Cost.non_consistent_dual
     <= Cost.organization_access_time cfg ~registers:32 Cost.Unified);
  check_bool "consistent and non-consistent duals share the structure" true
    (Cost.specify cfg ~registers:32 Cost.consistent_dual
     = Cost.specify cfg ~registers:32 Cost.non_consistent_dual)

(* The fingerprint is rendered once by [Config.make]; the stored text
   must equal the historical per-call rendering on every constructor. *)
let test_fingerprint_matches_reference () =
  let spec ?read ?write ~clusters latency =
    { Config.spec_latency = latency; spec_clusters = clusters;
      spec_read_ports = read; spec_write_ports = write }
  in
  let of_spec s =
    match Config.of_spec s with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let configs =
    [
      Config.dual ~latency:3;
      Config.dual ~latency:6;
      of_spec (spec ~clusters:1 3);
      Config.k_cluster ~k:3 ~latency:3 ();
      Config.k_cluster ~k:4 ~latency:6 ();
      Config.k_cluster ~read_ports:4 ~write_ports:2 ~k:3 ~latency:3 ();
      Config.k_cluster ~read_ports:2 ~k:4 ~latency:3 ();
      Config.k_cluster ~write_ports:1 ~k:4 ~latency:6 ();
      Config.pxly ~parallelism:1 ~latency:3;
      Config.pxly ~parallelism:4 ~latency:6;
      Config.make ~name:"ld-only"
        ~clusters:[| Config.symmetric_cluster ~adders:1 ~multipliers:1 ~ls_units:2 () |]
        ~add_latency:2 ~mul_latency:4 ~mem_latency:2 ~load_ports:1 ();
      Config.make ~name:"st-only"
        ~clusters:[| Config.symmetric_cluster ~adders:1 ~multipliers:1 ~ls_units:2 () |]
        ~add_latency:2 ~mul_latency:4 ~store_ports:1 ();
      Config.example ();
      of_spec Config.default_spec;
      of_spec (spec ~clusters:1 6);
      of_spec (spec ~read:3 ~clusters:1 3);
      of_spec (spec ~clusters:2 6);
      of_spec (spec ~read:4 ~write:2 ~clusters:2 3);
      of_spec (spec ~clusters:3 3);
      of_spec (spec ~write:2 ~clusters:4 6);
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check string)
        ("fingerprint of " ^ c.Config.name)
        (Fingerprint_reference.fingerprint c)
        (Config.fingerprint c))
    configs

let test_make_copies_clusters () =
  let cluster n = Config.symmetric_cluster ~adders:n ~multipliers:1 ~ls_units:1 () in
  let arr = [| cluster 1; cluster 1 |] in
  let c = Config.make ~name:"copied" ~clusters:arr ~add_latency:3 ~mul_latency:3 () in
  let before = Config.fingerprint c in
  arr.(0) <- cluster 5;
  check_int "config keeps its own clusters" 1 c.Config.clusters.(0).Config.adders;
  check_int "unit totals unchanged" 2 (Config.total_adders c);
  Alcotest.(check string) "fingerprint unchanged" before (Config.fingerprint c);
  Alcotest.(check string) "fingerprint still renders the config"
    (Fingerprint_reference.fingerprint c) (Config.fingerprint c)

(* Cluster sets are int bit sets in the swap pass, so no constructor
   may build more than [Config.max_clusters] = 62 clusters: the spec
   path answers with a typed error, the OCaml constructors raise. *)
let test_cluster_cap () =
  Alcotest.(check int) "cap" 62 Config.max_clusters;
  let spec k =
    { Config.default_spec with Config.spec_clusters = k }
  in
  (match Config.of_spec (spec 62) with
   | Ok c -> Alcotest.(check int) "62 clusters build" 62 (Config.num_clusters c)
   | Error e -> Alcotest.fail e);
  (match Config.of_spec (spec 63) with
   | Ok _ -> Alcotest.fail "63 clusters accepted by of_spec"
   | Error _ -> ());
  (* Latencies and port caps below 1 are typed errors naming the flag,
     not exceptions from Config.make. *)
  List.iter
    (fun (flag, bad) ->
      match Config.of_spec bad with
      | Ok _ -> Alcotest.failf "of_spec accepted a bad %s" flag
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names %s: %s" flag msg)
          true
          (String.starts_with ~prefix:(flag ^ " ") msg)
      | exception Invalid_argument msg -> Alcotest.failf "of_spec raised: %s" msg)
    [
      ("--clusters", spec 0);
      ("--latency", { Config.default_spec with Config.spec_latency = 0 });
      ("--read-ports", { Config.default_spec with Config.spec_read_ports = Some 0 });
      ( "--write-ports",
        { Config.default_spec with Config.spec_clusters = 1; spec_write_ports = Some 0 } );
    ];
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted 63 clusters" what
    | exception Invalid_argument _ -> ()
  in
  raises "k_cluster" (fun () -> Config.k_cluster ~k:63 ~latency:3 ());
  raises "make" (fun () ->
      Config.make ~name:"wide" ~add_latency:3 ~mul_latency:3
        ~clusters:
          (Array.make 63 (Config.symmetric_cluster ~adders:1 ~multipliers:1 ~ls_units:1 ()))
        ())

let suite =
  [
    Alcotest.test_case "cluster count capped at 62" `Quick test_cluster_cap;
    Alcotest.test_case "config constructors" `Quick test_config_constructors;
    Alcotest.test_case "cost: area model" `Quick test_cost_area_model;
    Alcotest.test_case "cost: access time monotone" `Quick test_cost_access_time_monotone;
    Alcotest.test_case "cost: operand field bits" `Quick test_operand_field_bits;
    Alcotest.test_case "cost: organizations" `Quick test_cost_organizations;
    Alcotest.test_case "memory bandwidth" `Quick test_memory_bandwidth;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "fingerprint matches the reference rendering" `Quick
      test_fingerprint_matches_reference;
    Alcotest.test_case "make copies the clusters array" `Quick test_make_copies_clusters;
    Alcotest.test_case "reservation capacity" `Quick test_reservation_capacity;
    Alcotest.test_case "reservation balances clusters" `Quick
      test_reservation_balances_clusters;
    Alcotest.test_case "reservation release" `Quick test_reservation_release;
    Alcotest.test_case "port caps" `Quick test_port_caps;
    Alcotest.test_case "reserve in specific cluster" `Quick test_reserve_in_specific_cluster;
    Alcotest.test_case "negative cycles map to slots" `Quick test_negative_cycle_slots;
  ]
