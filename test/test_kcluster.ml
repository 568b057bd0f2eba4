(* The generalized k-cluster machine model: fixed-seed digests pinning
   the dual (k=2) path to the seed implementation byte-for-byte, a
   qcheck property that the k-cluster constructors at k=2 are the dual
   path, Shared-class semantics at k >= 3, per-subfile port budgets in
   the fingerprint (distinct cache keys) and in the executor (stall
   accounting). *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixed-seed digest of the whole per-loop summary: II, classification,
   partitioned requirement detail, unified requirement, swap statistics
   and executor outcome.  Any byte drift in any stage moves the hash.  *)
(* ------------------------------------------------------------------ *)

let digest_loops () =
  Ncdrf_workloads.Suite.full ~size:40 ~seed:2025 ()
  |> List.filteri (fun i _ -> i < 24)
  |> List.map (fun e -> e.Ncdrf_workloads.Suite.ddg)

let summary_line buf config ddg =
  let sched = Modulo.schedule config ddg in
  Buffer.add_string buf (Printf.sprintf "%s ii=%d" (Ddg.name ddg) (Schedule.ii sched));
  List.iter
    (fun (n, cls) ->
      Buffer.add_string buf
        (Printf.sprintf " %s=%s" n.Ddg.label (Format.asprintf "%a" Classify.pp cls)))
    (Classify.classify sched);
  let d = Requirements.partitioned sched in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Buffer.add_string buf
    (Printf.sprintf " req=%d cl=%s gl=%d lo=%s ml=%s" d.Requirements.requirement
       (ints (Lazy.force d.Requirements.cluster_requirements))
       (Lazy.force d.Requirements.global_requirement)
       (ints (Lazy.force d.Requirements.local_requirements))
       (ints (Lazy.force d.Requirements.max_live)));
  Buffer.add_string buf (Printf.sprintf " unified=%d" (Requirements.unified sched));
  let swapped, st = Swap.improve sched in
  Buffer.add_string buf
    (Printf.sprintf " swaps=%d init=%d final=%d swreq=%d" st.Swap.swaps
       st.Swap.initial_cost st.Swap.final_cost
       (Requirements.partitioned swapped).Requirements.requirement);
  let o = Ncdrf_sim.Executor.run_clustered ~iterations:12 sched in
  Buffer.add_string buf
    (Printf.sprintf " cap=%d cyc=%d rd=%d nst=%d stall=%d\n"
       o.Ncdrf_sim.Executor.capacity o.Ncdrf_sim.Executor.cycles
       o.Ncdrf_sim.Executor.register_reads
       (List.length o.Ncdrf_sim.Executor.stores)
       o.Ncdrf_sim.Executor.port_stalls)

let digest_of configs =
  let buf = Buffer.create 4096 in
  let loops = digest_loops () in
  List.iter (fun config -> List.iter (summary_line buf config) loops) configs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_dual_digest () =
  check_string "dual L3+L6 summary digest" "5351d613034de8fb19363aaf5dca749c"
    (digest_of [ Config.dual ~latency:3; Config.dual ~latency:6 ])

let test_k4_digest () =
  let config = Config.k_cluster ~k:4 ~latency:3 () in
  check_string "k4 L3 summary digest" "4b89ab3f755fe01083158a54250e054f"
    (digest_of [ config ]);
  (* The 4-cluster suite must actually exercise the Shared class — if it
     never arises the generalized classification is untestable here. *)
  let shared =
    List.exists
      (fun ddg ->
        List.exists
          (fun (_, cls) -> match cls with Classify.Shared _ -> true | _ -> false)
          (Classify.classify (Modulo.schedule config ddg)))
      (digest_loops ())
  in
  check_bool "some Shared value at k=4" true shared

let test_port_capped_digest () =
  check_string "k2 r2,w1 L3 summary digest" "296b46fa01a4a1ceef1209ff01c27296"
    (digest_of [ Config.k_cluster ~read_ports:2 ~write_ports:1 ~k:2 ~latency:3 () ])

(* ------------------------------------------------------------------ *)
(* k=2 without port caps IS the dual machine: same config, same summary
   bytes, same executor outcome, and the Shared class never appears.   *)
(* ------------------------------------------------------------------ *)

let case_arb =
  QCheck.make
    ~print:(fun (seed, latency, idx) -> Printf.sprintf "seed=%d L=%d idx=%d" seed latency idx)
    QCheck.Gen.(
      triple (int_bound 5000) (oneofl [ 3; 6 ]) (int_bound 5))

let prop_k2_is_dual =
  QCheck.Test.make ~count:20 ~name:"k_cluster at k=2 without caps = dual path" case_arb
    (fun (seed, latency, idx) ->
      let ddg =
        (List.nth (Ncdrf_workloads.Suite.full ~size:6 ~seed ()) idx)
          .Ncdrf_workloads.Suite.ddg
      in
      let dual = Config.dual ~latency in
      let k2 = Config.k_cluster ~k:2 ~latency () in
      let line config =
        let buf = Buffer.create 256 in
        summary_line buf config ddg;
        Buffer.contents buf
      in
      Config.fingerprint dual = Config.fingerprint k2
      && line dual = line k2
      && (let sched = Modulo.schedule k2 ddg in
          Ncdrf_sim.Executor.run_clustered ~iterations:8 (Modulo.schedule dual ddg)
          = Ncdrf_sim.Executor.run_clustered ~iterations:8 sched
          && List.for_all
               (fun (_, cls) ->
                 match cls with Classify.Shared _ -> false | _ -> true)
               (Classify.classify sched)))

(* ------------------------------------------------------------------ *)
(* Shared-class semantics on a hand-built 3-cluster schedule.          *)
(* ------------------------------------------------------------------ *)

(* a (load, cluster 0) feeds u (fadd, cluster 0) and v (fmul, cluster
   2); each feeds a store.  a's consumers span clusters {0, 2} but not
   cluster 1, so a is Shared [0; 2] and replicated in exactly those
   subfiles; u and v are Local. *)
let shared_schedule () =
  let b = Ddg.Builder.create ~name:"shared3" in
  let n op l = Ddg.Builder.add_node b op ~label:l in
  let a = n (Opcode.Load (Opcode.Array "x")) "a" in
  let u = n Opcode.Fadd "u" in
  let v = n Opcode.Fmul "v" in
  let s0 = n (Opcode.Store (Opcode.Array "y")) "s0" in
  let s1 = n (Opcode.Store (Opcode.Array "z")) "s1" in
  let e src dst = Ddg.Builder.add_edge b ~src ~dst ~distance:0 Ddg.Flow in
  e a u;
  e a v;
  e u s0;
  e v s1;
  let ddg = Ddg.Builder.freeze b in
  let config = Config.k_cluster ~k:3 ~latency:3 () in
  let placements =
    [| { Schedule.cycle = 0; cluster = 0 } (* a *);
       { Schedule.cycle = 2; cluster = 0 } (* u *);
       { Schedule.cycle = 2; cluster = 2 } (* v *);
       { Schedule.cycle = 6; cluster = 0 } (* s0 *);
       { Schedule.cycle = 6; cluster = 2 } (* s1 *) |]
  in
  Schedule.make ~config ~ii:4 ~placements ddg

let test_shared_classification () =
  let sched = shared_schedule () in
  let classes = Classify.classify sched in
  let class_of label =
    let _, cls =
      List.find (fun (n, _) -> String.equal n.Ddg.label label) classes
    in
    cls
  in
  check_bool "a is Shared [0;2]" true
    (class_of "a" = Classify.Shared [ 0; 2 ]);
  check_bool "u is Local 0" true (class_of "u" = Classify.Local 0);
  check_bool "v is Local 2" true (class_of "v" = Classify.Local 2);
  let replicated, locals = Helpers.class_counts sched in
  check_int "one replicated value" 1 replicated;
  check_int "cluster 0 locals" 1 locals.(0);
  check_int "cluster 1 locals" 0 locals.(1);
  check_int "cluster 2 locals" 1 locals.(2)

let test_shared_allocation () =
  let sched = shared_schedule () in
  let alloc = Requirements.partitioned_allocation sched in
  (match alloc.Requirements.globals with
  | [ (_, replicas) ] -> Alcotest.(check (list int)) "replica set" [ 0; 2 ] replicas
  | gs -> Alcotest.failf "expected one replicated value, got %d" (List.length gs));
  check_int "cluster 0 locals placed" 1 (List.length alloc.Requirements.locals.(0));
  check_int "cluster 1 locals placed" 0 (List.length alloc.Requirements.locals.(1));
  check_int "cluster 2 locals placed" 1 (List.length alloc.Requirements.locals.(2));
  (* Cluster 1 never holds the shared value: its requirement is 0. *)
  let d = Requirements.partitioned sched in
  check_int "cluster 1 requirement" 0 (Lazy.force d.Requirements.cluster_requirements).(1);
  check_int "cluster 1 locals requirement" 0 (Lazy.force d.Requirements.local_requirements).(1)

(* ------------------------------------------------------------------ *)
(* Port budgets: distinct fingerprints (distinct compile-cache keys)
   and executor stall accounting.                                      *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_port_budgets () =
  let fp c = Config.fingerprint c in
  let dual = Config.dual ~latency:3 in
  check_string "k=2 without caps keeps the dual fingerprint" (fp dual)
    (fp (Config.k_cluster ~k:2 ~latency:3 ()));
  check_string "and the dual display name" "dual-L3"
    (Config.k_cluster ~k:2 ~latency:3 ()).Config.name;
  let r4w2 = Config.k_cluster ~read_ports:4 ~write_ports:2 ~k:2 ~latency:3 () in
  let r2w2 = Config.k_cluster ~read_ports:2 ~write_ports:2 ~k:2 ~latency:3 () in
  let r4w1 = Config.k_cluster ~read_ports:4 ~write_ports:1 ~k:2 ~latency:3 () in
  check_bool "port caps change the fingerprint" false (fp dual = fp r4w2);
  check_bool "read-port budget is keyed" false (fp r4w2 = fp r2w2);
  check_bool "write-port budget is keyed" false (fp r4w2 = fp r4w1);
  check_bool "capped config reports caps" true (Config.has_port_caps r4w2);
  check_bool "dual has no caps" false (Config.has_port_caps dual);
  check_string "capped name is not the dual name" "k2-L3" r4w2.Config.name

let test_executor_port_stalls () =
  let uncapped = Config.dual ~latency:3 in
  let capped = Config.k_cluster ~read_ports:2 ~write_ports:1 ~k:2 ~latency:3 () in
  let total_stalls = ref 0 in
  List.iter
    (fun ddg ->
      let free = Ncdrf_sim.Executor.run_clustered ~iterations:8
          (Modulo.schedule uncapped ddg)
      in
      let tight = Ncdrf_sim.Executor.run_clustered ~iterations:8
          (Modulo.schedule capped ddg)
      in
      check_int "no stalls without caps" 0 free.Ncdrf_sim.Executor.port_stalls;
      (* Stalls are lockstep accounting on top of the same issue
         sequence: results and reads are unchanged, cycles grow by
         exactly the stall count. *)
      check_bool "same stores" true
        (free.Ncdrf_sim.Executor.stores = tight.Ncdrf_sim.Executor.stores);
      check_int "same register reads" free.Ncdrf_sim.Executor.register_reads
        tight.Ncdrf_sim.Executor.register_reads;
      check_int "cycles grow by the stall count"
        (free.Ncdrf_sim.Executor.cycles + tight.Ncdrf_sim.Executor.port_stalls)
        tight.Ncdrf_sim.Executor.cycles;
      total_stalls := !total_stalls + tight.Ncdrf_sim.Executor.port_stalls)
    (digest_loops ());
  check_bool "tight caps stall somewhere" true (!total_stalls > 0)

let suite =
  [
    Alcotest.test_case "dual fixed-seed digest" `Quick test_dual_digest;
    Alcotest.test_case "k=4 fixed-seed digest" `Quick test_k4_digest;
    Alcotest.test_case "port-capped fixed-seed digest" `Quick test_port_capped_digest;
    QCheck_alcotest.to_alcotest prop_k2_is_dual;
    Alcotest.test_case "Shared classification at k=3" `Quick test_shared_classification;
    Alcotest.test_case "Shared replication in allocation" `Quick test_shared_allocation;
    Alcotest.test_case "port budgets key the fingerprint" `Quick
      test_fingerprint_port_budgets;
    Alcotest.test_case "executor port-stall accounting" `Quick test_executor_port_stalls;
  ]
