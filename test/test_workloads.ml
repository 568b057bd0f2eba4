(* Tests for the kernel collection, the random generator and the suite. *)

open Ncdrf_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_all_kernels_validate () =
  let kernels = Ncdrf_workloads.Kernels.all () in
  check_bool "at least 25 kernels" true (List.length kernels >= 25);
  List.iter
    (fun (g, weight) ->
      (match Ddg.validate g with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "%s: %s" (Ddg.name g) msg);
      check_bool (Ddg.name g ^ " weight positive") true (weight > 0.0))
    kernels

let test_kernel_names_unique () =
  let names = List.map (fun (g, _) -> Ddg.name g) (Ncdrf_workloads.Kernels.all ()) in
  let sorted = List.sort_uniq compare names in
  check_int "no duplicate names" (List.length names) (List.length sorted)

let test_find () =
  check_bool "finds daxpy" true (Ncdrf_workloads.Kernels.find "daxpy" <> None);
  check_bool "misses bogus" true (Ncdrf_workloads.Kernels.find "bogus" = None)

let test_paper_example_shape () =
  let g = Ncdrf_workloads.Kernels.paper_example () in
  check_int "7 ops" 7 (Ddg.num_nodes g);
  check_int "7 deps" 7 (Ddg.num_edges g);
  check_int "2 loads" 2 (Ddg.num_loads g);
  check_int "1 store" 1 (Ddg.num_stores g)

let test_generator_deterministic () =
  let params = Ncdrf_workloads.Generator.default in
  let a = Ncdrf_workloads.Generator.generate params ~seed:7 ~name:"d" in
  let b = Ncdrf_workloads.Generator.generate params ~seed:7 ~name:"d" in
  check_int "same nodes" (Ddg.num_nodes a) (Ddg.num_nodes b);
  check_int "same edges" (Ddg.num_edges a) (Ddg.num_edges b);
  let ops g = List.map (fun n -> Opcode.to_string n.Ddg.opcode) (Ddg.nodes g) in
  check_bool "same opcodes" true (ops a = ops b);
  let c = Ncdrf_workloads.Generator.generate params ~seed:8 ~name:"d" in
  check_bool "different seed differs" true
    (Ddg.num_nodes a <> Ddg.num_nodes c || ops a <> ops c)

let test_generator_respects_bounds () =
  let params = { Ncdrf_workloads.Generator.default with min_ops = 10; max_ops = 14 } in
  for seed = 0 to 40 do
    let g = Ncdrf_workloads.Generator.generate params ~seed ~name:"b" in
    (* Sink stores can push the count past max_ops, but the base ops obey
       the bounds; allow the documented slack. *)
    check_bool "lower bound" true (Ddg.num_nodes g >= 10);
    check_bool "validates" true (Ddg.validate g = Ok ())
  done

let test_generator_produces_recurrences () =
  let params = { Ncdrf_workloads.Generator.heavy with recurrence_prob = 0.5 } in
  let carried = ref 0 in
  for seed = 0 to 20 do
    let g = Ncdrf_workloads.Generator.generate params ~seed ~name:"r" in
    if List.exists (fun e -> e.Ddg.distance > 0) (Ddg.edges g) then incr carried
  done;
  check_bool "most seeds have carried deps" true (!carried >= 15)

let test_suite_size_and_determinism () =
  let s1 = Ncdrf_workloads.Suite.full ~size:100 ~seed:1 () in
  let s2 = Ncdrf_workloads.Suite.full ~size:100 ~seed:1 () in
  check_int "size" 100 (List.length s1);
  (* Below the 48 named kernels the suite is their prefix. *)
  List.iter
    (fun size ->
      check_int (Printf.sprintf "size %d" size) size
        (List.length (Ncdrf_workloads.Suite.full ~size ())))
    [ 0; 1; 10; 48; 49 ];
  let weights e = List.map (fun x -> x.Ncdrf_workloads.Suite.iterations) e in
  check_bool "deterministic weights" true (weights s1 = weights s2);
  List.iter
    (fun e ->
      check_bool "validates" true (Ddg.validate e.Ncdrf_workloads.Suite.ddg = Ok ()))
    s1

let test_suite_heavy_tail () =
  let s = Ncdrf_workloads.Suite.full ~size:300 ~seed:42 () in
  let share = Ncdrf_workloads.Suite.weight_share s ~n:30 in
  (* Top 10% of loops should carry a disproportionate share of the
     execution time. *)
  check_bool "top 30 loops exceed 30% of time" true (share > 0.3)

let test_suite_names_unique () =
  let s = Ncdrf_workloads.Suite.full ~size:200 ~seed:3 () in
  let names = List.map (fun e -> Ddg.name e.Ncdrf_workloads.Suite.ddg) s in
  check_int "unique" (List.length names) (List.length (List.sort_uniq compare names))

let suite =
  [
    Alcotest.test_case "kernels validate" `Quick test_all_kernels_validate;
    Alcotest.test_case "kernel names unique" `Quick test_kernel_names_unique;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "paper example shape" `Quick test_paper_example_shape;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator respects bounds" `Quick test_generator_respects_bounds;
    Alcotest.test_case "generator produces recurrences" `Quick
      test_generator_produces_recurrences;
    Alcotest.test_case "suite size and determinism" `Quick test_suite_size_and_determinism;
    Alcotest.test_case "suite heavy tail" `Quick test_suite_heavy_tail;
    Alcotest.test_case "suite names unique" `Quick test_suite_names_unique;
  ]
