(* Unit tests for the IR: opcodes, graphs, the expression DSL, the loop
   language, spill-pattern cleanup and the generic graph algorithms. *)

open Ncdrf_ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Opcode --- *)

let test_fu_classes () =
  check_bool "fadd is adder" true (Opcode.fu_class Opcode.Fadd = Opcode.Adder);
  check_bool "fsub is adder" true (Opcode.fu_class Opcode.Fsub = Opcode.Adder);
  check_bool "fcvt is adder" true (Opcode.fu_class Opcode.Fcvt = Opcode.Adder);
  check_bool "fmul is multiplier" true (Opcode.fu_class Opcode.Fmul = Opcode.Multiplier);
  check_bool "fdiv is multiplier" true (Opcode.fu_class Opcode.Fdiv = Opcode.Multiplier);
  check_bool "load is memory" true
    (Opcode.fu_class (Opcode.Load (Opcode.Array "x")) = Opcode.Memory);
  check_bool "store is memory" true
    (Opcode.fu_class (Opcode.Store (Opcode.Array "x")) = Opcode.Memory)

let test_opcode_predicates () =
  check_bool "store produces no value" false
    (Opcode.produces_value (Opcode.Store (Opcode.Array "x")));
  check_bool "load produces a value" true
    (Opcode.produces_value (Opcode.Load (Opcode.Array "x")));
  check_bool "spill load" true (Opcode.is_spill_load (Opcode.Load (Opcode.Spill 0)));
  check_bool "array load is not a spill load" false
    (Opcode.is_spill_load (Opcode.Load (Opcode.Array "x")));
  check_bool "spill store is not a spill load" false
    (Opcode.is_spill_load (Opcode.Store (Opcode.Spill 0)))

(* --- Ddg --- *)

let diamond () =
  let b = Ddg.Builder.create ~name:"diamond" in
  let n op l = Ddg.Builder.add_node b op ~label:l in
  let a = n (Opcode.Load (Opcode.Array "x")) "a" in
  let l = n Opcode.Fadd "l" in
  let r = n Opcode.Fmul "r" in
  let s = n (Opcode.Store (Opcode.Array "y")) "s" in
  let e src dst = Ddg.Builder.add_edge b ~src ~dst ~distance:0 Ddg.Flow in
  e a l;
  e a r;
  e l s;
  (* r's value is dead on purpose *)
  (b, (a, l, r, s))

let test_builder_and_accessors () =
  let b, (a, l, r, s) = diamond () in
  let g = Ddg.Builder.freeze b in
  check_int "nodes" 4 (Ddg.num_nodes g);
  check_int "edges" 3 (Ddg.num_edges g);
  check_int "succs of a" 2 (List.length (Ddg.succs g a));
  check_int "preds of s" 1 (List.length (Ddg.preds g s));
  check_int "consumers of a" 2 (List.length (Ddg.consumers g a));
  check_int "consumers of r" 0 (List.length (Ddg.consumers g r));
  check_bool "validate" true (Ddg.validate g = Ok ());
  check_int "loads" 1 (Ddg.num_loads g);
  check_int "stores" 1 (Ddg.num_stores g);
  check_int "memops" 2 (Ddg.num_memory_ops g);
  ignore l

let test_zero_distance_cycle_rejected () =
  let b = Ddg.Builder.create ~name:"cycle" in
  let n op l = Ddg.Builder.add_node b op ~label:l in
  let x = n Opcode.Fadd "x" in
  let y = n Opcode.Fmul "y" in
  Ddg.Builder.add_edge b ~src:x ~dst:y ~distance:0 Ddg.Flow;
  Ddg.Builder.add_edge b ~src:y ~dst:x ~distance:0 Ddg.Flow;
  let g = Ddg.Builder.freeze b in
  match Ddg.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero-distance cycle accepted"

let test_carried_cycle_accepted () =
  let b = Ddg.Builder.create ~name:"recurrence" in
  let n op l = Ddg.Builder.add_node b op ~label:l in
  let x = n Opcode.Fadd "x" in
  let y = n Opcode.Fmul "y" in
  Ddg.Builder.add_edge b ~src:x ~dst:y ~distance:0 Ddg.Flow;
  Ddg.Builder.add_edge b ~src:y ~dst:x ~distance:1 Ddg.Flow;
  check_bool "valid" true (Ddg.validate (Ddg.Builder.freeze b) = Ok ())

let test_flow_out_of_store_rejected () =
  let b = Ddg.Builder.create ~name:"bad-flow" in
  let n op l = Ddg.Builder.add_node b op ~label:l in
  let s = n (Opcode.Store (Opcode.Array "x")) "s" in
  let a = n Opcode.Fadd "a" in
  Ddg.Builder.add_edge b ~src:s ~dst:a ~distance:0 Ddg.Flow;
  match Ddg.validate (Ddg.Builder.freeze b) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "flow edge out of a store accepted"

let test_builder_rejects_bad_edges () =
  let b = Ddg.Builder.create ~name:"bad" in
  let x = Ddg.Builder.add_node b Opcode.Fadd ~label:"x" in
  (try
     Ddg.Builder.add_edge b ~src:x ~dst:99 ~distance:0 Ddg.Flow;
     Alcotest.fail "out-of-range edge accepted"
   with Invalid_argument _ -> ());
  try
    Ddg.Builder.add_edge b ~src:x ~dst:x ~distance:(-1) Ddg.Flow;
    Alcotest.fail "negative distance accepted"
  with Invalid_argument _ -> ()

let test_transform_add_and_drop () =
  let b, (a, l, _r, s) = diamond () in
  let g = Ddg.Builder.freeze b in
  (* Drop a->l, reroute a -> new node -> l. *)
  let n = Ddg.num_nodes g in
  let g' =
    Ddg.transform g
      ~drop_edge:(fun e -> e.Ddg.src = a && e.Ddg.dst = l)
      ~add_nodes:[ (Opcode.Fadd, "mid") ]
      ~add_edges:
        [
          { Ddg.src = a; dst = n; distance = 0; kind = Ddg.Flow };
          { Ddg.src = n; dst = l; distance = 0; kind = Ddg.Flow };
        ]
      ()
  in
  check_int "one more node" (n + 1) (Ddg.num_nodes g');
  check_int "one more edge" (Ddg.num_edges g + 1) (Ddg.num_edges g');
  check_bool "still valid" true (Ddg.validate g' = Ok ());
  ignore s

let test_expr_example_structure () =
  let open Expr in
  let g =
    compile ~name:"ex"
      [ Store ("z", ((load "x" * inv "r") + load "y") * inv "t" + load "x") ]
  in
  (* CSE must share the two x(i) loads: 2 loads + 2 muls... the outer
     expression is ((x*r + y) * t) + x: nodes = Lx, Ly, M, A, M, A, S. *)
  check_int "nodes" 7 (Ddg.num_nodes g);
  check_int "loads" 2 (Ddg.num_loads g);
  check_bool "valid" true (Ddg.validate g = Ok ())

let test_expr_cse_shares_subexpressions () =
  let open Expr in
  let g =
    compile ~name:"cse"
      [
        Store ("o1", (load "a" + load "b") * inv "k");
        Store ("o2", (load "a" + load "b") * inv "j");
      ]
  in
  (* a, b, shared add, two muls, two stores = 7 nodes. *)
  check_int "nodes" 7 (Ddg.num_nodes g)

let test_expr_recurrence_distance () =
  let open Expr in
  let g =
    compile ~name:"rec" [ Def ("s", prev ~distance:3 "s" + load "x"); Store ("o", ref_ "s") ]
  in
  let carried =
    List.filter (fun e -> e.Ddg.distance = 3) (Ddg.edges g)
  in
  check_int "one carried edge" 1 (List.length carried);
  check_bool "valid" true (Ddg.validate g = Ok ())

let test_expr_errors () =
  let open Expr in
  let expect_error name stmts =
    try
      ignore (compile ~name stmts);
      Alcotest.failf "%s: no error raised" name
    with Compile_error _ -> ()
  in
  expect_error "unknown prev" [ Store ("o", prev "nope") ];
  expect_error "bad distance" [ Def ("s", prev ~distance:0 "s" + load "x") ];
  expect_error "double def" [ Def ("s", load "x"); Def ("s", load "y") ];
  expect_error "invariant def" [ Def ("s", inv "r") ];
  expect_error "use before def" [ Store ("o", ref_ "s"); Def ("s", load "x") ]

let test_expr_select_compiles () =
  let open Expr in
  let g =
    compile ~name:"sel" [ Store ("o", select (load "p") (load "a") (load "b")) ]
  in
  (* 3 loads + 1 select + 1 store. *)
  check_int "nodes" 5 (Ddg.num_nodes g);
  let sel = List.find (fun n -> n.Ddg.opcode = Opcode.Fselect) (Ddg.nodes g) in
  check_int "three operands" 3 (List.length (Ddg.preds g sel.Ddg.id));
  check_bool "select runs on the adders" true
    (Opcode.fu_class Opcode.Fselect = Opcode.Adder);
  check_bool "valid" true (Ddg.validate g = Ok ())

(* --- Loop language --- *)

let parse_one text =
  match Loop_lang.parse_string text with
  | [ g ] -> g
  | gs -> Alcotest.failf "expected one loop, parsed %d" (List.length gs)

let test_loop_lang_parses_example () =
  let text =
    {|
-- the paper's worked example
loop example
  z[i] = (x[i] * $r + y[i]) * $t + x[i]
|}
  in
  let g = parse_one text in
  check_string "name" "example" (Ddg.name g);
  check_int "nodes" 7 (Ddg.num_nodes g);
  check_bool "valid" true (Ddg.validate g = Ok ())

let test_loop_lang_recurrence_and_defs () =
  let text =
    {|
loop tridiag
  x = z[i] * (y[i] - prev(x, 1))
  xout[i] = x
|}
  in
  let g = parse_one text in
  check_bool "has carried edge" true
    (List.exists (fun e -> e.Ddg.distance = 1) (Ddg.edges g));
  check_int "nodes" 5 (Ddg.num_nodes g)

let test_loop_lang_multiple_loops () =
  let text = "loop a\n  o[i] = x[i] + 1.0\nloop b\n  o[i] = x[i] * x[i]\n" in
  match Loop_lang.parse_string text with
  | [ ga; gb ] ->
    check_string "first" "a" (Ddg.name ga);
    check_string "second" "b" (Ddg.name gb)
  | other -> Alcotest.failf "expected 2 loops, got %d" (List.length other)

let test_loop_lang_select () =
  let g =
    parse_one "loop ifconv\n  o[i] = select(x[i] - $t, x[i], 0.0 * x[i])\n"
  in
  check_bool "has a select node" true
    (List.exists (fun n -> n.Ddg.opcode = Opcode.Fselect) (Ddg.nodes g));
  check_bool "valid" true (Ddg.validate g = Ok ())

let test_loop_lang_operators_and_unary_minus () =
  let g = parse_one "loop ops\n  o[i] = -x[i] / (y[i] - 2.0) + cvt(n[i])\n" in
  check_bool "valid" true (Ddg.validate g = Ok ());
  (* -x is 0-x: sub, div, sub, add, cvt + 3 loads + store = 9 *)
  check_int "nodes" 9 (Ddg.num_nodes g)

let test_loop_lang_errors () =
  let expect_error text =
    try
      ignore (Loop_lang.parse_string text);
      Alcotest.failf "no parse error for %S" text
    with Loop_lang.Parse_error _ -> ()
  in
  expect_error "o[i] = x[i]\n";
  (* statement before any loop *)
  expect_error "loop a\n  o[i] = x[i] +\n";
  expect_error "loop a\n  o[j] = x[i]\n";
  expect_error "loop a\n  o[i] = x[i] ^ 2\n";
  expect_error "loop\n"

(* --- Dot --- *)

let test_dot_render_mentions_nodes () =
  let g = Helpers.example_ddg () in
  let dot = Dot.render g in
  List.iter (fun l -> check_bool l true (Helpers.contains dot l)) [ "L1"; "M3"; "S7"; "digraph" ]

(* --- Graph algorithms --- *)

let test_scc_triangle () =
  let succs = function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 0 ] | _ -> [] in
  let comps = Graph_algos.scc ~num_nodes:4 ~succs in
  let sizes = List.sort compare (List.map List.length comps) in
  check_bool "one scc of 3 + singleton" true (sizes = [ 1; 3 ])

let test_scc_topological_order () =
  (* {0,1} -> {2} -> {3,4}: sources must come first. *)
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 0; 2 ]
    | 2 -> [ 3 ]
    | 3 -> [ 4 ]
    | 4 -> [ 3 ]
    | _ -> []
  in
  let comps = Graph_algos.scc ~num_nodes:5 ~succs in
  let normalized = List.map (List.sort compare) comps in
  check_bool "topological condensation" true (normalized = [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ])

let test_elementary_circuits () =
  (* Two triangles sharing node 0: 0-1-2 and 0-3-4, plus a self loop. *)
  let succs = function
    | 0 -> [ 1; 3 ]
    | 1 -> [ 2 ]
    | 2 -> [ 0 ]
    | 3 -> [ 4 ]
    | 4 -> [ 0; 4 ]
    | _ -> []
  in
  let circuits = Mii_reference.elementary_circuits ~num_nodes:5 ~succs in
  check_int "three circuits" 3 (List.length circuits)

let test_longest_paths_and_positive_cycle () =
  let edges = [ (0, 1, 2); (1, 2, 3); (0, 2, 1) ] in
  (match Graph_algos_reference.longest_paths ~num_nodes:3 ~edges ~sources:[ 0 ] with
   | Some dist ->
     check_int "dist to 2" 5 dist.(2);
     check_int "dist to 1" 2 dist.(1)
   | None -> Alcotest.fail "unexpected positive cycle");
  check_bool "positive cycle found" true
    (Graph_algos_reference.has_positive_cycle ~num_nodes:2 ~edges:[ (0, 1, 1); (1, 0, 0) ]);
  check_bool "non-positive cycle ok" false
    (Graph_algos_reference.has_positive_cycle ~num_nodes:2 ~edges:[ (0, 1, 1); (1, 0, -1) ])

let suite =
  [
    Alcotest.test_case "opcode fu classes" `Quick test_fu_classes;
    Alcotest.test_case "opcode predicates" `Quick test_opcode_predicates;
    Alcotest.test_case "builder and accessors" `Quick test_builder_and_accessors;
    Alcotest.test_case "zero-distance cycle rejected" `Quick test_zero_distance_cycle_rejected;
    Alcotest.test_case "carried cycle accepted" `Quick test_carried_cycle_accepted;
    Alcotest.test_case "flow out of store rejected" `Quick test_flow_out_of_store_rejected;
    Alcotest.test_case "builder rejects bad edges" `Quick test_builder_rejects_bad_edges;
    Alcotest.test_case "transform adds and drops" `Quick test_transform_add_and_drop;
    Alcotest.test_case "expr: example structure" `Quick test_expr_example_structure;
    Alcotest.test_case "expr: CSE shares subexpressions" `Quick
      test_expr_cse_shares_subexpressions;
    Alcotest.test_case "expr: recurrence distance" `Quick test_expr_recurrence_distance;
    Alcotest.test_case "expr: errors" `Quick test_expr_errors;
    Alcotest.test_case "expr: select" `Quick test_expr_select_compiles;
    Alcotest.test_case "loop lang: select" `Quick test_loop_lang_select;
    Alcotest.test_case "loop lang: example" `Quick test_loop_lang_parses_example;
    Alcotest.test_case "loop lang: recurrences and defs" `Quick
      test_loop_lang_recurrence_and_defs;
    Alcotest.test_case "loop lang: multiple loops" `Quick test_loop_lang_multiple_loops;
    Alcotest.test_case "loop lang: operators" `Quick
      test_loop_lang_operators_and_unary_minus;
    Alcotest.test_case "loop lang: errors" `Quick test_loop_lang_errors;
    Alcotest.test_case "dot render" `Quick test_dot_render_mentions_nodes;
    Alcotest.test_case "scc" `Quick test_scc_triangle;
    Alcotest.test_case "scc topological order" `Quick test_scc_topological_order;
    Alcotest.test_case "elementary circuits" `Quick test_elementary_circuits;
    Alcotest.test_case "longest paths / positive cycles" `Quick
      test_longest_paths_and_positive_cycle;
  ]
