(* The failure taxonomy and its enforcement: classification of the
   legacy exception zoo, typed scheduler infeasibility, spiller
   divergence containment, deterministic fault injection, the suite's
   keep-going / fail-fast policies, and the property that the pipeline
   never leaks a raw exception. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_core
module Error = Ncdrf_error.Error
module Failures = Ncdrf_error.Failures
module Fault = Ncdrf_fault.Fault
module Pool = Ncdrf_parallel.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let category : Error.category Alcotest.testable =
  Alcotest.testable
    (fun ppf c -> Format.pp_print_string ppf (Error.category_name c))
    ( = )

(* ------------------------------------------------------------------ *)
(* Taxonomy and classification.                                        *)
(* ------------------------------------------------------------------ *)

let test_category_names () =
  let names = List.map Error.category_name Error.all_categories in
  check_int "ten categories" 10 (List.length names);
  check_int "names are distinct" 10 (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      check_bool ("lower snake case: " ^ n) true
        (String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '_') n))
    names

let test_classify_builtins () =
  let cat e = (Error.classify_exn ~stage:"pipeline" e).Error.category in
  Alcotest.check category "Failure -> Internal" Error.Internal (cat (Failure "boom"));
  Alcotest.check category "Invalid_argument -> Invalid_graph" Error.Invalid_graph
    (cat (Invalid_argument "index out of bounds"));
  Alcotest.check category "Stack_overflow -> Internal" Error.Internal (cat Stack_overflow);
  (* A classified error passes through, gaining missing context only. *)
  let inner = Error.make ~ii:9 ~stage:"alloc" Error.Alloc_infeasible "no capacity" in
  let out = Error.classify_exn ~stage:"pipeline" ~loop:"fir" (Error.Error inner) in
  Alcotest.check category "category preserved" Error.Alloc_infeasible out.Error.category;
  check_string "inner stage preserved" "alloc" out.Error.stage;
  Alcotest.(check (option string)) "loop context gained" (Some "fir") out.Error.loop;
  Alcotest.(check (option int)) "ii preserved" (Some 9) out.Error.ii;
  (* Registered classifiers: the loop language's parse errors. *)
  let pe = Ncdrf_ir.Loop_lang.Parse_error { file = None; line = 3; message = "bad" } in
  Alcotest.check category "Parse_error -> Parse" Error.Parse (cat pe)

let test_protect_and_boundary () =
  (match Error.protect ~stage:"test" (fun () -> 41 + 1) with
   | Ok v -> check_int "protect passes values" 42 v
   | Stdlib.Error e -> Alcotest.failf "unexpected failure: %s" (Error.to_string e));
  (match Error.protect ~stage:"test" ~loop:"l0" (fun () -> failwith "zoo") with
   | Ok _ -> Alcotest.fail "protect let a failure through"
   | Stdlib.Error e ->
     Alcotest.check category "classified" Error.Internal e.Error.category;
     Alcotest.(check (option string)) "loop attached" (Some "l0") e.Error.loop);
  match Error.boundary ~stage:"test" (fun () -> invalid_arg "graph") with
  | _ -> Alcotest.fail "boundary let a failure through"
  | exception Error.Error e ->
    Alcotest.check category "boundary re-raises classified" Error.Invalid_graph
      e.Error.category

let test_scheduler_infeasible_is_classified () =
  let ddg = Helpers.example_ddg () in
  let config = Helpers.example_config () in
  (* No II slack at all: the search range above MII is empty. *)
  match Ncdrf_sched.Modulo.schedule ~max_ii_slack:(-1) config ddg with
  | _ -> Alcotest.fail "empty II range scheduled"
  | exception Error.Error e ->
    Alcotest.check category "schedule infeasible" Error.Schedule_infeasible
      e.Error.category

(* ------------------------------------------------------------------ *)
(* Allocation dead-ends are typed, not failwith.                       *)
(* ------------------------------------------------------------------ *)

let test_alloc_infeasible () =
  let sched = Helpers.paper_schedule () in
  let lifetimes = Ncdrf_regalloc.Lifetime.of_schedule sched in
  check_bool "fixture has lifetimes" true (lifetimes <> []);
  (match Ncdrf_regalloc.Alloc.min_capacity ~upper:0 ~ii:1 lifetimes with
   | _ -> Alcotest.fail "capacity 0 allocated real lifetimes"
   | exception Error.Error e ->
     Alcotest.check category "min_capacity" Error.Alloc_infeasible e.Error.category;
     check_string "stage" "alloc" e.Error.stage);
  let globals, locals = Requirements.grouped_lifetimes sched in
  match Requirements.joint_requirement ~upper:0 ~ii:1 ~globals ~locals () with
  | _ -> Alcotest.fail "joint capacity 0 allocated real lifetimes"
  | exception Error.Error e ->
    Alcotest.check category "joint_requirement" Error.Alloc_infeasible e.Error.category

(* ------------------------------------------------------------------ *)
(* Spiller divergence is an outcome, not a hang or a raw exception.    *)
(* ------------------------------------------------------------------ *)

let test_spiller_divergence_terminates () =
  let ddg = Helpers.example_ddg () in
  let config = Helpers.example_config () in
  let requirement = Artifact.apply_model Model.Unified in
  (* Capacity 1 is unreachable; with the caps pulled in the spiller must
     give up quickly and report how far it got. *)
  let outcome =
    Ncdrf_spill.Spiller.run ~config ~requirement ~capacity:1 ~max_rounds:2
      ~max_ii_bumps:0 ddg
  in
  check_bool "does not fit" false outcome.Ncdrf_spill.Spiller.fits;
  check_bool "requirement still over" true (outcome.Ncdrf_spill.Spiller.requirement > 1);
  (match outcome.Ncdrf_spill.Spiller.error with
   | Some e ->
     Alcotest.check category "diverged" Error.Spill_diverged e.Error.category;
     check_string "stage" "spill" e.Error.stage;
     check_bool "round recorded" true (e.Error.round <> None)
   | None -> Alcotest.fail "unfit outcome without an error");
  (* The partial outcome is a usable schedule of the final graph. *)
  Helpers.check_valid "partial outcome" outcome.Ncdrf_spill.Spiller.schedule;
  (* A fitting run reports no error. *)
  let ok = Ncdrf_spill.Spiller.run ~config ~requirement ~capacity:64 ddg in
  check_bool "fits" true ok.Ncdrf_spill.Spiller.fits;
  check_bool "no error when fitting" true (ok.Ncdrf_spill.Spiller.error = None)

(* ------------------------------------------------------------------ *)
(* Fault injection.                                                    *)
(* ------------------------------------------------------------------ *)

let test_fault_spec_parsing () =
  (match Fault.parse "stage=schedule" with
   | Ok spec ->
     check_bool "round-trip names the stage" true
       (Helpers.contains (Fault.spec_to_string spec) "schedule")
   | Stdlib.Error msg -> Alcotest.failf "minimal spec rejected: %s" msg);
  (match Fault.parse "stage=spill,loop=fir.*,every=3" with
   | Ok _ -> ()
   | Stdlib.Error msg -> Alcotest.failf "full spec rejected: %s" msg);
  let rejected s =
    match Fault.parse s with
    | Ok _ -> Alcotest.failf "accepted bad spec %S" s
    | Stdlib.Error _ -> ()
  in
  rejected "stage=bogus";
  rejected "stage=mii";
  rejected "every=2";
  rejected "stage=spill,every=0";
  rejected "stage=spill,unknown=1";
  check_bool "schedule is a known stage" true (List.mem "schedule" Fault.stages)

let test_fault_selection_deterministic () =
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (match Fault.arm "stage=spill,loop=fir-.*" with
   | Ok () -> ()
   | Stdlib.Error msg -> Alcotest.failf "arm failed: %s" msg);
  check_bool "armed" true (Fault.armed ());
  check_bool "matching key fires" true (Fault.selects ~stage:"spill" ~key:"fir-8");
  check_bool "other stage does not" false (Fault.selects ~stage:"alloc" ~key:"fir-8");
  check_bool "regex is anchored" false (Fault.selects ~stage:"spill" ~key:"xfir-8");
  (match Fault.point ~stage:"spill" ~key:"fir-8" with
   | () -> Alcotest.fail "selected point did not raise"
   | exception Error.Error e ->
     Alcotest.check category "injected" Error.Injected e.Error.category;
     Alcotest.(check (option string)) "key is the loop" (Some "fir-8") e.Error.loop);
  Fault.point ~stage:"alloc" ~key:"fir-8";
  (* every=N is a pure function of the key: the fired set is identical
     across repeated sweeps whatever the evaluation order. *)
  (match Fault.arm "stage=spill,every=3" with
   | Ok () -> ()
   | Stdlib.Error msg -> Alcotest.failf "arm failed: %s" msg);
  let keys = List.init 60 (Printf.sprintf "loop-%02d") in
  let fired () = List.filter (fun k -> Fault.selects ~stage:"spill" ~key:k) keys in
  let first = fired () in
  check_bool "roughly 1 in 3" true (List.length first > 5 && List.length first < 40);
  Alcotest.(check (list string)) "same set on re-evaluation" first (fired ());
  Alcotest.(check (list string)) "same set reversed"
    first
    (List.rev (List.filter (fun k -> Fault.selects ~stage:"spill" ~key:k) (List.rev keys)));
  Fault.disarm ();
  check_bool "disarmed" false (Fault.armed ());
  Fault.point ~stage:"spill" ~key:"fir-8"

(* Injecting one fault removes exactly that point; every surviving
   loop's result is identical to the unfaulted run's. *)
let test_injection_isolates_the_faulted_point () =
  let config = Config.dual ~latency:3 in
  let loops =
    List.init 6 (fun i ->
        {
          Suite_stats.ddg =
            Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default
              ~seed:(1000 + i)
              ~name:(Printf.sprintf "gl%d" i);
          weight = 1.0;
        })
  in
  let project ms =
    List.map
      (fun m ->
        (Ddg.name m.Suite_stats.loop.Suite_stats.ddg, m.Suite_stats.requirement,
         m.Suite_stats.ii))
      ms
  in
  Artifact.clear_cache ();
  let baseline = project (Suite_stats.measure ~config ~model:Model.Unified loops) in
  check_int "all points compile unfaulted" 6 (List.length baseline);
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  (match Fault.arm "stage=schedule,loop=gl2" with
   | Ok () -> ()
   | Stdlib.Error msg -> Alcotest.failf "arm failed: %s" msg);
  Artifact.clear_cache ();
  let failures = Failures.create () in
  let survivors =
    project (Suite_stats.measure ~failures ~config ~model:Model.Unified loops)
  in
  check_int "one point recorded" 1 (Failures.count failures);
  (match Failures.list failures with
   | [ e ] ->
     Alcotest.check category "classified as injected" Error.Injected e.Error.category;
     Alcotest.(check (option string)) "the faulted loop" (Some "gl2") e.Error.loop
   | _ -> Alcotest.fail "expected exactly one failure");
  Alcotest.(check (list (triple string int int)))
    "survivors identical to the unfaulted run"
    (List.filter (fun (name, _, _) -> name <> "gl2") baseline)
    survivors

(* ------------------------------------------------------------------ *)
(* Failure collector policies.                                         *)
(* ------------------------------------------------------------------ *)

let some_failure ?(loop = "l") category =
  Error.make ~loop ~stage:"pipeline" category "synthetic"

let test_failures_keep_going () =
  let f = Failures.create () in
  Failures.record f (some_failure ~loop:"a" Error.Internal);
  Failures.record f (some_failure ~loop:"b" Error.Injected);
  Failures.record f (some_failure ~loop:"c" Error.Injected);
  check_int "all recorded" 3 (Failures.count f);
  Alcotest.(check (list string)) "record order"
    [ "a"; "b"; "c" ]
    (List.filter_map (fun e -> e.Error.loop) (Failures.list f));
  Alcotest.(check (list (pair string int)))
    "per-category counts"
    [ ("injected", 2); ("internal", 1) ]
    (Failures.by_category f);
  match Failures.to_csv_rows f with
  | header :: rows ->
    Alcotest.(check (list string)) "csv header"
      [ "loop"; "stage"; "category"; "ii"; "round"; "message" ]
      header;
    check_int "one row per failure" 3 (List.length rows)
  | [] -> Alcotest.fail "no csv header"

let test_failures_abort_policies () =
  let f = Failures.create ~fail_fast:true () in
  (match Failures.record f (some_failure Error.Internal) with
   | () -> Alcotest.fail "fail-fast did not abort"
   | exception Failures.Abort { recorded; reason; _ } ->
     check_int "aborts on the first" 1 recorded;
     check_string "reason" "fail-fast" reason);
  let f = Failures.create ~max_failures:2 () in
  Failures.record f (some_failure Error.Internal);
  Failures.record f (some_failure Error.Internal);
  match Failures.record f (some_failure Error.Internal) with
  | () -> Alcotest.fail "max-failures did not abort"
  | exception Failures.Abort { recorded; reason; _ } ->
    check_int "aborts past the threshold" 3 recorded;
    check_bool "reason names the limit" true (Helpers.contains reason "max-failures")

let test_pool_try_map_exn_preserves_exceptions () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let input = List.init 10 Fun.id in
      let label i = Printf.sprintf "item-%d" i in
      let f i = if i = 4 then raise (Error.Error (some_failure ~loop:"x" Error.Injected)) else i in
      let outcomes = Pool.try_map_exn pool ~label f input in
      check_int "all items settle" 10 (List.length outcomes);
      List.iteri
        (fun i outcome ->
          match outcome with
          | Ok v -> check_int "value" i v
          | Stdlib.Error (l, exn) ->
            check_int "only item 4 fails" 4 i;
            check_string "label preserved" (label 4) l;
            (match exn with
             | Error.Error e ->
               Alcotest.check category "exception value preserved" Error.Injected
                 e.Error.category
             | _ -> Alcotest.fail "exception identity lost across the pool"))
        outcomes)

(* ------------------------------------------------------------------ *)
(* Diagnostics carry their source position.                            *)
(* ------------------------------------------------------------------ *)

let test_parse_error_names_the_file () =
  let text = "loop broken\n  r1 = wat r2\nend\n" in
  (match Ncdrf_ir.Loop_lang.parse_string text with
   | _ -> Alcotest.fail "garbage parsed"
   | exception Ncdrf_ir.Loop_lang.Parse_error { file; _ } ->
     Alcotest.(check (option string)) "no file for strings" None file);
  let path = Filename.temp_file "ncdrf-robust" ".loop" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  match Ncdrf_ir.Loop_lang.parse_file path with
  | _ -> Alcotest.fail "garbage parsed from file"
  | exception Ncdrf_ir.Loop_lang.Parse_error { file; line; _ } ->
    Alcotest.(check (option string)) "file recorded" (Some path) file;
    check_bool "line recorded" true (line >= 1)

let test_csv_error_names_the_position () =
  match Ncdrf_report.Csv.parse_string "a,b\nc,\"oops" with
  | _ -> Alcotest.fail "unterminated quote accepted"
  | exception Ncdrf_report.Csv.Parse_error msg ->
    check_bool "position reported" true
      (Helpers.contains msg "opened at line 2, column 3")

let test_metrics_json_write_is_atomic () =
  let module T = Ncdrf_telemetry.Telemetry in
  let path = Filename.temp_file "ncdrf-metrics" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* Overwriting pre-existing garbage must leave only valid content and
     no temp droppings next to it. *)
  let oc = open_out path in
  output_string oc "{ truncated garbage";
  close_out oc;
  T.write_json ~path (T.Json.Obj [ ("ok", T.Json.Int 1) ]);
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_bool "replaced with valid json" true (Helpers.contains content "\"ok\": 1");
  check_bool "no garbage left" false (Helpers.contains content "truncated");
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let droppings =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> f <> base && Helpers.contains f base)
  in
  Alcotest.(check (list string)) "no temp files left behind" [] droppings

(* ------------------------------------------------------------------ *)
(* Property: the pipeline never leaks a raw exception.                 *)
(* ------------------------------------------------------------------ *)

let prop_pipeline_failures_are_classified =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 20_000) in
  QCheck.Test.make ~count:12 ~name:"random loops fail classified or not at all" arb
    (fun seed ->
      let ddg =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default ~seed
          ~name:(Printf.sprintf "q%d" seed)
      in
      let config = Config.dual ~latency:3 in
      List.for_all
        (fun model ->
          List.for_all
            (fun capacity ->
              match Pipeline.run ~config ~model ?capacity ddg with
              | stats ->
                (* Soft degradation keeps its invariant: an error is
                   present exactly when the loop does not fit. *)
                stats.Pipeline.fits = (stats.Pipeline.error = None)
              | exception Error.Error _ -> true
              | exception e ->
                QCheck.Test.fail_reportf "raw exception leaked: %s"
                  (Printexc.to_string e))
            [ None; Some 6 ])
        Model.all)

let suite =
  [
    Alcotest.test_case "category names are stable keys" `Quick test_category_names;
    Alcotest.test_case "legacy exceptions classify" `Quick test_classify_builtins;
    Alcotest.test_case "protect and boundary contain" `Quick test_protect_and_boundary;
    Alcotest.test_case "scheduler infeasibility is typed" `Quick
      test_scheduler_infeasible_is_classified;
    Alcotest.test_case "allocation dead-ends are typed" `Quick test_alloc_infeasible;
    Alcotest.test_case "spiller divergence terminates with a partial outcome" `Quick
      test_spiller_divergence_terminates;
    Alcotest.test_case "fault spec parsing" `Quick test_fault_spec_parsing;
    Alcotest.test_case "fault selection is deterministic" `Quick
      test_fault_selection_deterministic;
    Alcotest.test_case "injection isolates the faulted point" `Quick
      test_injection_isolates_the_faulted_point;
    Alcotest.test_case "failure collector keeps going" `Quick test_failures_keep_going;
    Alcotest.test_case "fail-fast and max-failures abort" `Quick
      test_failures_abort_policies;
    Alcotest.test_case "pool try_map_exn preserves exception values" `Quick
      test_pool_try_map_exn_preserves_exceptions;
    Alcotest.test_case "loop parse errors name the file" `Quick
      test_parse_error_names_the_file;
    Alcotest.test_case "csv parse errors name the position" `Quick
      test_csv_error_names_the_position;
    Alcotest.test_case "metrics json writes are atomic" `Quick
      test_metrics_json_write_is_atomic;
    QCheck_alcotest.to_alcotest prop_pipeline_failures_are_classified;
  ]
