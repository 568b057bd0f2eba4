(* Tests for MII computation, the iterative modulo scheduler, kernel
   extraction/rendering and the push-late repair pass.  Includes qcheck
   properties over randomly generated loops. *)

open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tridiag () =
  match Ncdrf_workloads.Kernels.find "ll5-tridiag" with
  | Some g -> g
  | None -> Alcotest.fail "kernel missing"

(* --- MII --- *)

let test_res_mii_example () =
  (* Example machine: 2 adders, 2 muls, 4 LS; graph has 2/2/3. *)
  check_int "example" 1 (Mii.res_mii (Config.example ()) (Helpers.example_ddg ()));
  (* Dual has only 2 LS units for 3 memory ops: ResMII 2. *)
  check_int "dual" 2 (Mii.res_mii (Config.dual ~latency:3) (Helpers.example_ddg ()))

let test_res_mii_port_caps () =
  (* sum-8: 8 loads, 7 adds, 1 store.  On P1L3 the single adder binds
     (7); on a machine with plenty of adders the 2 load ports bind
     (ceil 8/2 = 4). *)
  let g =
    match Ncdrf_workloads.Kernels.find "sum-8" with
    | Some g -> g
    | None -> Alcotest.fail "kernel missing"
  in
  check_int "adder binds on P1L3" 7 (Mii.res_mii (Config.pxly ~parallelism:1 ~latency:3) g);
  let wide =
    Config.make ~name:"wide"
      ~clusters:[| { Config.adders = 8; multipliers = 1; ls_units = 9; read_ports = None; write_ports = None } |]
      ~add_latency:3 ~mul_latency:3 ~load_ports:2 ~store_ports:1 ()
  in
  check_int "load ports bind" 4 (Mii.res_mii wide g)

let test_rec_mii_acyclic () =
  check_int "acyclic" 1 (Mii.rec_mii (Config.dual ~latency:6) (Helpers.example_ddg ()))

let test_rec_mii_tridiag () =
  (* LL5 cycle: sub -> mul -> sub (distance 1).  Latency 3 each: RecMII
     = 6; at latency 6: 12. *)
  check_int "latency 3" 6 (Mii.rec_mii (Config.dual ~latency:3) (tridiag ()));
  check_int "latency 6" 12 (Mii.rec_mii (Config.dual ~latency:6) (tridiag ()))

let test_rec_mii_matches_circuits () =
  let configs = [ Config.dual ~latency:3; Config.dual ~latency:6 ] in
  let kernels = Ncdrf_workloads.Kernels.all () in
  List.iter
    (fun cfg ->
      List.iter
        (fun (g, _) ->
          let bs = Mii.rec_mii cfg g in
          let circ = Mii_reference.rec_mii_by_circuits cfg g in
          if bs <> circ then
            Alcotest.failf "%s on %s: binary-search %d <> circuits %d" (Ddg.name g)
              cfg.Config.name bs circ)
        kernels)
    configs

let test_distance2_recurrence_halves_recmii () =
  let g =
    match Ncdrf_workloads.Kernels.find "recurrence-d2" with
    | Some g -> g
    | None -> Alcotest.fail "kernel missing"
  in
  (* s = s(i-2) + x: one adder op of latency L in a distance-2 cycle:
     RecMII = ceil(L/2). *)
  check_int "latency 3" 2 (Mii.rec_mii (Config.dual ~latency:3) g);
  check_int "latency 6" 3 (Mii.rec_mii (Config.dual ~latency:6) g)

(* --- Modulo scheduler --- *)

let test_example_schedules_at_ii_1 () =
  let sched = Modulo.schedule (Config.example ()) (Helpers.example_ddg ()) in
  check_int "II" 1 (Schedule.ii sched);
  check_int "stages" 14 (Schedule.stages sched);
  Helpers.check_valid "example" sched

let test_schedules_are_valid_on_kernel_zoo () =
  let kernels = Ncdrf_workloads.Kernels.all () in
  List.iter
    (fun cfg ->
      List.iter
        (fun (g, _) ->
          let sched = Modulo.schedule cfg g in
          Helpers.check_valid (Ddg.name g ^ " on " ^ cfg.Config.name) sched;
          let mii = Mii.mii cfg g in
          if Schedule.ii sched < mii then
            Alcotest.failf "%s: II %d below MII %d" (Ddg.name g) (Schedule.ii sched) mii)
        kernels)
    (Helpers.configs ())

let test_schedule_achieves_mii_mostly () =
  (* IMS should reach MII on the overwhelming majority of these simple
     kernels; allow a couple of exceptions. *)
  let cfg = Config.dual ~latency:3 in
  let misses =
    List.fold_left
      (fun acc (g, _) ->
        let sched = Modulo.schedule cfg g in
        if Schedule.ii sched > Mii.mii cfg g then acc + 1 else acc)
      0
      (Ncdrf_workloads.Kernels.all ())
  in
  check_bool "at most 2 misses" true (misses <= 2)

let test_normalize_starts_at_zero () =
  let sched = Modulo.schedule (Config.dual ~latency:3) (Helpers.example_ddg ()) in
  check_int "first cycle" 0 (Array.fold_left min max_int sched.Schedule.cycles)

let test_schedule_make_validations () =
  let ddg = Helpers.example_ddg () in
  let config = Config.example () in
  (try
     ignore (Schedule.make ~config ~ii:0 ~placements:[||] ddg);
     Alcotest.fail "ii 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Schedule.make ~config ~ii:1
         ~placements:(Array.make 3 { Schedule.cycle = 0; cluster = 0 })
         ddg);
    Alcotest.fail "wrong placement count accepted"
  with Invalid_argument _ -> ()

let test_validate_catches_violations () =
  let sched = Helpers.paper_schedule () in
  let ddg = sched.Schedule.ddg in
  let m3 = Helpers.node_by_label ddg "M3" in
  let broken =
    let placements = Array.copy (Schedule.placements sched) in
    placements.(m3.Ddg.id) <- { Schedule.cycle = 0; cluster = 0 };
    (* M3 at cycle 0 issues before L1's result is ready. *)
    Schedule.make ~config:sched.Schedule.config ~ii:1 ~placements ddg
  in
  match Schedule.validate broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dependence violation accepted"

let test_validate_catches_resource_overflow () =
  (* Dual machine: 1 adder per cluster; put two adds of the same slot in
     cluster 0. *)
  let open Expr in
  let g = compile ~name:"two-adds" [ Store ("o", (load "a" + inv "x") + inv "y") ] in
  let config = Config.dual ~latency:3 in
  let n = Ddg.num_nodes g in
  (* load 0, add1 1, add2 2, store 3 *)
  let placements =
    Array.init n (fun v ->
        match v with
        | 0 -> { Schedule.cycle = 0; cluster = 0 }
        | 1 -> { Schedule.cycle = 1; cluster = 0 }
        | 2 -> { Schedule.cycle = 4; cluster = 0 }
        | _ -> { Schedule.cycle = 7; cluster = 1 })
  in
  let sched = Schedule.make ~config ~ii:1 ~placements g in
  match Schedule.validate sched with
  | Error msg -> check_bool "mentions resources" true (Helpers.contains msg "resource")
  | Ok () -> Alcotest.fail "resource overflow accepted"

let test_min_ii_forcing () =
  let cfg = Config.dual ~latency:3 in
  let g = Helpers.example_ddg () in
  let sched = Modulo.schedule_with_min_ii ~min_ii:5 cfg g in
  check_bool "II at least 5" true (Schedule.ii sched >= 5);
  Helpers.check_valid "forced II" sched

(* --- Kernel rendering --- *)

let test_kernel_extract_example () =
  let sched = Helpers.paper_schedule () in
  let kernel = Kernel.extract sched in
  check_int "rows" 1 (Array.length kernel.Kernel.rows);
  check_int "ops in row" 7 (List.length kernel.Kernel.rows.(0));
  let stages = List.map (fun s -> s.Kernel.stage) kernel.Kernel.rows.(0) in
  check_bool "stage 13 present (S7)" true (List.mem 13 stages);
  check_bool "stage 0 present (L1)" true (List.mem 0 stages)

let test_kernel_render_mentions_all_ops () =
  let sched = Helpers.paper_schedule () in
  let text = Kernel.render sched in
  List.iter
    (fun l -> check_bool l true (Helpers.contains text l))
    [ "L1"; "L2"; "M3"; "A4"; "M5"; "A6"; "S7"; "[13]" ];
  let table = Kernel.render_schedule_table sched in
  check_bool "table has stages" true (Helpers.contains table "stage")

(* --- Push late --- *)

let test_push_late_moves_only_eligible () =
  let sched = Modulo.schedule (Config.example ()) (Helpers.example_ddg ()) in
  let adjusted =
    Modulo.schedule_late ~late:(fun _ -> false) ~min_ii:1 (Config.example ())
      (Helpers.example_ddg ())
  in
  let same =
    Ddg.fold_nodes sched.Schedule.ddg ~init:true ~f:(fun acc n ->
        acc
        && Schedule.cycle sched n.Ddg.id = Schedule.cycle adjusted n.Ddg.id
        && Schedule.cluster sched n.Ddg.id = Schedule.cluster adjusted n.Ddg.id)
  in
  check_bool "nothing moved" true same

let test_push_late_shrinks_load_lifetime () =
  (* A load consumed very late: pushing it down must shrink its
     lifetime and stay valid. *)
  let open Expr in
  let g =
    compile ~name:"late-use"
      [
        Def ("chain", (((load "x" * inv "a") + inv "b") * inv "c") + inv "d");
        Store ("o", ref_ "chain" + load "y");
      ]
  in
  let cfg = Config.dual ~latency:6 in
  let sched = Modulo.schedule cfg g in
  let is_y_op = function Opcode.Load (Opcode.Array "y") -> true | _ -> false in
  let is_y n = is_y_op n.Ddg.opcode in
  let adjusted = Modulo.schedule_late ~late:is_y_op ~min_ii:1 cfg g in
  Helpers.check_valid "adjusted" adjusted;
  let lifetime_len s =
    let y = List.find is_y (Ddg.nodes g) in
    let l =
      List.find
        (fun l -> l.Ncdrf_regalloc.Lifetime.producer = y.Ddg.id)
        (Ncdrf_regalloc.Lifetime.of_schedule s)
    in
    Ncdrf_regalloc.Lifetime.length l
  in
  check_bool "lifetime did not grow" true (lifetime_len adjusted <= lifetime_len sched)

(* --- qcheck properties over generated loops --- *)

let generated_ddg =
  QCheck.make
    ~print:(fun (seed, heavy) -> Printf.sprintf "seed=%d heavy=%b" seed heavy)
    QCheck.Gen.(pair (int_bound 100_000) bool)

let ddg_of (seed, is_heavy) =
  let params =
    if is_heavy then Ncdrf_workloads.Generator.heavy else Ncdrf_workloads.Generator.default
  in
  Ncdrf_workloads.Generator.generate params ~seed ~name:(Printf.sprintf "q%d" seed)

let prop_schedules_valid =
  QCheck.Test.make ~count:60 ~name:"random loops schedule validly on dual-L3" generated_ddg
    (fun input ->
      let g = ddg_of input in
      let cfg = Config.dual ~latency:3 in
      let sched = Modulo.schedule cfg g in
      Schedule.validate sched = Ok () && Schedule.ii sched >= Mii.mii cfg g)

let prop_rec_mii_cross_check =
  QCheck.Test.make ~count:40 ~name:"rec_mii = circuits on random loops" generated_ddg
    (fun input ->
      let g = ddg_of input in
      let cfg = Config.dual ~latency:6 in
      Mii.rec_mii cfg g = Mii_reference.rec_mii_by_circuits cfg g)

let prop_push_late_preserves_validity =
  QCheck.Test.make ~count:40 ~name:"push_late keeps schedules valid" generated_ddg
    (fun input ->
      let g = ddg_of input in
      let cfg = Config.dual ~latency:3 in
      let sched = Modulo.schedule cfg g in
      let adjusted = Modulo.schedule_late ~late:Opcode.is_load ~min_ii:1 cfg g in
      Schedule.validate adjusted = Ok () && Schedule.ii adjusted = Schedule.ii sched)

(* The scheduler against the verbatim pre-rewrite oracle
   (Modulo_reference): same II and every placement, or the same error
   category, over random loops x k in 1..4 x machine-wide port caps,
   with II floors and tight budgets that force restarts at larger IIs.
   Also pins the array-based MII probes to the oracle. *)
let reference_case =
  QCheck.make
    ~print:(fun ((seed, heavy), (k, caps, latency), (min_ii, ratio)) ->
      Printf.sprintf "seed=%d heavy=%b k=%d caps=%b lat=%d min_ii=%d ratio=%d" seed heavy k
        caps latency min_ii ratio)
    QCheck.Gen.(
      triple
        (pair (int_bound 100_000) bool)
        (triple (int_range 1 4) bool (int_range 1 6))
        (pair (int_range 1 8) (oneofl [ 1; 2; 8 ])))

let reference_config ~k ~caps ~latency =
  let cap = if caps then Some 1 else None in
  Config.make ~name:"ref" ~add_latency:latency ~mul_latency:latency ?load_ports:cap
    ?store_ports:cap
    ~clusters:
      (Array.init k (fun _ ->
           Config.symmetric_cluster ~adders:1 ~multipliers:1
             ~ls_units:(if caps then 2 else 1)
             ()))
    ()

let outcome f =
  match f () with
  | s -> Ok (Schedule.ii s, Schedule.placements s)
  | exception Ncdrf_error.Error.Error e -> Error e.Ncdrf_error.Error.category

let prop_matches_reference =
  QCheck.Test.make ~count:300 ~name:"Modulo = Modulo_reference (II and placements)"
    reference_case
    (fun (input, (k, caps, latency), (min_ii, budget_ratio)) ->
      let g = ddg_of input in
      let cfg = reference_config ~k ~caps ~latency in
      let want =
        outcome (fun () ->
            Modulo_reference.schedule_with_min_ii ~budget_ratio ~min_ii cfg g)
      in
      let got = outcome (fun () -> Modulo.schedule_with_min_ii ~budget_ratio ~min_ii cfg g) in
      got = want
      && Mii.mii cfg g = Modulo_reference.mii cfg g
      && Mii.mii_with_floor ~floor:min_ii (Dep_graph.make cfg g)
         = Modulo_reference.mii_with_floor ~floor:min_ii cfg g)

(* --- The flattening: SCC partition, cycle slots, validity --- *)

(* Arbitrary digraphs, cycles of any distance and self-loops included:
   every edge is a memory dependence, so only a zero-distance cycle can
   make one invalid. *)
let random_digraph =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (a, b, d) -> Printf.sprintf "%d->%d/%d" a b d) es)))
    QCheck.Gen.(
      int_range 1 14 >>= fun n ->
      list_size (int_range 0 (3 * n)) (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 2))
      >|= fun es -> (n, es))

let ddg_of_digraph (n, es) =
  let b = Ddg.Builder.create ~name:"digraph" in
  for v = 0 to n - 1 do
    let op = if v mod 3 = 1 then Opcode.Fmul else Opcode.Fadd in
    ignore (Ddg.Builder.add_node b op ~label:(Printf.sprintf "n%d" v))
  done;
  List.iter (fun (src, dst, distance) -> Ddg.Builder.add_edge b ~src ~dst ~distance Ddg.Mem) es;
  Ddg.Builder.freeze b

(* A partition as sorted lists, comparable whatever the numbering. *)
let canonical comps = List.sort compare (List.map (List.sort compare) comps)

let partition_of_flat (g : Dep_graph.t) =
  let by_id = Hashtbl.create 8 in
  for v = g.n - 1 downto 0 do
    Hashtbl.replace by_id g.scc.(v)
      (v :: Option.value ~default:[] (Hashtbl.find_opt by_id g.scc.(v)))
  done;
  canonical (Hashtbl.fold (fun _ vs acc -> vs :: acc) by_id [])

(* The flat Tarjan pass against [Graph_algos.scc]: the same partition,
   cycle slots exactly the slots whose ends share a component, the
   largest component's size, and [valid] exactly [Ddg.validate]. *)
let check_flattening cfg ddg =
  let g = Dep_graph.make cfg ddg in
  let comps =
    Graph_algos.scc ~num_nodes:g.n ~succs:(fun v ->
        List.map (fun e -> e.Ddg.dst) (Ddg.succs ddg v))
  in
  let comp_of = Array.make g.n (-1) in
  List.iteri (fun c vs -> List.iter (fun v -> comp_of.(v) <- c) vs) comps;
  let slots =
    List.filter
      (fun k -> comp_of.(g.succ_src.(k)) = comp_of.(g.succ_dst.(k)))
      (List.init (Array.length g.succ_dst) Fun.id)
  in
  partition_of_flat g = canonical comps
  && Array.to_list g.cycle_slots = slots
  && g.cycle_span = List.fold_left (fun acc c -> max acc (List.length c)) 0 comps
  && g.valid = (Ddg.validate ddg = Ok ())

let prop_flat_scc_digraphs =
  QCheck.Test.make ~count:400 ~name:"flat SCC partition = Graph_algos.scc (digraphs)"
    random_digraph (fun input -> check_flattening (Config.dual ~latency:3) (ddg_of_digraph input))

let prop_flat_scc_loops =
  QCheck.Test.make ~count:100 ~name:"flat SCC partition = Graph_algos.scc (loops)"
    generated_ddg (fun input -> check_flattening (Config.dual ~latency:6) (ddg_of input))

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

(* Restricting the probe to the cycle slots decides the same question as
   the full-edge Bellman-Ford of the oracle, at every II from 1 to the
   latency sum. *)
let same_feasibility cfg ddg =
  let g = Dep_graph.make cfg ddg in
  let latency_sum = Array.fold_left ( + ) 0 g.lat in
  List.for_all
    (fun ii ->
      Mii.feasible g ~ii
      = not
          (Graph_algos_reference.has_positive_cycle ~num_nodes:g.n
             ~edges:(Modulo_reference.constraint_edges cfg ddg ~ii)))
    (List.init (max 1 latency_sum) (fun i -> i + 1))

let prop_feasibility_digraphs =
  QCheck.Test.make ~count:300 ~name:"cycle-slot probe = full-edge probe (digraphs)"
    random_digraph (fun input -> same_feasibility (Config.dual ~latency:3) (ddg_of_digraph input))

let prop_feasibility_spill_chains =
  let arb =
    QCheck.make
      ~print:(fun ((seed, heavy), latency, picks) ->
        Printf.sprintf "seed=%d heavy=%b lat=%d picks=[%s]" seed heavy latency
          (String.concat ";" (List.map string_of_int picks)))
      QCheck.Gen.(
        triple
          (pair (int_bound 100_000) bool)
          (oneofl [ 3; 6 ])
          (list_size (int_range 0 4) (int_bound 1000)))
  in
  QCheck.Test.make ~count:80 ~name:"cycle-slot probe = full-edge probe (spill chains)" arb
    (fun (input, latency, picks) ->
      let cfg = Config.dual ~latency in
      let rec go g = function
        | [] -> true
        | pick :: rest -> (
          match spill_candidates g with
          | [] -> true
          | vs ->
            let v = List.nth vs (pick mod List.length vs) in
            let g =
              Ncdrf_spill.Spiller.spill_value g
                ~slot:(Ncdrf_spill.Spiller.next_spill_slot g) v
            in
            same_feasibility cfg g && go g rest)
      in
      let g = ddg_of input in
      same_feasibility cfg g && go g picks)

(* Push-late over the flat graph, on the II search's own placement
   ([Modulo.schedule_late]), against the verbatim list-walking oracle
   (Adjust_reference) run on the finished schedule: on random loops
   with spill code, at random II floors, the same II and placements
   whether only the spill loads or every operation may move. *)
let prop_push_late_matches_reference =
  let arb =
    QCheck.make
      ~print:(fun ((seed, heavy), (latency, floor), picks) ->
        Printf.sprintf "seed=%d heavy=%b lat=%d floor=%d picks=[%s]" seed heavy latency floor
          (String.concat ";" (List.map string_of_int picks)))
      QCheck.Gen.(
        triple
          (pair (int_bound 100_000) bool)
          (pair (oneofl [ 3; 6 ]) (int_range 1 12))
          (list_size (int_range 1 6) (int_bound 1000)))
  in
  QCheck.Test.make ~count:150 ~name:"push_late = Adjust_reference (spill loads)" arb
    (fun (input, (latency, floor), picks) ->
      let cfg = Config.dual ~latency in
      let spill g pick =
        match spill_candidates g with
        | [] -> g
        | vs ->
          Ncdrf_spill.Spiller.spill_value g ~slot:(Ncdrf_spill.Spiller.next_spill_slot g)
            (List.nth vs (pick mod List.length vs))
      in
      let g = List.fold_left spill (ddg_of input) picks in
      let raw = Modulo.schedule_with_min_ii ~min_ii:floor cfg g in
      List.for_all
        (fun eligible ->
          let want = Adjust_reference.push_late raw ~eligible:(fun n -> eligible n.Ddg.opcode) in
          let fused = Modulo.schedule_late ~late:eligible ~min_ii:floor cfg g in
          Schedule.ii fused = Schedule.ii want
          && Schedule.placements fused = Schedule.placements want)
        [ Opcode.is_spill_load; (fun _ -> true) ])

(* The whole default suite (795 loops) at L3 and L6: the bound and every
   schedule equal the pre-rewrite oracle's, and so do the bound and
   schedule [schedule_with_mii] returns together. *)
let test_default_suite_matches_reference () =
  let loops = Ncdrf_workloads.Suite.full () in
  check_int "default suite size" 795 (List.length loops);
  List.iter
    (fun latency ->
      let cfg = Config.dual ~latency in
      List.iter
        (fun (e : Ncdrf_workloads.Suite.entry) ->
          let g = e.Ncdrf_workloads.Suite.ddg in
          let name = Printf.sprintf "%s at L%d" (Ddg.name g) latency in
          check_int (name ^ ": mii") (Modulo_reference.mii cfg g) (Mii.mii cfg g);
          let want = Modulo_reference.schedule cfg g and got = Modulo.schedule cfg g in
          check_int (name ^ ": ii") (Schedule.ii want) (Schedule.ii got);
          check_bool (name ^ ": placements") true
            (Schedule.placements want = Schedule.placements got);
          let mii, both = Modulo.schedule_with_mii cfg g in
          check_int (name ^ ": schedule_with_mii bound") (Mii.mii cfg g) mii;
          check_bool (name ^ ": schedule_with_mii schedule") true
            (Schedule.ii both = Schedule.ii got
            && Schedule.placements both = Schedule.placements got))
        loops)
    [ 3; 6 ]

(* [Ddg.t]'s representation, to forge graphs the builder refuses (a
   negative distance, an edge out of range) and check that the
   scheduler's own flattening still rejects them. *)
type forged = {
  name : string;
  node_arr : Ddg.node array;
  succ_arr : Ddg.edge list array;
  pred_arr : Ddg.edge list array;
  edge_count : int;
  mutable digest_memo : string option;
}

let forge ops edges : Ddg.t =
  let n = List.length ops in
  let succ_arr = Array.make n [] and pred_arr = Array.make n [] in
  List.iter
    (fun (e : Ddg.edge) ->
      succ_arr.(e.src) <- succ_arr.(e.src) @ [ e ];
      if e.dst >= 0 && e.dst < n then pred_arr.(e.dst) <- pred_arr.(e.dst) @ [ e ])
    edges;
  Obj.magic
    {
      name = "forged";
      node_arr =
        Array.of_list
          (List.mapi (fun id opcode -> { Ddg.id; opcode; label = Printf.sprintf "v%d" id }) ops);
      succ_arr;
      pred_arr;
      edge_count = List.length edges;
      digest_memo = None;
    }

(* Invalid graphs fail [Modulo.schedule] with the same [Invalid_graph]
   error, message included, as the pre-rewrite scheduler, which ran
   [Ddg.validate] first on every call. *)
let test_invalid_graphs_same_error () =
  let edge src dst distance kind = { Ddg.src; dst; distance; kind } in
  let store = Opcode.Store (Opcode.Array "x") in
  let cases =
    [
      ( "zero-distance cycle",
        forge [ Opcode.Fadd; Opcode.Fmul; Opcode.Fadd ]
          [ edge 0 1 0 Ddg.Flow; edge 1 2 0 Ddg.Flow; edge 2 0 1 Ddg.Flow; edge 2 1 0 Ddg.Flow ] );
      ("zero-distance self-loop", forge [ Opcode.Fadd ] [ edge 0 0 0 Ddg.Flow ]);
      ("negative distance", forge [ Opcode.Fadd; Opcode.Fmul ] [ edge 0 1 (-1) Ddg.Flow ]);
      ("flow edge out of a store", forge [ store; Opcode.Fadd ] [ edge 0 1 0 Ddg.Flow ]);
      ( "edge out of range",
        forge [ Opcode.Fadd; Opcode.Fmul ] [ edge 0 1 0 Ddg.Flow; edge 1 5 0 Ddg.Mem ] );
      ("negative edge end", forge [ Opcode.Fadd; Opcode.Fmul ] [ edge 0 (-1) 1 Ddg.Mem ]);
    ]
  in
  let failure f =
    match f () with
    | _ -> Alcotest.fail "an invalid graph was scheduled"
    | exception Ncdrf_error.Error.Error e ->
      (Ncdrf_error.Error.category_name e.Ncdrf_error.Error.category, e.Ncdrf_error.Error.message)
  in
  List.iter
    (fun (what, ddg) ->
      let cfg = Config.dual ~latency:3 in
      check_bool (what ^ ": Ddg.validate rejects it") true (Ddg.validate ddg <> Ok ());
      check_bool (what ^ ": flattening rejects it") false (Dep_graph.make cfg ddg).valid;
      let want = failure (fun () -> Modulo_reference.schedule cfg ddg) in
      let got = failure (fun () -> Modulo.schedule cfg ddg) in
      Alcotest.(check (pair string string)) (what ^ ": same error") want got;
      check_string (what ^ ": category") "invalid_graph" (fst got))
    cases

let suite =
  [
    Alcotest.test_case "res_mii on example" `Quick test_res_mii_example;
    Alcotest.test_case "res_mii with port caps" `Quick test_res_mii_port_caps;
    Alcotest.test_case "rec_mii acyclic" `Quick test_rec_mii_acyclic;
    Alcotest.test_case "rec_mii on tridiagonal" `Quick test_rec_mii_tridiag;
    Alcotest.test_case "rec_mii matches circuit enumeration" `Quick
      test_rec_mii_matches_circuits;
    Alcotest.test_case "distance-2 recurrence" `Quick test_distance2_recurrence_halves_recmii;
    Alcotest.test_case "example schedules at II=1" `Quick test_example_schedules_at_ii_1;
    Alcotest.test_case "kernel zoo schedules validly" `Slow
      test_schedules_are_valid_on_kernel_zoo;
    Alcotest.test_case "scheduler achieves MII mostly" `Quick test_schedule_achieves_mii_mostly;
    Alcotest.test_case "normalize starts at zero" `Quick test_normalize_starts_at_zero;
    Alcotest.test_case "schedule make validations" `Quick test_schedule_make_validations;
    Alcotest.test_case "validate catches dependence violations" `Quick
      test_validate_catches_violations;
    Alcotest.test_case "validate catches resource overflow" `Quick
      test_validate_catches_resource_overflow;
    Alcotest.test_case "min II forcing" `Quick test_min_ii_forcing;
    Alcotest.test_case "kernel extraction" `Quick test_kernel_extract_example;
    Alcotest.test_case "kernel rendering" `Quick test_kernel_render_mentions_all_ops;
    Alcotest.test_case "push_late no-op when ineligible" `Quick
      test_push_late_moves_only_eligible;
    Alcotest.test_case "push_late shrinks load lifetime" `Quick
      test_push_late_shrinks_load_lifetime;
    QCheck_alcotest.to_alcotest prop_schedules_valid;
    QCheck_alcotest.to_alcotest prop_rec_mii_cross_check;
    QCheck_alcotest.to_alcotest prop_push_late_preserves_validity;
    QCheck_alcotest.to_alcotest prop_push_late_matches_reference;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_flat_scc_digraphs;
    QCheck_alcotest.to_alcotest prop_flat_scc_loops;
    QCheck_alcotest.to_alcotest prop_feasibility_digraphs;
    QCheck_alcotest.to_alcotest prop_feasibility_spill_chains;
    Alcotest.test_case "default suite = Modulo_reference" `Quick
      test_default_suite_matches_reference;
    Alcotest.test_case "invalid graphs keep their error" `Quick test_invalid_graphs_same_error;
  ]
