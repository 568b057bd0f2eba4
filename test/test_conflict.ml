(* Equivalence of the conflict-engine allocator against the original
   list-based implementation (Alloc_reference): same placements — not
   just the same feasibility — over random lifetime sets, II, capacity,
   strategy, order and pre-placed values; plus a fixed-seed fig8-slice
   byte-identity guard pinning the whole pipeline's output to the seed
   implementation. *)

open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc
open Ncdrf_core

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Random lifetime sets.                                               *)
(* ------------------------------------------------------------------ *)

let lifetimes_of_raw raw =
  List.mapi
    (fun i (start, len) -> { Lifetime.producer = i; start; stop = start + len })
    raw

let pp_case (ii, capacity, raw, placed) =
  Printf.sprintf "ii=%d cap=%d lifetimes=[%s] placed=[%s]" ii capacity
    (String.concat ";" (List.map (fun (s, l) -> Printf.sprintf "%d+%d" s l) raw))
    (String.concat ";" (List.map (fun (s, l, r) -> Printf.sprintf "%d+%d@%d" s l r) placed))

let case_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun ii ->
    int_range 1 14 >>= fun capacity ->
    int_range 0 8 >>= fun n ->
    list_repeat n (pair (int_bound 12) (int_range 1 14)) >>= fun raw ->
    int_range 0 3 >>= fun npre ->
    list_repeat npre
      (triple (int_bound 12) (int_range 1 10) (int_bound (capacity - 1)))
    >>= fun placed -> return (ii, capacity, raw, placed))

let case_arb = QCheck.make ~print:pp_case case_gen

let placed_of raw_placed =
  List.mapi
    (fun i (start, len, register) ->
      { Alloc.value = { Lifetime.producer = 1000 + i; start; stop = start + len };
        register })
    raw_placed

let strategies = [| Alloc.First_fit; Alloc.Best_fit; Alloc.End_fit |]
let orders = [| Alloc.Start_time; Alloc.Longest_first; Alloc.Node_order |]

(* Same placements — registers and order — for every strategy x order,
   including the cases where both allocators must fail. *)
let prop_allocate_equivalence =
  QCheck.Test.make ~count:400 ~name:"allocate equivalence (Alloc = Alloc_reference)"
    case_arb (fun (ii, capacity, raw, raw_placed) ->
      let lifetimes = lifetimes_of_raw raw in
      let placed = placed_of raw_placed in
      Array.for_all
        (fun strategy ->
          Array.for_all
            (fun order ->
              Alloc.allocate ~strategy ~order ~placed ~ii ~capacity lifetimes
              = Alloc_reference.allocate ~strategy ~order ~placed ~ii ~capacity
                  lifetimes)
            orders)
        strategies)

let prop_min_capacity_equivalence =
  QCheck.Test.make ~count:200
    ~name:"min_capacity equivalence (Alloc = Alloc_reference)" case_arb
    (fun (ii, _, raw, _) ->
      let lifetimes = lifetimes_of_raw raw in
      Array.for_all
        (fun strategy ->
          Array.for_all
            (fun order ->
              Alloc.min_capacity ~strategy ~order ~ii lifetimes
              = Alloc_reference.min_capacity ~strategy ~order ~ii lifetimes)
            orders)
        strategies)

(* The same equivalence on lifetimes of real modulo schedules, whose
   shapes (long wands, loop-carried stretches) random sets undersample. *)
let prop_scheduled_equivalence =
  let arb =
    QCheck.make
      ~print:(fun (seed, lat) -> Printf.sprintf "seed=%d lat=%d" seed lat)
      QCheck.Gen.(pair (int_bound 50_000) (int_range 1 6))
  in
  QCheck.Test.make ~count:25 ~name:"scheduled-lifetime equivalence" arb
    (fun (seed, latency) ->
      let g =
        Ncdrf_workloads.Generator.generate Ncdrf_workloads.Generator.default ~seed
          ~name:"equiv-prop"
      in
      let cfg = Config.dual ~latency in
      let sched = Modulo.schedule cfg g in
      let lifetimes = Lifetime.of_schedule sched in
      let ii = Schedule.ii sched in
      Array.for_all
        (fun strategy ->
          let c = Alloc.min_capacity ~strategy ~ii lifetimes in
          c = Alloc_reference.min_capacity ~strategy ~ii lifetimes
          && Alloc.allocate ~strategy ~ii ~capacity:c lifetimes
             = Alloc_reference.allocate ~strategy ~ii ~capacity:c lifetimes
          && Alloc.allocate ~strategy ~ii ~capacity:(max 1 (c - 1)) lifetimes
             = Alloc_reference.allocate ~strategy ~ii ~capacity:(max 1 (c - 1))
                 lifetimes)
        strategies)

(* The pre-rewrite two-pass construction of the conflict rows (size
   the rows in one pass over the pairs, recompute every window to fill
   them in a second), kept as the oracle for [Conflict.make]'s one-pass
   build, which computes each window once into a reused scratch: same
   rows, same order, same widest pair. *)
let two_pass_rows ~ii lifetimes =
  let lifetimes = Array.of_list lifetimes in
  let n = Array.length lifetimes in
  let degree = Array.make n 0 in
  let max_width = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d_min, d_max = Conflict.shift_window ~ii lifetimes.(i) lifetimes.(j) in
      if d_max >= d_min then begin
        degree.(i) <- degree.(i) + 1;
        degree.(j) <- degree.(j) + 1;
        if d_max - d_min + 1 > !max_width then max_width := d_max - d_min + 1
      end
    done
  done;
  let adj = Array.init n (fun i -> Array.make (3 * degree.(i)) 0) in
  let fill = Array.make n 0 in
  let push i j d_min width =
    let k = fill.(i) in
    adj.(i).(k) <- j;
    adj.(i).(k + 1) <- d_min;
    adj.(i).(k + 2) <- width;
    fill.(i) <- k + 3
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d_min, d_max = Conflict.shift_window ~ii lifetimes.(i) lifetimes.(j) in
      if d_max >= d_min then begin
        let width = d_max - d_min + 1 in
        push j i d_min width;
        push i j (-d_max) width
      end
    done
  done;
  (adj, !max_width)

let prop_rows_match_two_pass =
  let arb =
    QCheck.make
      ~print:(fun (ii, raw) ->
        Printf.sprintf "ii=%d lifetimes=[%s]" ii
          (String.concat ";" (List.map (fun (s, l) -> Printf.sprintf "%d+%d" s l) raw)))
      QCheck.Gen.(
        pair (int_range 1 6)
          (int_range 0 40 >>= fun n ->
           list_repeat n (pair (int_range (-6) 30) (int_range 0 25))))
  in
  QCheck.Test.make ~count:300 ~name:"Conflict.make rows = two-pass construction" arb
    (fun (ii, raw) ->
      let lifetimes = lifetimes_of_raw raw in
      let table = Conflict.make ~ii lifetimes in
      let adj, max_width = two_pass_rows ~ii lifetimes in
      Conflict.max_width table = max_width
      && Array.for_all Fun.id
           (Array.mapi (fun i row -> Conflict.neighbours table i = row) adj))

(* Concurrent builders never share a scratch.  Two systhreads of one
   domain (as the daemon runs its request handlers) and the two domains
   of a pool build tables at the same time, yielding between builds;
   every table's rows and widest pair equal a serial build's.  The
   inputs mix scheduled suite loops with large random lifetime sets, so
   builds are long enough for the runtime's 50 ms tick to switch
   systhreads in the middle of one, and sizes alternate, so a scratch
   another build wrote to would leave foreign triples in the rows. *)
let test_concurrent_builds () =
  let suite =
    List.concat_map
      (fun latency ->
        let config = Config.dual ~latency in
        List.map
          (fun (e : Ncdrf_workloads.Suite.entry) ->
            let s = Modulo.schedule config e.Ncdrf_workloads.Suite.ddg in
            (Schedule.ii s, Lifetime.of_schedule s))
          (Ncdrf_workloads.Suite.full ~size:48 ()))
      [ 3; 6 ]
  in
  let rng = Random.State.make [| 7 |] in
  let large =
    List.init 8 (fun k ->
        ( 1 + (k mod 4),
          lifetimes_of_raw
            (List.init (120 + (10 * k)) (fun _ ->
                 (Random.State.int rng 60, Random.State.int rng 30))) ))
  in
  let inputs =
    List.concat (List.map2 (fun a b -> [ a; b ]) large (List.filteri (fun i _ -> i < 8) suite))
    @ suite
  in
  let rows (ii, lifetimes) =
    let t = Conflict.make ~ii lifetimes in
    (Conflict.max_width t, Array.init (Conflict.size t) (Conflict.neighbours t))
  in
  let cases = List.map (fun input -> (input, rows input)) inputs in
  let mismatches = Atomic.make 0 and builds = Atomic.make 0 in
  (* Each systhread builds for at least 0.4 s, so several ticks fall
     inside builds. *)
  let build_all cases =
    let until = Unix.gettimeofday () +. 0.4 in
    while Unix.gettimeofday () < until do
      List.iter
        (fun (input, want) ->
          if rows input <> want then Atomic.incr mismatches;
          Atomic.incr builds;
          Thread.yield ())
        cases
    done
  in
  let threads = List.map (Thread.create build_all) [ cases; List.rev cases ] in
  List.iter Thread.join threads;
  Alcotest.(check int) "systhread builds = serial builds" 0 (Atomic.get mismatches);
  Alcotest.(check bool) "both systhreads built" true (Atomic.get builds >= 2 * List.length cases);
  let pooled =
    Ncdrf_parallel.Pool.with_pool ~jobs:2 (fun pool ->
        Ncdrf_parallel.Pool.map pool
          (fun input ->
            let r = rows input in
            Thread.yield ();
            r)
          (inputs @ List.rev inputs))
  in
  Alcotest.(check bool) "pool builds = serial builds" true
    (pooled = List.map snd cases @ List.rev_map snd cases)

(* ------------------------------------------------------------------ *)
(* Fixed-seed fig8-slice byte-identity guard.                          *)
(* ------------------------------------------------------------------ *)

(* A slice of the fig8 sweep (dual file, latency 3, capacity 32,
   Swapped model) over the first loops of the fixed-seed suite, plus
   the strategy/order ablation sums, digested.  The expected hex is the
   seed implementation's output: any drift in placements, requirements,
   spill decisions or swap counts changes it. *)
let test_fig8_slice_byte_identity () =
  let config = Config.dual ~latency:3 in
  let loops = Ncdrf_workloads.Suite.full ~size:40 ~seed:42 () in
  let buf = Buffer.create 8192 in
  List.iteri
    (fun i e ->
      if i < 20 then begin
        let ddg = e.Ncdrf_workloads.Suite.ddg in
        let st = Pipeline.run ~config ~model:Model.Swapped ~capacity:32 ddg in
        Printf.bprintf buf "%s ii=%d req=%d spilled=%d swaps=%d fits=%b\n"
          st.Pipeline.name st.Pipeline.ii st.Pipeline.requirement st.Pipeline.spilled
          st.Pipeline.swaps st.Pipeline.fits;
        let alloc = Requirements.partitioned_allocation st.Pipeline.schedule in
        Printf.bprintf buf "cap=%d" alloc.Requirements.capacity;
        List.iter
          (fun (p, _) ->
            Printf.bprintf buf " g%d:%d" p.Alloc.value.Lifetime.producer p.Alloc.register)
          alloc.Requirements.globals;
        Array.iteri
          (fun c ps ->
            List.iter
              (fun p ->
                Printf.bprintf buf " l%d.%d:%d" c p.Alloc.value.Lifetime.producer
                  p.Alloc.register)
              ps)
          alloc.Requirements.locals;
        Buffer.add_char buf '\n'
      end)
    loops;
  (* Strategy/order ablation over the same slice: unified minimum
     capacities must not drift either. *)
  List.iteri
    (fun i e ->
      if i < 12 then begin
        let sched = Artifact.raw_schedule ~config e.Ncdrf_workloads.Suite.ddg in
        Array.iter
          (fun strategy ->
            Array.iter
              (fun order ->
                Printf.bprintf buf "%d:" (Requirements.unified ~strategy ~order sched))
              orders)
          strategies;
        Buffer.add_char buf '\n'
      end)
    loops;
  check_string "fig8-slice digest vs seed output"
    "546e6e9c5d0a320f358a8cc7e4a6871b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_allocate_equivalence;
    QCheck_alcotest.to_alcotest prop_min_capacity_equivalence;
    QCheck_alcotest.to_alcotest prop_scheduled_equivalence;
    QCheck_alcotest.to_alcotest prop_rows_match_two_pass;
    Alcotest.test_case "fig8-slice byte identity" `Quick test_fig8_slice_byte_identity;
    Alcotest.test_case "concurrent builds = serial builds" `Quick test_concurrent_builds;
  ]
