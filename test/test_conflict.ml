(* Equivalence of the conflict-engine allocator against the original
   list-based implementation (Alloc_reference): same placements — not
   just the same feasibility — over random lifetime sets, II, capacity,
   order and pre-placed values; plus a fixed-seed fig8-slice
   byte-identity guard pinning the whole pipeline's output to the seed
   implementation. *)

open Ncdrf_machine
open Ncdrf_sched
open Ncdrf_regalloc
open Ncdrf_core
module Telemetry = Ncdrf_telemetry.Telemetry

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

let orders = [| Alloc.Start_time; Alloc.Longest_first; Alloc.Node_order |]

(* The flat calls the requirement searches make — a scratch holding the
   pre-placed values' registers, the other indices sorted by [order],
   one [Alloc.place] pass — read back as [Alloc.allocate]'s
   placements. *)
let place_flat ~order ~placed ~ii ~capacity lifetimes =
  if lifetimes = [] then Some []
  else if capacity <= 0 then None
  else begin
    let table = Conflict.make ~ii (List.map (fun p -> p.Alloc.value) placed @ lifetimes) in
    let np = List.length placed in
    let s = Alloc.scratch table in
    let regs = Alloc.registers s in
    List.iteri (fun j p -> regs.(j) <- p.Alloc.register) placed;
    let ordered =
      Alloc.sorted ~order table (Array.init (List.length lifetimes) (fun k -> np + k))
    in
    if Alloc.place table s ~capacity ordered ~pos:0 ~len:(Array.length ordered) then
      Some
        (Array.to_list
           (Array.map
              (fun i -> { Alloc.value = Conflict.lifetime table i; register = regs.(i) })
              ordered))
    else None
  end

(* Same placements — registers and order — from [Alloc.allocate], and
   from flat passes for every order on top of pre-placed values,
   including the cases where both allocators must fail. *)
let prop_allocate_equivalence =
  QCheck.Test.make ~count:400 ~name:"allocate equivalence (Alloc = Alloc_reference)"
    case_arb (fun (ii, capacity, raw, raw_placed) ->
      let lifetimes = lifetimes_of_raw raw in
      let placed = placed_of raw_placed in
      Alloc.allocate ~ii ~capacity lifetimes = Alloc_reference.allocate ~ii ~capacity lifetimes
      && Array.for_all
           (fun order ->
             place_flat ~order ~placed ~ii ~capacity lifetimes
             = Alloc_reference.allocate ~order ~placed ~ii ~capacity lifetimes)
           orders)

let prop_min_capacity_equivalence =
  QCheck.Test.make ~count:200
    ~name:"min_capacity equivalence (Alloc = Alloc_reference)" case_arb
    (fun (ii, _, raw, _) ->
      let lifetimes = lifetimes_of_raw raw in
      Array.for_all
        (fun order ->
          Alloc.min_capacity ~order ~ii lifetimes
          = Alloc_reference.min_capacity ~order ~ii lifetimes)
        orders)

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
      let c = Alloc.min_capacity ~ii lifetimes in
      c = Alloc_reference.min_capacity ~ii lifetimes
      && Alloc.allocate ~ii ~capacity:c lifetimes
         = Alloc_reference.allocate ~ii ~capacity:c lifetimes
      && Alloc.allocate ~ii ~capacity:(max 1 (c - 1)) lifetimes
         = Alloc_reference.allocate ~ii ~capacity:(max 1 (c - 1)) lifetimes)

(* The allocation kernel reads each pair's window from the table's
   bounds inline ([Alloc.pick]); this pins what it computes to
   [Conflict.shift_window] for every ordered pair (j, i), through
   [Alloc.place] alone: with only [j] placed, at register
   [-d_min mod c], a window [(d_min, d_max)] of width [w] forbids [i]
   exactly the registers [0 .. w - 1], so at [c = w + 1] (bit-set path
   up to 62, marks past it) and at [c = w + 63] (marks path) First-Fit
   gives [i] register [w], and at [c = w] the pair conflicts at every
   distance.  An empty window leaves [i] register 0 wherever [j] sits.
   The table's widest pair and the pairs its build counts
   ([alloc.pairs]) must equal a brute-force scan of [shift_window]. *)
let prop_kernel_windows =
  let arb =
    QCheck.make
      ~print:(fun (ii, raw) ->
        Printf.sprintf "ii=%d lifetimes=[%s]" ii
          (String.concat ";" (List.map (fun (s, l) -> Printf.sprintf "%d+%d" s l) raw)))
      QCheck.Gen.(
        pair (int_range 1 64)
          (int_range 0 24 >>= fun n ->
           list_repeat n (pair (int_range (-80) 80) (int_range 0 90))))
  in
  QCheck.Test.make ~count:200 ~name:"kernel windows = shift_window" arb (fun (ii, raw) ->
      let lifetimes = Array.of_list (lifetimes_of_raw raw) in
      let n = Array.length lifetimes in
      let table, counted =
        Telemetry.enable true;
        Telemetry.reset ();
        Fun.protect
          ~finally:(fun () ->
            Telemetry.enable false;
            Telemetry.reset ())
          (fun () ->
            let t = Conflict.make ~ii (Array.to_list lifetimes) in
            (t, Telemetry.counter "alloc.pairs"))
      in
      let s = Alloc.scratch table in
      let regs = Alloc.registers s in
      let register_of_i ~capacity j rj i =
        Alloc.unassign_all s;
        regs.(j) <- rj;
        if Alloc.place table s ~capacity [| i |] ~pos:0 ~len:1 then regs.(i) else -1
      in
      let max_width = ref 0 and pairs = ref 0 and ok = ref true in
      for j = 0 to n - 1 do
        for i = 0 to n - 1 do
          if i <> j then begin
            let d_min, d_max = Conflict.shift_window ~ii lifetimes.(j) lifetimes.(i) in
            let w = d_max - d_min + 1 in
            if w <= 0 then begin
              let c = max 1 (Conflict.min_registers table i) in
              for rj = 0 to c - 1 do
                if register_of_i ~capacity:c j rj i <> 0 then ok := false
              done
            end
            else begin
              if i > j then begin
                incr pairs;
                max_width := max !max_width w
              end;
              List.iter
                (fun c ->
                  let rj = Conflict.pos_mod (-d_min) c in
                  if register_of_i ~capacity:c j rj i <> w then ok := false)
                [ w + 1; w + 63 ];
              if register_of_i ~capacity:w j (Conflict.pos_mod (-d_min) w) i <> -1 then
                ok := false
            end
          end
        done
      done;
      !ok && Conflict.max_width table = !max_width && counted = !pairs)

(* Concurrent builders and searches never share a scratch.  Two
   systhreads of one domain (as the daemon runs its request handlers)
   and the two domains of a pool build tables and search them at the
   same time, yielding between builds; every table's bounds and widest
   pair, and every minimum capacity, equal a serial run's.  The inputs
   mix scheduled suite loops with large random lifetime sets, so
   searches are long enough for the runtime's 50 ms tick to switch
   systhreads in the middle of one, and sizes alternate, so a scratch
   another search wrote to would show in the capacities. *)
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
    (Conflict.max_width t, Conflict.bounds t, Alloc.min_capacity ~ii lifetimes)
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
   the ordering ablation's unified requirements, digested.  The
   expected hex is the seed implementation's output over the same
   fields: any drift in placements, requirements, spill decisions or
   swap counts changes it. *)
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
  (* Ordering ablation over the same slice: unified minimum capacities
     must not drift either. *)
  List.iteri
    (fun i e ->
      if i < 12 then begin
        let sched = Artifact.raw_schedule ~config e.Ncdrf_workloads.Suite.ddg in
        let lifetimes = Lifetime.of_schedule sched in
        Array.iter
          (fun order ->
            Printf.bprintf buf "%d:"
              (Alloc.min_capacity ~order ~ii:(Schedule.ii sched) lifetimes))
          orders;
        Buffer.add_char buf '\n'
      end)
    loops;
  check_string "fig8-slice digest vs seed output"
    "a35557210be7692f0971834377091a5b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_allocate_equivalence;
    QCheck_alcotest.to_alcotest prop_min_capacity_equivalence;
    QCheck_alcotest.to_alcotest prop_scheduled_equivalence;
    QCheck_alcotest.to_alcotest prop_kernel_windows;
    Alcotest.test_case "fig8-slice byte identity" `Quick test_fig8_slice_byte_identity;
    Alcotest.test_case "concurrent builds = serial builds" `Quick test_concurrent_builds;
  ]
