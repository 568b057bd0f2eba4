open Ncdrf_ir
open Ncdrf_sched
open Ncdrf_regalloc
module Error = Ncdrf_error.Error
module Fault = Ncdrf_fault.Fault
module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace

type victim =
  | Longest_lifetime
  | Best_ratio
  | Fewest_consumers

type outcome = {
  schedule : Schedule.t;
  raw_schedule : Schedule.t;
  ddg : Ddg.t;
  requirement : int;
  fits : bool;
  spilled : int;
  added_memops : int;
  ii_bumps : int;
  rounds : int;
  error : Error.t option;
}

let src = Logs.Src.create "ncdrf.spiller" ~doc:"naive iterative spiller"

module Log = (val Logs.src_log src : Logs.LOG)

let next_spill_slot ddg =
  let slot_of node =
    match node.Ddg.opcode with
    | Opcode.Load (Opcode.Spill k) | Opcode.Store (Opcode.Spill k) -> k
    | Opcode.Load (Opcode.Array _)
    | Opcode.Store (Opcode.Array _)
    | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fcvt | Opcode.Fselect ->
      -1
  in
  1 + Ddg.fold_nodes ddg ~init:(-1) ~f:(fun acc n -> Int.max acc (slot_of n))

(* A value may be spilled if its producer is not itself a spill load and
   it has not been spilled already (no spill-store consumer). *)
let spillable (g : Dep_graph.t) v =
  let already_spilled = ref false in
  for k = g.succ_first.(v) to g.succ_first.(v + 1) - 1 do
    if g.succ_flow.(k) then
      match g.op.(g.succ_dst.(k)) with
      | Opcode.Store (Opcode.Spill _) -> already_spilled := true
      | _ -> ()
  done;
  (not (Opcode.is_spill_load g.op.(v))) && not !already_spilled

(* The spill code of slot [slot]: its store, and the reload of the
   [i]-th consumer. *)
let store_node slot = (Opcode.Store (Opcode.Spill slot), "sS" ^ string_of_int slot)

let reload_node slot i =
  (Opcode.Load (Opcode.Spill slot), "sL" ^ string_of_int slot ^ "." ^ string_of_int i)

let spill_value ddg ~slot v = Ddg.spill ddg v ~store:(store_node slot) ~reload:(reload_node slot)

let schedule_once config ~min_ii ddg =
  Modulo.schedule_late ~late:Opcode.is_spill_load ~min_ii config ddg

(* Consumer fan-out of node [v]: its flow out-edges. *)
let consumer_count (g : Dep_graph.t) v =
  let count = ref 0 in
  for k = g.succ_first.(v) to g.succ_first.(v + 1) - 1 do
    if g.succ_flow.(k) then incr count
  done;
  !count

(* Larger score = better victim.  Only the heuristics that weigh
   consumers count them. *)
let score ~victim ~ii g l =
  match victim with
  | Longest_lifetime -> (float_of_int (Lifetime.length l), 0.0)
  | Best_ratio ->
    let freed = float_of_int (Lifetime.min_registers ~ii l) in
    ( freed /. float_of_int (1 + consumer_count g l.Lifetime.producer),
      float_of_int (Lifetime.length l) )
  | Fewest_consumers ->
    (-.float_of_int (consumer_count g l.Lifetime.producer), float_of_int (Lifetime.length l))

(* Each spillable lifetime is scored exactly once; the incumbent's key
   is kept, not recomputed per comparison.  The strict lexicographic
   [>] keeps the first of equal-scoring candidates, as the original
   fold did. *)
let pick_victim ~victim ~ii g lifetimes =
  List.fold_left
    (fun acc l ->
      let v = l.Lifetime.producer in
      if not (spillable g v) then acc
      else
        let s = score ~victim ~ii g l in
        match acc with
        | None -> Some (l, s)
        | Some (_, best) ->
          let a1, a2 = s and b1, b2 = best in
          if a1 > b1 || (a1 = b1 && a2 > b2) then Some (l, s) else acc)
    None lifetimes
  |> Option.map fst

(* A mid-round scheduling/allocation failure with a partial outcome in
   hand degrades to [Spill_diverged] instead of killing the point; the
   last completed round's schedule is the partial outcome.  Faults
   injected on purpose are never swallowed here — they must surface to
   the suite boundary to prove containment there. *)
let containable (e : Error.t) =
  match e.category with
  | Error.Schedule_infeasible | Error.Alloc_infeasible -> true
  | Error.Parse | Error.Invalid_graph | Error.Spill_diverged | Error.Injected
  | Error.Internal | Error.Overloaded | Error.Deadline_exceeded | Error.Canceled ->
    false

let run ~config ~requirement ~capacity ?(victim = Longest_lifetime)
    ?(schedule = fun ~min_ii ddg -> schedule_once config ~min_ii ddg) ?(max_rounds = 64)
    ?(max_ii_bumps = 32) ?(ii_floor = true) ?lower_bound ddg =
  Fault.point ~stage:"spill" ~key:(Ddg.name ddg);
  let original_memops = Ddg.num_memory_ops ddg in
  let full_reschedules = ref 0 in
  let give_up ~raw sched ddg req ~spilled ~ii_bumps ~rounds ~error =
    {
      schedule = sched;
      raw_schedule = raw;
      ddg;
      requirement = req;
      fits = false;
      spilled;
      added_memops = Ddg.num_memory_ops ddg - original_memops;
      ii_bumps;
      rounds;
      error = Some error;
    }
  in
  let diverged ~ii ~rounds fmt =
    Printf.ksprintf
      (fun message ->
        Error.make ~loop:(Ddg.name ddg) ~round:rounds ~ii ~stage:"spill"
          Error.Spill_diverged message)
      fmt
  in
  (* [g] is the current graph, flattened: round 0 flattens the input,
     and each spill flattens the spilled graph with its components
     carried over from the last round's ([Dep_graph.spill]), which the
     round's scheduling step then finds instead of flattening the graph
     again.  Lifetimes and victim
     selection read it too.  [next_slot] is the next free spill slot,
     tracked incrementally (each spill adds exactly one slot) instead
     of re-folding the whole graph every round.  Both survive II bumps
     unchanged — the graph does too. *)
  let rec iterate (g : Dep_graph.t) ~min_ii ~spilled ~ii_bumps ~rounds ~last ~next_slot =
    let ddg = g.ddg in
    (* Deadline poll once per spill round, outside the containable-error
       region: an expired request must surface as Deadline_exceeded,
       never degrade to Spill_diverged. *)
    Ncdrf_error.Deadline.check ~stage:"spill";
    match
      (* Each round (reschedule + reallocate) is one trace span, nested
         inside the driver's enclosing "spill" span, so a trace shows
         where a diverging point spends its rounds. *)
      Trace.begin_span "spill.round";
      Fun.protect
        ~finally:(fun () -> Trace.end_span "spill.round")
        (fun () ->
          incr full_reschedules;
          Telemetry.incr "spill.full_reschedules";
          let raw = schedule ~min_ii ddg in
          (* The exact requirement is measured lazily: when
             [lower_bound] already proves the round over capacity, the
             (more expensive) model measurement is skipped unless a
             terminal outcome needs the number.  [requirement] must be
             pure, so a deferred force yields the same value. *)
          let view =
            let cell = ref None in
            fun () ->
              match !cell with
              | Some v -> v
              | None ->
                let v = requirement raw in
                cell := Some v;
                v
          in
          (* Shared between the bound and victim selection: a pruned
             round otherwise measures the same raw schedule's lifetimes
             twice. *)
          let raw_lifetimes = lazy (Lifetime.of_graph g raw) in
          let over =
            match lower_bound with
            | Some lb when lb raw ~lifetimes:raw_lifetimes > capacity ->
              Telemetry.incr "spill.lb_pruned";
              true
            | _ ->
              let _, req = view () in
              req > capacity
          in
          (raw, view, raw_lifetimes, over))
    with
    | exception Error.Error e when containable e && Option.is_some last ->
      (* The spill code itself made the round infeasible (e.g. a budget
         sized for the original graph).  Degrade to the last completed
         round rather than losing the point. *)
      let last_raw, last_view, last_ddg = Option.get last in
      let last_sched, last_req = last_view () in
      let error =
        diverged ~ii:(Schedule.ii last_sched) ~rounds "round failed: %s"
          (Error.to_string e)
      in
      give_up ~raw:last_raw last_sched last_ddg last_req ~spilled ~ii_bumps ~rounds
        ~error
    | raw, view, raw_lifetimes, over ->
      if not over then begin
        let sched, req = view () in
        {
          schedule = sched;
          raw_schedule = raw;
          ddg;
          requirement = req;
          fits = true;
          spilled;
          added_memops = Ddg.num_memory_ops ddg - original_memops;
          ii_bumps;
          rounds;
          error = None;
        }
      end
      else if rounds >= max_rounds then begin
        let sched, req = view () in
        give_up ~raw sched ddg req ~spilled ~ii_bumps ~rounds
          ~error:
            (diverged ~ii:(Schedule.ii sched) ~rounds
               "max rounds (%d) reached with requirement %d > capacity %d (%d spilled, %d II bumps)"
               max_rounds req capacity spilled ii_bumps)
      end
      else begin
        (* Pick the best spillable lifetime of the current schedule.
           Lifetimes and II are measured on whichever schedule is in
           hand: the transformed view when the requirement was computed,
           the raw schedule when the lower bound pruned it — the model
           transforms only move values between clusters, so cycles,
           lifetimes and II agree between the two. *)
        let sel, lifetimes =
          match lower_bound with
          | None ->
            let s = fst (view ()) in
            (s, Lifetime.of_graph g s)
          | Some _ -> (raw, Lazy.force raw_lifetimes)
        in
        match pick_victim ~victim ~ii:(Schedule.ii sel) g lifetimes with
        | Some l ->
          Log.debug (fun m ->
              m "%s: spilling value of node %d (lifetime %d), over capacity %d"
                (Ddg.name ddg) l.Lifetime.producer (Lifetime.length l) capacity);
          let last = Some (raw, view, ddg) in
          let g =
            Dep_graph.spill g l.Lifetime.producer ~store:(store_node next_slot)
              ~reload:(reload_node next_slot)
          in
          assert (next_spill_slot g.ddg = next_slot + 1);
          (* Monotone II floor: II never recovers once spilling has
             pushed it up (spill code only adds resource usage and
             dependences), so the next round's II search starts at the
             last achieved II instead of rediscovering it from
             [min_ii]. *)
          let min_ii = if ii_floor then max min_ii (Schedule.ii raw) else min_ii in
          iterate g ~min_ii ~spilled:(spilled + 1) ~ii_bumps ~rounds:(rounds + 1) ~last
            ~next_slot:(next_slot + 1)
        | None ->
          let req_of () = snd (view ()) in
          if ii_bumps >= max_ii_bumps then
            let sched, req = view () in
            give_up ~raw sched ddg req ~spilled ~ii_bumps ~rounds
              ~error:
                (diverged ~ii:(Schedule.ii sched) ~rounds
                   "max II bumps (%d) reached with requirement %d > capacity %d and no spill candidate (%d spilled)"
                   max_ii_bumps req capacity spilled)
          else begin
            let bumped = Schedule.ii raw + 1 in
            Log.debug (fun m ->
                m "%s: no spill candidate left (req %d > %d), rescheduling at II=%d"
                  (Ddg.name ddg) (req_of ()) capacity bumped);
            iterate g ~min_ii:bumped ~spilled ~ii_bumps:(ii_bumps + 1)
              ~rounds:(rounds + 1)
              ~last:(Some (raw, view, ddg))
              ~next_slot
          end
      end
  in
  let outcome =
    iterate (Dep_graph.make config ddg) ~min_ii:1 ~spilled:0 ~ii_bumps:0 ~rounds:0 ~last:None
      ~next_slot:(next_spill_slot ddg)
  in
  if Trace.active () then
    Trace.update (fun p -> p.Trace.spill_full <- Some !full_reschedules);
  outcome
