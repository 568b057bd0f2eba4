(* The pre-optimization spiller, kept verbatim as the behavioural oracle
   for [Spiller]: with the II floor off ([~ii_floor:false]) the rebuilt
   spiller must produce byte-identical outcomes (test/test_spill.ml pins
   the equivalence with qcheck and a fixed-seed digest).  Do not
   "improve" this file — its value is that it does not change. *)

open Ncdrf_ir
open Ncdrf_sched
open Ncdrf_regalloc
open Ncdrf_spill
module Error = Ncdrf_error.Error
module Fault = Ncdrf_fault.Fault
module Trace = Ncdrf_telemetry.Trace

type victim = Spiller.victim =
  | Longest_lifetime
  | Best_ratio
  | Fewest_consumers

type outcome = Spiller.outcome = {
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

let src = Logs.Src.create "ncdrf.spiller-ref" ~doc:"reference iterative spiller"

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
  1 + Ddg.fold_nodes ddg ~init:(-1) ~f:(fun acc n -> max acc (slot_of n))

(* A value may be spilled if its producer is not itself a spill load and
   it has not been spilled already (no spill-store consumer). *)
let spillable ddg v =
  let producer = Ddg.node ddg v in
  let is_spill_load =
    match producer.Ddg.opcode with
    | Opcode.Load (Opcode.Spill _) -> true
    | _ -> false
  in
  let already_spilled =
    List.exists
      (fun e ->
        match (Ddg.node ddg e.Ddg.dst).Ddg.opcode with
        | Opcode.Store (Opcode.Spill _) -> true
        | _ -> false)
      (Ddg.consumers ddg v)
  in
  (not is_spill_load) && not already_spilled

(* Rewrite the graph to spill the value produced by node [v] into spill
   slot [slot] (the caller tracks the next free slot incrementally; it
   must equal [next_spill_slot ddg]). *)
let spill_value ddg ~slot v =
  let consumers = Ddg.consumers ddg v in
  let base = Ddg.num_nodes ddg in
  let store_id = base in
  let store_node = (Opcode.Store (Opcode.Spill slot), Printf.sprintf "sS%d" slot) in
  let load_nodes =
    List.mapi
      (fun i _ -> (Opcode.Load (Opcode.Spill slot), Printf.sprintf "sL%d.%d" slot i))
      consumers
  in
  let reload_edges =
    List.concat
      (List.mapi
         (fun i e ->
           let load_id = base + 1 + i in
           [
             { Ddg.src = store_id; dst = load_id; distance = 0; kind = Ddg.Mem };
             { Ddg.src = load_id; dst = e.Ddg.dst; distance = e.Ddg.distance; kind = Ddg.Flow };
           ])
         consumers)
  in
  let edges =
    { Ddg.src = v; dst = store_id; distance = 0; kind = Ddg.Flow } :: reload_edges
  in
  let drop_edge e = e.Ddg.src = v && e.Ddg.kind = Ddg.Flow in
  Transform_reference.transform ddg ~drop_edge ~add_nodes:(store_node :: load_nodes) ~add_edges:edges ()

let is_spill_load node =
  match node.Ddg.opcode with
  | Opcode.Load (Opcode.Spill _) -> true
  | _ -> false

let schedule_once config ~min_ii ddg =
  let raw = Modulo.schedule_with_min_ii ~min_ii config ddg in
  Adjust_reference.push_late raw ~eligible:is_spill_load

(* Consumer fan-out per node, computed once per graph round: [score]
   would otherwise re-walk [Ddg.consumers] on every call. *)
let consumer_counts ddg =
  Array.init (Ddg.num_nodes ddg) (fun v -> List.length (Ddg.consumers ddg v))

(* Larger score = better victim. *)
let score ~victim ~ii ~consumers l =
  match victim with
  | Longest_lifetime -> (float_of_int (Lifetime.length l), 0.0)
  | Best_ratio ->
    let freed = float_of_int (Lifetime.min_registers ~ii l) in
    (freed /. float_of_int (1 + consumers), float_of_int (Lifetime.length l))
  | Fewest_consumers ->
    (-.float_of_int consumers, float_of_int (Lifetime.length l))

(* Each candidate is scored exactly once; the incumbent's key is kept,
   not recomputed per comparison.  The strict lexicographic [>] keeps
   the first of equal-scoring candidates, as the original fold did. *)
let pick_victim ~victim ~ii ~counts candidates =
  List.fold_left
    (fun acc l ->
      let s = score ~victim ~ii ~consumers:counts.(l.Lifetime.producer) l in
      match acc with
      | None -> Some (l, s)
      | Some (_, best) ->
        let a1, a2 = s and b1, b2 = best in
        if a1 > b1 || (a1 = b1 && a2 > b2) then Some (l, s) else acc)
    None candidates
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
    ?(max_ii_bumps = 32) ddg =
  Fault.point ~stage:"spill" ~key:(Ddg.name ddg);
  let original_memops = Ddg.num_memory_ops ddg in
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
  (* [next_slot] is the next free spill slot, tracked incrementally
     (each spill adds exactly one slot) instead of re-folding the whole
     graph every round; [counts] is the consumer fan-out of the current
     graph.  Both survive II bumps unchanged — the graph does too. *)
  let rec iterate ddg ~min_ii ~spilled ~ii_bumps ~rounds ~last ~next_slot ~counts =
    match
      (* Each round (reschedule + reallocate) is one trace span, nested
         inside the driver's enclosing "spill" span, so a trace shows
         where a diverging point spends its rounds. *)
      Trace.begin_span "spill.round";
      Fun.protect
        ~finally:(fun () -> Trace.end_span "spill.round")
        (fun () ->
          let raw = schedule ~min_ii ddg in
          let sched, req = requirement raw in
          (raw, sched, req))
    with
    | exception Error.Error e when containable e && last <> None ->
      (* The spill code itself made the round infeasible (e.g. a budget
         sized for the original graph).  Degrade to the last completed
         round rather than losing the point. *)
      let last_raw, last_sched, last_req, last_ddg = Option.get last in
      let error =
        diverged ~ii:(Schedule.ii last_sched) ~rounds "round failed: %s"
          (Error.to_string e)
      in
      give_up ~raw:last_raw last_sched last_ddg last_req ~spilled ~ii_bumps ~rounds
        ~error
    | raw, sched, req ->
      if req <= capacity then
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
      else if rounds >= max_rounds then
        give_up ~raw sched ddg req ~spilled ~ii_bumps ~rounds
          ~error:
            (diverged ~ii:(Schedule.ii sched) ~rounds
               "max rounds (%d) reached with requirement %d > capacity %d (%d spilled, %d II bumps)"
               max_rounds req capacity spilled ii_bumps)
      else begin
        (* Pick the longest spillable lifetime of the current schedule. *)
        let lifetimes = Lifetime.of_schedule sched in
        let candidates =
          List.filter (fun l -> spillable ddg l.Lifetime.producer) lifetimes
        in
        match pick_victim ~victim ~ii:(Schedule.ii sched) ~counts candidates with
        | Some l ->
          Log.debug (fun m ->
              m "%s: spilling value of node %d (lifetime %d), req %d > %d" (Ddg.name ddg)
                l.Lifetime.producer (Lifetime.length l) req capacity);
          let last = Some (raw, sched, req, ddg) in
          let ddg = spill_value ddg ~slot:next_slot l.Lifetime.producer in
          assert (next_spill_slot ddg = next_slot + 1);
          iterate ddg ~min_ii ~spilled:(spilled + 1) ~ii_bumps ~rounds:(rounds + 1) ~last
            ~next_slot:(next_slot + 1) ~counts:(consumer_counts ddg)
        | None ->
          if ii_bumps >= max_ii_bumps then
            give_up ~raw sched ddg req ~spilled ~ii_bumps ~rounds
              ~error:
                (diverged ~ii:(Schedule.ii sched) ~rounds
                   "max II bumps (%d) reached with requirement %d > capacity %d and no spill candidate (%d spilled)"
                   max_ii_bumps req capacity spilled)
          else begin
            let bumped = Schedule.ii sched + 1 in
            Log.debug (fun m ->
                m "%s: no spill candidate left, rescheduling at II=%d" (Ddg.name ddg)
                  bumped);
            iterate ddg ~min_ii:bumped ~spilled ~ii_bumps:(ii_bumps + 1)
              ~rounds:(rounds + 1)
              ~last:(Some (raw, sched, req, ddg))
              ~next_slot ~counts
          end
      end
  in
  iterate ddg ~min_ii:1 ~spilled:0 ~ii_bumps:0 ~rounds:0 ~last:None
    ~next_slot:(next_spill_slot ddg) ~counts:(consumer_counts ddg)
