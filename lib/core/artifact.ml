open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
module Cache = Ncdrf_cache.Cache
module Store = Ncdrf_cache.Store
module Telemetry = Ncdrf_telemetry.Telemetry
module Error = Ncdrf_error.Error
module Fault = Ncdrf_fault.Fault
module Trace = Ncdrf_telemetry.Trace

type view = {
  sched : Schedule.t;
  requirement : int;
  swaps : int;
}

(* A schedule the cache computed — a (config, loop)'s raw schedule or
   one spill round's — under its store key, with the bound its II
   search started from and one write-once slot per view transform:
   Ideal and Unified apply the same one (no transform, unified
   allocation), so they share a slot.  On disk a view is stored under
   the entry's key plus its slot's tag. *)
type entry = {
  key : string;
  bound : int;
  schedule : Schedule.t;
  unified : view Cache.slot;
  partitioned : view Cache.slot;
  swapped : view Cache.slot;
}

let entry_of ~key ~bound schedule =
  {
    key;
    bound;
    schedule;
    unified = Cache.slot ();
    partitioned = Cache.slot ();
    swapped = Cache.slot ();
  }

let entry_bound e = e.bound
let entry_schedule e = e.schedule

let default_capacity = 65536

let make_cache capacity =
  Cache.create ~stripes:(Int.max 1 (Int.min 8 capacity)) ~name:"artifact" ~capacity ()

let cache : entry Cache.t ref = ref (make_cache default_capacity)
let enabled = Atomic.make true

let set_cache_enabled b = Atomic.set enabled b
let set_cache_capacity capacity = cache := make_cache capacity
let clear_cache () = Cache.clear !cache
let cache_stats () = Cache.stats !cache

(* When an ambient disk store is open, [compute] consults it first: a
   disk hit decodes the stored artifact (skipping the compute and its
   stage spans), a disk miss computes and then publishes the encoding.
   Decoding is total — any malformed payload is [None], i.e. a miss —
   so a corrupt store entry can only cost a recompute.  [key] is only
   built when a store is open. *)
let through_store ~key (encode, decode) compute () =
  match Store.ambient () with
  | None -> compute ()
  | Some store -> (
    let key = key () in
    match Store.load store ~key ~decode with
    | Some v -> v
    | None ->
      let v = compute () in
      Store.save store ~key (encode v);
      v)

(* ------------------------------------------------------------------ *)
(* Disk payload codecs.  Payloads carry only integers — a schedule is
   its II plus (cycle, cluster) placement pairs, and an entry puts its
   bound and a view its requirement and swaps in front of it, each
   ended by a [!] — and schedules are rebuilt through
   [Schedule.of_arrays] against the config and graph the caller already
   holds, so nothing structural is trusted from disk.  Its validation
   rejecting a payload (graph changed shape under the same digest is
   impossible, but a colliding or hand-edited entry is not) reads as a
   miss. *)

let encode_schedule s =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int s.Schedule.ii);
  Array.iteri
    (fun v cycle ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int cycle);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int s.Schedule.clusters.(v)))
    s.Schedule.cycles;
  Buffer.contents buf

let decode_schedule ~config ddg str =
  match String.split_on_char '|' str with
  | [] -> None
  | ii_s :: cells -> (
    match int_of_string_opt ii_s with
    | None -> None
    | Some ii ->
      let n = Ddg.num_nodes ddg in
      let cycles = Array.make n 0 and clusters = Array.make n 0 in
      let rec fill v = function
        | [] -> v = n
        | cell :: rest -> (
          v < n
          &&
          match String.split_on_char ',' cell with
          | [ c; k ] -> (
            match (int_of_string_opt c, int_of_string_opt k) with
            | Some cycle, Some cluster ->
              cycles.(v) <- cycle;
              clusters.(v) <- cluster;
              fill (v + 1) rest
            | _ -> false)
          | _ -> false)
      in
      if not (fill 0 cells) then None
      else
        match Schedule.of_arrays ~config ~ii ~cycles ~clusters ddg with
        | s -> Some s
        | exception Invalid_argument _ -> None)

(* [bound!ii|cycle,cluster|...], for raw and spill entries alike.  A
   payload without the bound (an older store's spill round) fails to
   decode, so it reads as a miss and is rewritten. *)
let entry_codec ~config ~key ddg =
  ( (fun e -> string_of_int e.bound ^ "!" ^ encode_schedule e.schedule),
    fun str ->
      match String.split_on_char '!' str with
      | [ bound_s; sched_s ] -> (
        match int_of_string_opt bound_s with
        | Some bound -> Option.map (entry_of ~key ~bound) (decode_schedule ~config ddg sched_s)
        | None -> None)
      | _ -> None )

let view_codec ~config ddg =
  ( (fun v -> Printf.sprintf "%d!%d!%s" v.requirement v.swaps (encode_schedule v.sched)),
    fun str ->
      match String.split_on_char '!' str with
      | [ req_s; swaps_s; sched_s ] -> (
        match (int_of_string_opt req_s, int_of_string_opt swaps_s) with
        | Some requirement, Some swaps ->
          Option.map
            (fun sched -> { sched; requirement; swaps })
            (decode_schedule ~config ddg sched_s)
        | _ -> None)
      | _ -> None )

(* Key layout: config fingerprint + '\x01' + ddg digest + '#stage'.
   Fingerprint and digest are both injective serializations, so equal
   keys mean equal compilation inputs. *)
let base_key ~config ddg = Config.fingerprint config ^ "\x01" ^ Ddg.digest ddg

let raw_key ~config ddg = base_key ~config ddg ^ "#raw"

(* One entry lookup; on a miss [schedule ()] gives the bound and the
   schedule.  The fault point sits in front of the lookup (keys do not
   carry the loop name), so an armed "cache" fault fires on hits and
   misses alike.  Exceptions from [schedule] propagate uncached — the
   cache never memoizes a failure.  A memory miss goes to the store. *)
let memo ~config ddg ~key schedule =
  Fault.point ~stage:"cache" ~key:(Ddg.name ddg);
  let compute () =
    let bound, s = schedule () in
    entry_of ~key ~bound s
  in
  let compute = through_store ~key:(fun () -> key) (entry_codec ~config ~key ddg) compute in
  if Atomic.get enabled then Cache.find_or_add !cache ~key compute else compute ()

(* Each stage runs inside an [Error.boundary], so whatever escapes a
   stage is a classified [Error.Error] carrying the loop name and config
   fingerprint — never a raw exception.  Stage entry is also the
   canonical deadline poll: an expired or canceled request dies here
   with a typed error before the stage spends any work (a no-op unless
   a deadline token is ambiently installed). *)
let stage_boundary ~stage ~config ddg f =
  Error.boundary ~stage ~loop:(Ddg.name ddg) ~config:(Config.fingerprint config)
    (fun () ->
      Ncdrf_error.Deadline.check ~stage;
      f ())

(* The one scheduling stage of a (config, loop) point: the MII is the
   bound the scheduler's II search started from, so it is kept with the
   schedule instead of being computed again. *)
let scheduled ~config ddg =
  stage_boundary ~stage:"schedule" ~config ddg @@ fun () ->
  let e =
    memo ~config ddg ~key:(raw_key ~config ddg) (fun () ->
        Fault.point ~stage:"schedule" ~key:(Ddg.name ddg);
        Telemetry.time "schedule" (fun () -> Modulo.schedule_with_mii config ddg))
  in
  (* Stamped on the ambient point here, after the memo, so the ledger
     sees them on cache hits too. *)
  if Trace.active () then
    Trace.update (fun p ->
        p.Trace.mii <- Some e.bound;
        p.Trace.ii <- Some (Schedule.ii e.schedule));
  e

let raw_schedule ~config ddg = (scheduled ~config ddg).schedule

let count_swaps model before after =
  match model with
  | Model.Swapped when before != after ->
    (* A swap exchanges the clusters of two operations, so the swaps
       applied are the pairs of nodes that moved in opposite directions
       between the same two clusters.  A one-sided migration (a node
       whose move has no partner) is not half a swap: pair the moves
       per cluster pair instead of dividing the total, which would
       silently truncate on odd counts. *)
    let k = Config.num_clusters before.Schedule.config in
    let moves = Array.make (k * k) 0 in
    for v = 0 to Ddg.num_nodes before.Schedule.ddg - 1 do
      let b = Schedule.cluster before v and a = Schedule.cluster after v in
      if b <> a then moves.((b * k) + a) <- moves.((b * k) + a) + 1
    done;
    let swaps = ref 0 in
    for b = 0 to k - 1 do
      for a = b + 1 to k - 1 do
        swaps := !swaps + Int.min moves.((b * k) + a) moves.((a * k) + b)
      done
    done;
    !swaps
  | Model.Swapped | Model.Ideal | Model.Unified | Model.Partitioned -> 0

(* What the views of one schedule share within one call: the analysis
   of its cycles, built by the first view computed, and its Partitioned
   requirement, which a Swapped view whose pass applies no swap reuses
   (the pass then returns the schedule itself).  The analysis also
   holds the schedule's occupancy, which bounds the Partitioned search
   and starts the swap pass; the pass's final occupancy bounds the
   Swapped search.  Nothing here outlives the call or is cached. *)
type shared = {
  analysis : Requirements.analysis Lazy.t;
  partitioned : int Lazy.t;
}

let shared_of sched =
  let analysis = lazy (Requirements.analyse sched) in
  {
    analysis;
    partitioned =
      lazy
        (let a = Lazy.force analysis in
         Requirements.requirement_of a (Requirements.occupancy_of a sched));
  }

let compute_view shared model sched =
  match model with
  | Model.Ideal | Model.Unified ->
    let requirement =
      Telemetry.time "alloc" (fun () ->
          Requirements.unified_of (Lazy.force shared.analysis))
    in
    { sched; requirement; swaps = 0 }
  | Model.Partitioned ->
    let requirement = Telemetry.time "alloc" (fun () -> Lazy.force shared.partitioned) in
    { sched; requirement; swaps = 0 }
  | Model.Swapped ->
    let swapped, _, occupancy =
      Telemetry.time "swap" (fun () ->
          Swap.improve_occupancy (Lazy.force shared.analysis) sched)
    in
    let requirement =
      Telemetry.time "alloc" (fun () ->
          if swapped == sched then Lazy.force shared.partitioned
          else Requirements.requirement_of (Lazy.force shared.analysis) occupancy)
    in
    { sched = swapped; requirement; swaps = count_swaps model sched swapped }

let view_tag = function
  | Model.Ideal | Model.Unified -> "unified"
  | Model.Partitioned -> "partitioned"
  | Model.Swapped -> "swapped"

let slot_of e = function
  | Model.Ideal | Model.Unified -> e.unified
  | Model.Partitioned -> e.partitioned
  | Model.Swapped -> e.swapped

(* One view lookup: the stage boundary, deadline poll and "cache" fault
   point run on every lookup, hit or miss.  A view of an entry reads or
   fills the entry's slot (or, with the cache off, is computed), going
   through the store under the entry's key and the slot's tag; a view
   of a schedule no entry holds is computed without either tier. *)
let view_with shared ~model entry sched =
  let ddg = sched.Schedule.ddg and config = sched.Schedule.config in
  stage_boundary ~stage:"alloc" ~config ddg @@ fun () ->
  Fault.point ~stage:"cache" ~key:(Ddg.name ddg);
  let compute () =
    Fault.point ~stage:"alloc" ~key:(Ddg.name ddg);
    compute_view shared model sched
  in
  match entry with
  | None -> compute ()
  | Some e ->
    let compute =
      through_store ~key:(fun () -> e.key ^ ":" ^ view_tag model) (view_codec ~config ddg) compute
    in
    if Atomic.get enabled then Cache.find_or_fill !cache (slot_of e model) compute
    else compute ()

let view ~model e = view_with (shared_of e.schedule) ~model (Some e) e.schedule

let views ~models e =
  let shared = shared_of e.schedule in
  List.map (fun model -> view_with shared ~model (Some e) e.schedule) models

(* The entry holding [sched], if the cache holds one: the raw entry of
   its (config, graph) when that entry's schedule is [sched] itself.
   The peek counts neither a hit nor a miss. *)
let held sched =
  if not (Atomic.get enabled) then None
  else
    match
      Cache.find !cache ~key:(raw_key ~config:sched.Schedule.config sched.Schedule.ddg)
    with
    | Some e when e.schedule == sched -> Some e
    | Some _ | None -> None

let view_of_schedule ~model sched =
  view_with (shared_of sched) ~model (held sched) sched

let has_spill_load ddg =
  Ddg.fold_nodes ddg ~init:false ~f:(fun acc n -> acc || Opcode.is_spill_load n.Ddg.opcode)

(* The spiller's scheduling step (Spiller.run's default), memoized.  No
   "schedule" span here: spiller rounds are profiled by the enclosing
   "spill" span, as before the cache existed.

   Round 0 of a capacity run asks for the original graph at min_ii 1:
   that is exactly {!raw_schedule} — [schedule_with_min_ii ~min_ii:1]
   starts the II search at the MII like [schedule], and [push_late]
   over a graph with no spill loads moves nothing (normalize is
   idempotent, so the result is structurally identical).  Delegating
   shares the "#raw" entry, and its views, instead of computing the
   same schedule twice under two keys. *)
let spill_entry ~config ~min_ii ddg =
  if min_ii <= 1 && not (has_spill_load ddg) then scheduled ~config ddg
  else
    stage_boundary ~stage:"schedule" ~config ddg @@ fun () ->
    memo ~config ddg
      ~key:(base_key ~config ddg ^ "#spill:" ^ string_of_int min_ii)
      (fun () -> Ncdrf_spill.Spiller.schedule_once config ~min_ii ddg)

let spill_schedule ~config ~min_ii ddg = (spill_entry ~config ~min_ii ddg).schedule

let store_roundtrip codec sched =
  let config = sched.Schedule.config and ddg = sched.Schedule.ddg in
  let through (encode, decode) v = decode (encode v) in
  match codec with
  | `Entry ->
    Option.map entry_schedule
      (through (entry_codec ~config ~key:"" ddg) (entry_of ~key:"" ~bound:1 sched))
  | `View ->
    Option.map
      (fun v -> v.sched)
      (through (view_codec ~config ddg) { sched; requirement = 0; swaps = 0 })
