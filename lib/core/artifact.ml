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

(* A schedule the cache computed, with one write-once slot per view
   transform: Ideal and Unified apply the same one (no transform,
   unified allocation), so they share a slot. *)
type entry = {
  schedule : Schedule.t;
  unified : view Cache.slot;
  partitioned : view Cache.slot;
  swapped : view Cache.slot;
}

type t = {
  mii : int;
  raw : Schedule.t;
  entry : entry;
}

(* One cache holds both scheduling stages; the variant keeps the table
   monomorphic while the key's stage tag keeps entries distinct.  Views
   have no entry of their own: they fill their schedule's slots. *)
type cached =
  | Raw_of of t
  | Spill_of of entry

let entry_of schedule =
  { schedule; unified = Cache.slot (); partitioned = Cache.slot (); swapped = Cache.slot () }

let entry_schedule e = e.schedule

let default_capacity = 65536

let make_cache capacity =
  Cache.create ~stripes:(Int.max 1 (Int.min 8 capacity)) ~name:"artifact" ~capacity ()

let cache : cached Cache.t ref = ref (make_cache default_capacity)
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

(* The fault point sits in front of the lookup (memo keys do not carry
   the loop name), so an armed "cache" fault fires on hits and misses
   alike.  Exceptions from [compute] propagate uncached — the cache
   never memoizes a failure.  A memory miss goes to the store. *)
let memo ~loop ~codec key compute =
  Fault.point ~stage:"cache" ~key:loop;
  let compute = through_store ~key:(fun () -> key) codec compute in
  if Atomic.get enabled then Cache.find_or_add !cache ~key compute else compute ()

let wrong_stage () = invalid_arg "Artifact: cache key collided across stages"

(* ------------------------------------------------------------------ *)
(* Disk payload codecs.  Payloads carry only integers — a schedule is
   its II plus (cycle, cluster) placement pairs, and the raw and view
   entries put their other integers in front of it, each ended by a
   [!] — and schedules are rebuilt through [Schedule.of_arrays] against
   the config and graph the caller already holds, so nothing structural
   is trusted from disk.  Its validation rejecting a payload
   (graph changed shape under the same digest is impossible, but a
   colliding or hand-edited entry is not) reads as a miss. *)

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

(* [mii!ii|cycle,cluster|...]: an older store's payload, without the
   MII prefix, fails to decode, so it reads as a miss and is
   rewritten. *)
let raw_codec ~config ddg =
  ( (function
    | Raw_of a -> string_of_int a.mii ^ "!" ^ encode_schedule a.raw
    | Spill_of _ -> wrong_stage ()),
    fun str ->
      match String.split_on_char '!' str with
      | [ mii_s; sched_s ] -> (
        match int_of_string_opt mii_s with
        | Some mii ->
          Option.map
            (fun raw -> Raw_of { mii; raw; entry = entry_of raw })
            (decode_schedule ~config ddg sched_s)
        | None -> None)
      | _ -> None )

let spill_codec ~config ddg =
  ( (function Spill_of e -> encode_schedule e.schedule | Raw_of _ -> wrong_stage ()),
    fun str -> Option.map (fun s -> Spill_of (entry_of s)) (decode_schedule ~config ddg str) )

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
let raw_key ~config ddg = base_key ~config ddg ^ "#raw"

let scheduled ~config ddg =
  stage_boundary ~stage:"schedule" ~config ddg @@ fun () ->
  let compute () =
    Fault.point ~stage:"schedule" ~key:(Ddg.name ddg);
    let mii, raw =
      Telemetry.time "schedule" (fun () -> Modulo.schedule_with_mii config ddg)
    in
    Raw_of { mii; raw; entry = entry_of raw }
  in
  match memo ~loop:(Ddg.name ddg) ~codec:(raw_codec ~config ddg) (raw_key ~config ddg) compute with
  | Raw_of a ->
    (* Stamped on the ambient point here, after the memo, so the ledger
       sees them on cache hits too. *)
    if Trace.active () then
      Trace.update (fun p ->
          p.Trace.mii <- Some a.mii;
          p.Trace.ii <- Some (Schedule.ii a.raw));
    a
  | Spill_of _ -> wrong_stage ()

let raw_schedule ~config ddg = (scheduled ~config ddg).raw

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

(* On disk a view's input is the schedule, not just the graph: the
   spiller asks for views of schedules of intermediate graphs at bumped
   IIs, so the key includes the placements.  They are appended as
   zigzag varints — [ii], then each placement's cycle and cluster — so
   small values of either sign take one byte.  Zigzag maps ints
   one-to-one onto unsigned ints (read through [lsr]), a varint ends at
   its first byte below 0x80, and a graph fixes the placement count, so
   the encoding is injective for a given graph. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

let varint_size n =
  let rec go size u = if u lsr 7 = 0 then size else go (size + 1) (u lsr 7) in
  go 1 (zigzag n)

let write_varint buf pos n =
  let u = ref (zigzag n) and pos = ref pos in
  while !u lsr 7 <> 0 do
    Bytes.set buf !pos (Char.chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7;
    incr pos
  done;
  Bytes.set buf !pos (Char.chr !u);
  !pos + 1

let schedule_key sched =
  let prefix = base_key ~config:sched.Schedule.config sched.Schedule.ddg ^ "#view:" in
  let cycles = sched.Schedule.cycles and clusters = sched.Schedule.clusters in
  let size = ref (String.length prefix + varint_size sched.Schedule.ii) in
  for v = 0 to Array.length cycles - 1 do
    size := !size + varint_size cycles.(v) + varint_size clusters.(v)
  done;
  let buf = Bytes.create !size in
  Bytes.blit_string prefix 0 buf 0 (String.length prefix);
  let pos = ref (write_varint buf (String.length prefix) sched.Schedule.ii) in
  for v = 0 to Array.length cycles - 1 do
    pos := write_varint buf (write_varint buf !pos cycles.(v)) clusters.(v)
  done;
  Bytes.unsafe_to_string buf

(* One view lookup: the stage boundary, deadline poll and "cache" fault
   point run on every lookup, hit or miss.  A view of a cached entry
   reads or fills the entry's slot; a view of any other schedule, or
   any view with the cache off, is computed.  Either way a computed
   view goes through the store under the schedule's content key. *)
let view_with shared ~model entry sched =
  let ddg = sched.Schedule.ddg and config = sched.Schedule.config in
  stage_boundary ~stage:"alloc" ~config ddg @@ fun () ->
  Fault.point ~stage:"cache" ~key:(Ddg.name ddg);
  let compute =
    through_store
      ~key:(fun () -> schedule_key sched ^ ":" ^ view_tag model)
      (view_codec ~config ddg)
      (fun () ->
        Fault.point ~stage:"alloc" ~key:(Ddg.name ddg);
        compute_view shared model sched)
  in
  match entry with
  | Some e when Atomic.get enabled -> Cache.find_or_fill !cache (slot_of e model) compute
  | Some _ | None -> compute ()

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
    | Some (Raw_of a) when a.raw == sched -> Some a.entry
    | Some (Raw_of _ | Spill_of _) | None -> None

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
  if min_ii <= 1 && not (has_spill_load ddg) then (scheduled ~config ddg).entry
  else begin
    stage_boundary ~stage:"schedule" ~config ddg @@ fun () ->
    let compute () =
      Spill_of (entry_of (Ncdrf_spill.Spiller.schedule_once config ~min_ii ddg))
    in
    match
      memo ~loop:(Ddg.name ddg) ~codec:(spill_codec ~config ddg)
        (base_key ~config ddg ^ "#spill:" ^ string_of_int min_ii)
        compute
    with
    | Spill_of e -> e
    | Raw_of _ -> wrong_stage ()
  end

let spill_schedule ~config ~min_ii ddg = (spill_entry ~config ~min_ii ddg).schedule

let store_roundtrip codec sched =
  let config = sched.Schedule.config and ddg = sched.Schedule.ddg in
  let through (encode, decode) v = decode (encode v) in
  match codec with
  | `Raw -> (
    let raw = Raw_of { mii = 1; raw = sched; entry = entry_of sched } in
    match through (raw_codec ~config ddg) raw with
    | Some (Raw_of a) -> Some a.raw
    | Some (Spill_of _) | None -> None)
  | `Spill -> (
    match through (spill_codec ~config ddg) (Spill_of (entry_of sched)) with
    | Some (Spill_of e) -> Some e.schedule
    | Some (Raw_of _) | None -> None)
  | `View ->
    Option.map
      (fun v -> v.sched)
      (through (view_codec ~config ddg) { sched; requirement = 0; swaps = 0 })
