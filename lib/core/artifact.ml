open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched
module Cache = Ncdrf_cache.Cache
module Store = Ncdrf_cache.Store
module Telemetry = Ncdrf_telemetry.Telemetry
module Error = Ncdrf_error.Error
module Fault = Ncdrf_fault.Fault
module Trace = Ncdrf_telemetry.Trace

type t = {
  mii : int;
  raw : Schedule.t;
}

type view = {
  sched : Schedule.t;
  requirement : int;
  swaps : int;
}

(* One cache holds every stage; the variant keeps the table monomorphic
   while the key's stage tag keeps entries distinct. *)
type cached =
  | Raw_of of int * Schedule.t
  | View_of of view
  | Spill_of of Schedule.t

let default_capacity = 65536

let make_cache capacity =
  Cache.create ~stripes:(max 1 (min 8 capacity)) ~name:"artifact" ~capacity ()

let cache : cached Cache.t ref = ref (make_cache default_capacity)
let enabled = Atomic.make true

let set_cache_enabled b = Atomic.set enabled b
let cache_enabled () = Atomic.get enabled
let set_cache_capacity capacity = cache := make_cache capacity
let clear_cache () = Cache.clear !cache
let cache_stats () = Cache.stats !cache

(* The fault point sits in front of the lookup (memo keys do not carry
   the loop name), so an armed "cache" fault fires on hits and misses
   alike.  Exceptions from [compute] propagate uncached — the cache
   never memoizes a failure.

   When an ambient disk store is open, a memory miss consults it before
   computing: a disk hit decodes the stored artifact (skipping the
   compute and its stage spans), a disk miss computes and then publishes
   the encoding.  Decoding is total — any malformed payload is [None],
   i.e. a miss — so a corrupt store entry can only cost a recompute. *)
let memo ~loop ?disk key compute =
  Fault.point ~stage:"cache" ~key:loop;
  let compute =
    match disk with
    | None -> compute
    | Some (encode, decode) -> (
      fun () ->
        match Store.ambient () with
        | None -> compute ()
        | Some store -> (
          match Store.load store ~key ~decode with
          | Some v -> v
          | None ->
            let v = compute () in
            Store.save store ~key (encode v);
            v))
  in
  if Atomic.get enabled then Cache.find_or_add !cache ~key compute else compute ()

let wrong_stage () = invalid_arg "Artifact: cache key collided across stages"

(* ------------------------------------------------------------------ *)
(* Disk payload codecs.  Payloads carry only integers — a schedule is
   its II plus (cycle, cluster) placement pairs, and the raw and view
   entries put their other integers in front of it, each ended by a
   [!] — and schedules are rebuilt through [Schedule.make] against the
   config and graph the caller already holds, so nothing structural is
   trusted from disk.  [Schedule.make]'s validation rejecting a payload
   (graph changed shape under the same digest is impossible, but a
   colliding or hand-edited entry is not) reads as a miss. *)

let encode_schedule s =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int s.Schedule.ii);
  Array.iter
    (fun p ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (string_of_int p.Schedule.cycle);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int p.Schedule.cluster))
    s.Schedule.placements;
  Buffer.contents buf

let decode_schedule ~config ddg str =
  match String.split_on_char '|' str with
  | [] -> None
  | ii_s :: cells ->
    (match int_of_string_opt ii_s with
    | None -> None
    | Some ii ->
      if List.length cells <> Ddg.num_nodes ddg then None
      else begin
        let ok = ref true in
        let placements =
          Array.of_list
            (List.map
               (fun cell ->
                 match String.split_on_char ',' cell with
                 | [ c; k ] -> (
                   match (int_of_string_opt c, int_of_string_opt k) with
                   | Some cycle, Some cluster -> { Schedule.cycle; cluster }
                   | _ ->
                     ok := false;
                     { Schedule.cycle = 0; cluster = 0 })
                 | _ ->
                   ok := false;
                   { Schedule.cycle = 0; cluster = 0 })
               cells)
        in
        if not !ok then None
        else
          match Schedule.make ~config ~ii ~placements ddg with
          | s -> Some s
          | exception Invalid_argument _ -> None
      end)

(* [mii!ii|cycle,cluster|...]: an older store's payload, without the
   MII prefix, fails to decode, so it reads as a miss and is
   rewritten. *)
let raw_codec ~config ddg =
  ( (function
    | Raw_of (mii, s) -> string_of_int mii ^ "!" ^ encode_schedule s
    | _ -> wrong_stage ()),
    fun str ->
      match String.split_on_char '!' str with
      | [ mii_s; sched_s ] -> (
        match int_of_string_opt mii_s with
        | Some mii ->
          Option.map (fun s -> Raw_of (mii, s)) (decode_schedule ~config ddg sched_s)
        | None -> None)
      | _ -> None )

let spill_codec ~config ddg =
  ( (function Spill_of s -> encode_schedule s | _ -> wrong_stage ()),
    fun str -> Option.map (fun s -> Spill_of s) (decode_schedule ~config ddg str) )

let view_codec ~config ddg =
  ( (function
    | View_of v ->
      Printf.sprintf "%d!%d!%s" v.requirement v.swaps (encode_schedule v.sched)
    | _ -> wrong_stage ()),
    fun str ->
      match String.split_on_char '!' str with
      | [ req_s; swaps_s; sched_s ] -> (
        match (int_of_string_opt req_s, int_of_string_opt swaps_s) with
        | Some requirement, Some swaps ->
          Option.map
            (fun sched -> View_of { sched; requirement; swaps })
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
let scheduled ~config ddg =
  stage_boundary ~stage:"schedule" ~config ddg @@ fun () ->
  let compute () =
    Fault.point ~stage:"schedule" ~key:(Ddg.name ddg);
    let mii, raw =
      Telemetry.time "schedule" (fun () -> Modulo.schedule_with_mii config ddg)
    in
    Raw_of (mii, raw)
  in
  match
    memo ~loop:(Ddg.name ddg) ~disk:(raw_codec ~config ddg) (base_key ~config ddg ^ "#raw")
      compute
  with
  | Raw_of (mii, raw) ->
    (* Stamped on the ambient point here, after the memo, so the ledger
       sees them on cache hits too. *)
    Trace.set_result ~mii ~ii:(Schedule.ii raw) ();
    { mii; raw }
  | View_of _ | Spill_of _ -> wrong_stage ()

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
        swaps := !swaps + min moves.((b * k) + a) moves.((a * k) + b)
      done
    done;
    !swaps
  | Model.Swapped | Model.Ideal | Model.Unified | Model.Partitioned -> 0

(* What the views of one schedule share within one call: the analysis
   of its cycles, built by the first view computed, and its Partitioned
   requirement, which a Swapped view whose pass applies no swap reuses
   (the pass then returns the schedule itself).  Nothing here outlives
   the call or is cached. *)
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
        (Requirements.partitioned_of (Lazy.force analysis) sched).Requirements.requirement;
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
    let swapped, _ =
      Telemetry.time "swap" (fun () ->
          Swap.improve ~analysis:(Lazy.force shared.analysis) sched)
    in
    let requirement =
      Telemetry.time "alloc" (fun () ->
          if swapped == sched then Lazy.force shared.partitioned
          else
            (Requirements.partitioned_of (Lazy.force shared.analysis) swapped)
              .Requirements.requirement)
    in
    { sched = swapped; requirement; swaps = count_swaps model sched swapped }

let apply_model model sched =
  let v = compute_view (shared_of sched) model sched in
  (v.sched, v.requirement)

(* Ideal and Unified apply the same transform (no transform, unified
   allocation), so they share one view entry. *)
let view_tag = function
  | Model.Ideal | Model.Unified -> "unified"
  | Model.Partitioned -> "partitioned"
  | Model.Swapped -> "swapped"

(* A view's input is the schedule, not just the graph: the spiller calls
   it on schedules of intermediate graphs at bumped IIs, so the key
   includes the placements.  They are appended as zigzag varints —
   [ii], then each placement's cycle and cluster — so small values of
   either sign take one byte.  Zigzag maps ints one-to-one onto
   unsigned ints (read through [lsr]), a varint ends at its first byte
   below 0x80, and a graph fixes the placement count, so the encoding
   is injective for a given graph. *)
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
  let placements = sched.Schedule.placements in
  let size = ref (String.length prefix + varint_size sched.Schedule.ii) in
  Array.iter
    (fun p -> size := !size + varint_size p.Schedule.cycle + varint_size p.Schedule.cluster)
    placements;
  let buf = Bytes.create !size in
  Bytes.blit_string prefix 0 buf 0 (String.length prefix);
  let pos = ref (write_varint buf (String.length prefix) sched.Schedule.ii) in
  Array.iter
    (fun p -> pos := write_varint buf (write_varint buf !pos p.Schedule.cycle) p.Schedule.cluster)
    placements;
  Bytes.unsafe_to_string buf

let view_with shared ~key ~model sched =
  let ddg = sched.Schedule.ddg in
  stage_boundary ~stage:"alloc" ~config:sched.Schedule.config ddg @@ fun () ->
  let compute () =
    Fault.point ~stage:"alloc" ~key:(Ddg.name ddg);
    View_of (compute_view shared model sched)
  in
  match
    memo ~loop:(Ddg.name ddg)
      ~disk:(view_codec ~config:sched.Schedule.config ddg)
      (key ^ ":" ^ view_tag model)
      compute
  with
  | View_of v -> v
  | Raw_of _ | Spill_of _ -> wrong_stage ()

let view_of_schedule ~model sched =
  view_with (shared_of sched) ~key:(schedule_key sched) ~model sched

let views_of_schedule ~models sched =
  let shared = shared_of sched and key = schedule_key sched in
  List.map (fun model -> view_with shared ~key ~model sched) models

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
   shares the "#raw" memo entry instead of computing the same schedule
   twice under two keys. *)
let spill_schedule ~config ~min_ii ddg =
  if min_ii <= 1 && not (has_spill_load ddg) then raw_schedule ~config ddg
  else begin
    stage_boundary ~stage:"schedule" ~config ddg @@ fun () ->
    let compute () = Spill_of (Ncdrf_spill.Spiller.schedule_once config ~min_ii ddg) in
    match
      memo ~loop:(Ddg.name ddg) ~disk:(spill_codec ~config ddg)
        (base_key ~config ddg ^ "#spill:" ^ string_of_int min_ii)
        compute
    with
    | Spill_of s -> s
    | Raw_of _ | View_of _ -> wrong_stage ()
  end
