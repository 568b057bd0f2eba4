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
  ddg : Ddg.t;
  config : Config.t;
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
  | Mii_of of int
  | Raw_of of Schedule.t
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
(* Disk payload codecs.  Payloads carry only integers — an II plus
   (cycle, cluster) placement pairs — and schedules are rebuilt through
   [Schedule.make] against the config and graph the caller already
   holds, so nothing structural is trusted from disk.  [Schedule.make]'s
   validation rejecting a payload (graph changed shape under the same
   digest is impossible, but a colliding or hand-edited entry is not)
   reads as a miss. *)

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

let mii_codec =
  ( (function Mii_of m -> string_of_int m | _ -> wrong_stage ()),
    fun str -> Option.map (fun m -> Mii_of m) (int_of_string_opt str) )

let raw_codec ~config ddg =
  ( (function Raw_of s -> encode_schedule s | _ -> wrong_stage ()),
    fun str -> Option.map (fun s -> Raw_of s) (decode_schedule ~config ddg str) )

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

let mii ~config ddg =
  stage_boundary ~stage:"mii" ~config ddg @@ fun () ->
  let compute () =
    Fault.point ~stage:"mii" ~key:(Ddg.name ddg);
    Mii_of (Telemetry.time "mii" (fun () -> Mii.mii config ddg))
  in
  match memo ~loop:(Ddg.name ddg) ~disk:mii_codec (base_key ~config ddg ^ "#mii") compute with
  | Mii_of m ->
    (* Stamped on the ambient point here, after the memo, so the ledger
       sees the MII on cache hits too. *)
    Trace.set_result ~mii:m ();
    m
  | Raw_of _ | View_of _ | Spill_of _ -> wrong_stage ()

let raw_schedule ~config ddg =
  stage_boundary ~stage:"schedule" ~config ddg @@ fun () ->
  let compute () =
    Fault.point ~stage:"schedule" ~key:(Ddg.name ddg);
    Raw_of (Telemetry.time "schedule" (fun () -> Modulo.schedule config ddg))
  in
  match
    memo ~loop:(Ddg.name ddg) ~disk:(raw_codec ~config ddg) (base_key ~config ddg ^ "#raw")
      compute
  with
  | Raw_of s ->
    Trace.set_ii (Schedule.ii s);
    s
  | Mii_of _ | View_of _ | Spill_of _ -> wrong_stage ()

let scheduled ~config ddg =
  { ddg; config; mii = mii ~config ddg; raw = raw_schedule ~config ddg }

let apply_model model sched =
  match model with
  | Model.Ideal | Model.Unified ->
    (sched, Telemetry.time "alloc" (fun () -> Requirements.unified sched))
  | Model.Partitioned ->
    ( sched,
      Telemetry.time "alloc" (fun () ->
          (Requirements.partitioned sched).Requirements.requirement) )
  | Model.Swapped ->
    let swapped, _ = Telemetry.time "swap" (fun () -> Swap.improve sched) in
    ( swapped,
      Telemetry.time "alloc" (fun () ->
          (Requirements.partitioned swapped).Requirements.requirement) )

let count_swaps model before after =
  match model with
  | Model.Swapped ->
    (* A swap exchanges the clusters of two operations, so the swaps
       applied are the pairs of nodes that moved in opposite directions
       between the same two clusters.  A one-sided migration (a node
       whose move has no partner) is not half a swap: pair the moves
       per cluster pair instead of dividing the total, which would
       silently truncate on odd counts. *)
    let n = Ddg.num_nodes before.Schedule.ddg in
    let moves : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
    for v = 0 to n - 1 do
      let b = Schedule.cluster before v and a = Schedule.cluster after v in
      if b <> a then
        Hashtbl.replace moves (b, a)
          (1 + Option.value ~default:0 (Hashtbl.find_opt moves (b, a)))
    done;
    Hashtbl.fold
      (fun (b, a) count acc ->
        if b < a then
          acc + min count (Option.value ~default:0 (Hashtbl.find_opt moves (a, b)))
        else acc)
      moves 0
  | Model.Ideal | Model.Unified | Model.Partitioned -> 0

(* Ideal and Unified apply the same transform (no transform, unified
   allocation), so they share one view entry. *)
let view_tag = function
  | Model.Ideal | Model.Unified -> "unified"
  | Model.Partitioned -> "partitioned"
  | Model.Swapped -> "swapped"

(* A view's input is the schedule, not just the graph: the spiller calls
   it on schedules of intermediate graphs at bumped IIs, so the key
   includes the placements.  They are digested in a fixed-width binary
   encoding — [ii], then each placement's cycle and cluster, 8 bytes
   each — which is injective for a given graph and keeps keys short. *)
let schedule_key sched =
  let placements = sched.Schedule.placements in
  let buf = Bytes.create (8 * (1 + (2 * Array.length placements))) in
  Bytes.set_int64_le buf 0 (Int64.of_int sched.Schedule.ii);
  Array.iteri
    (fun i p ->
      Bytes.set_int64_le buf (8 * (1 + (2 * i))) (Int64.of_int p.Schedule.cycle);
      Bytes.set_int64_le buf (8 * (2 + (2 * i))) (Int64.of_int p.Schedule.cluster))
    placements;
  base_key ~config:sched.Schedule.config sched.Schedule.ddg
  ^ "#view:"
  ^ Digest.to_hex (Digest.bytes buf)

let view_of_schedule ~model sched =
  let ddg = sched.Schedule.ddg in
  stage_boundary ~stage:"alloc" ~config:sched.Schedule.config ddg @@ fun () ->
  let compute () =
    Fault.point ~stage:"alloc" ~key:(Ddg.name ddg);
    let transformed, requirement = apply_model model sched in
    View_of { sched = transformed; requirement; swaps = count_swaps model sched transformed }
  in
  match
    memo ~loop:(Ddg.name ddg)
      ~disk:(view_codec ~config:sched.Schedule.config ddg)
      (schedule_key sched ^ ":" ^ view_tag model)
      compute
  with
  | View_of v -> v
  | Mii_of _ | Raw_of _ | Spill_of _ -> wrong_stage ()

let view t ~model = view_of_schedule ~model t.raw

let is_spill_load node =
  match node.Ddg.opcode with
  | Opcode.Load (Opcode.Spill _) -> true
  | _ -> false

let has_spill_load ddg =
  Ddg.fold_nodes ddg ~init:false ~f:(fun acc n -> acc || is_spill_load n)

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
    let compute () =
      let raw = Modulo.schedule_with_min_ii ~min_ii config ddg in
      Spill_of (Adjust.push_late raw ~eligible:is_spill_load)
    in
    match
      memo ~loop:(Ddg.name ddg) ~disk:(spill_codec ~config ddg)
        (base_key ~config ddg ^ "#spill:" ^ string_of_int min_ii)
        compute
    with
    | Spill_of s -> s
    | Mii_of _ | Raw_of _ | View_of _ -> wrong_stage ()
  end
