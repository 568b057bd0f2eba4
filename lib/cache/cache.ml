module Telemetry = Ncdrf_telemetry.Telemetry
module Trace = Ncdrf_telemetry.Trace

(* A key carries its hash, computed once per lookup: the stripe and the
   stripe's bucket are both read off it, and the table's resizes reuse
   it instead of rehashing the string. *)
module Key = struct
  type t = {
    hash : int;
    key : string;
  }

  let equal a b = a.hash = b.hash && String.equal a.key b.key
  let hash k = k.hash
end

module Tbl = Hashtbl.Make (Key)

type 'a entry = {
  value : 'a;
  mutable last_use : int;  (** stripe-local tick of the most recent use *)
}

type 'a stripe = {
  lock : Mutex.t;
  tbl : 'a entry Tbl.t;
  mutable tick : int;
}

type 'a t = {
  stripes : 'a stripe array;
  per_stripe : int;  (** max entries per stripe *)
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  eviction_count : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
}

let create ?(stripes = 8) ~name ~capacity () =
  if capacity < 1 then invalid_arg (Printf.sprintf "Cache.create %s: capacity < 1" name);
  if stripes < 1 then invalid_arg (Printf.sprintf "Cache.create %s: stripes < 1" name);
  let per_stripe = Int.max 1 ((capacity + stripes - 1) / stripes) in
  {
    stripes =
      Array.init stripes (fun _ -> { lock = Mutex.create (); tbl = Tbl.create 64; tick = 0 });
    per_stripe;
    hit_count = Atomic.make 0;
    miss_count = Atomic.make 0;
    eviction_count = Atomic.make 0;
  }

let key_of key = { Key.hash = Hashtbl.hash key; key }

(* The table picks a bucket from the low bits of the (30-bit) hash, so
   the stripe is picked from the high bits of its Fibonacci product: a
   plain [hash mod stripes] would confine each stripe's keys to one
   residue class of its buckets. *)
let stripe_of t k = t.stripes.(((k.Key.hash * 0x9E3779B1) lsr 32) mod Array.length t.stripes)

let with_lock s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let touch s e =
  s.tick <- s.tick + 1;
  e.last_use <- s.tick

(* Caller holds the stripe lock.  Capacities are small, so a linear scan
   for the LRU entry per eviction is cheaper than maintaining an intrusive
   list would be worth. *)
let evict_over_capacity t s =
  while Tbl.length s.tbl > t.per_stripe do
    let victim =
      Tbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.last_use <= e.last_use -> acc
          | _ -> Some (key, e))
        s.tbl None
    in
    match victim with
    | None -> assert false (* length > capacity >= 1 implies an entry *)
    | Some (key, _) ->
      Tbl.remove s.tbl key;
      Atomic.incr t.eviction_count;
      Telemetry.incr "cache.evictions"
  done

let record_hit t =
  Atomic.incr t.hit_count;
  Telemetry.incr "cache.hits";
  Trace.note_cache ~hit:true

let record_miss t =
  Atomic.incr t.miss_count;
  Telemetry.incr "cache.misses";
  Trace.note_cache ~hit:false

(* The lookup's critical section cannot raise (key equality and the
   tick update are total), so the lock is released without a
   [Fun.protect] closure. *)
let lookup s k =
  Mutex.lock s.lock;
  let found =
    match Tbl.find_opt s.tbl k with
    | Some e ->
      touch s e;
      Some e.value
    | None -> None
  in
  Mutex.unlock s.lock;
  found

let find t ~key =
  let k = key_of key in
  lookup (stripe_of t k) k

let find_or_add t ~key compute =
  let k = key_of key in
  let s = stripe_of t k in
  match lookup s k with
  | Some v ->
    record_hit t;
    v
  | None ->
    (* Compute outside the lock: scheduling a loop can take milliseconds
       and must not serialize the worker domains.  A concurrent insert of
       the same key wins; both values are equal by the purity contract. *)
    let v = compute () in
    record_miss t;
    with_lock s (fun () ->
        match Tbl.find_opt s.tbl k with
        | Some e ->
          touch s e;
          e.value
        | None ->
          s.tick <- s.tick + 1;
          Tbl.replace s.tbl k { value = v; last_use = s.tick };
          evict_over_capacity t s;
          v)

type 'b slot = 'b option Atomic.t

let slot () = Atomic.make None

(* A full slot never empties, so a read needs no lock.  Two domains
   racing on an empty slot may both compute; the first fill wins, and
   both values are equal by the purity contract. *)
let find_or_fill t slot compute =
  match Atomic.get slot with
  | Some v ->
    record_hit t;
    v
  | None -> (
    let v = compute () in
    record_miss t;
    if Atomic.compare_and_set slot None (Some v) then v
    else match Atomic.get slot with Some w -> w | None -> v)

let stats t =
  let size =
    Array.fold_left
      (fun acc s -> acc + with_lock s (fun () -> Tbl.length s.tbl))
      0 t.stripes
  in
  {
    hits = Atomic.get t.hit_count;
    misses = Atomic.get t.miss_count;
    evictions = Atomic.get t.eviction_count;
    size;
  }

(* [Tbl.clear] keeps each stripe's bucket array at the size it grew to,
   so a sweep that clears between passes does not regrow it every pass. *)
let clear t = Array.iter (fun s -> with_lock s (fun () -> Tbl.clear s.tbl)) t.stripes
