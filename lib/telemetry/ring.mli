(** A bounded ring buffer: storage grows lazily (doubling from a small
    start) up to a fixed capacity, then the oldest item is overwritten
    by each new one.  The lifetime count of added items stays exact
    however many the ring has dropped.  Not synchronized: one writer at
    a time, readers after the writer has quiesced (or under the
    writer's lock). *)

type 'a t

(** [create ~cap dummy] is an empty ring holding at most [cap] (at
    least 1) items; [dummy] fills unused slots and is never returned. *)
val create : cap:int -> 'a -> 'a t

val add : 'a t -> 'a -> unit

(** Items ever added, including those the ring has overwritten. *)
val added : 'a t -> int

(** Items currently held: [min (added t) cap]. *)
val length : 'a t -> int

(** Items overwritten so far: [added t - length t]. *)
val dropped : 'a t -> int

(** Slots currently allocated (at most the capacity). *)
val allocated : 'a t -> int

(** The held items, oldest first. *)
val to_list : 'a t -> 'a list

(** [percentiles rings] sorts the items held by [rings] once and
    returns the nearest-rank percentile function over them
    ([Stats.percentile]'s rule, [q] in [0, 100]); every percentile of
    empty rings is [0.]. *)
val percentiles : float t list -> float -> float
