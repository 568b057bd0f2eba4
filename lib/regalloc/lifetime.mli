(** Value lifetimes of a modulo schedule.

    Following the paper (Section 2), the lifetime of a value starts when
    its producer is issued and ends when all its consumers finish, so
    that the code stays interruptible/restartable when issued operations
    always run to completion.  A consumer reached through a
    loop-carried edge of distance [d] finishes [d * II] cycles later
    than its same-iteration instance.

    A value with no consumer (dead code) lives until its producer
    finishes writing it. *)

open Ncdrf_sched

type t = {
  producer : int;  (** node id of the defining operation *)
  start : int;  (** issue cycle of the producer *)
  stop : int;  (** cycle at which the last consumer finishes *)
}

val length : t -> int

(** Lifetimes of all value-producing operations (everything but stores),
    in node-id order. *)
val of_schedule : Schedule.t -> t list

(** Number of live instances of the value at a steady-state cycle [c]
    with [c mod ii = slot]: successive definitions are II apart, so this
    is [ceil ((length - r) / ii)] with [r = (slot - start) mod ii]. *)
val live_at_slot : t -> ii:int -> slot:int -> int

(** Maximum over kernel slots of the number of simultaneously live value
    instances — the lower bound on registers that the swapping pass
    uses (paper Section 5.2). *)
val max_live : ii:int -> t list -> int

(** [add_instances row ~ii ~start ~stop] adds one value's live
    instances to [row], a count per kernel slot ([ii] slots): one in
    each of the [(stop - start) mod ii] slots from [start mod ii], and
    returns [(stop - start) / ii], the instances live at every slot.
    The MaxLive of a set of values is the sum of the returns plus the
    largest entry of the row. *)
val add_instances : int array -> ii:int -> start:int -> stop:int -> int

(** [ceil (length / ii)]: registers the value needs on its own. *)
val min_registers : ii:int -> t -> int
