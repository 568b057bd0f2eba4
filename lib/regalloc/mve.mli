(** Modulo Variable Expansion (Lam, PLDI'88): register allocation for
    software-pipelined loops {e without} rotating-register hardware.

    The paper assumes a rotating register file (Cydra-5 style), so each
    value needs [q = ceil (length / II)] registers and successive
    definitions are renamed by hardware.  Without that support the
    kernel must be unrolled [u] times and the copies renamed statically:
    value [v] can then cycle through [k_v] registers only if
    [k_v] divides [u], so [k_v] is the smallest divisor of [u] that is
    at least [q_v].

    Classic trade-off:
    - [u = lcm q_v]: minimum registers ([sum q_v]) but largest code;
    - [u = max q_v]: minimum code but potentially many extra registers
      (a prime [u] forces [k_v = u] for every multi-register value).

    This module quantifies that trade-off so the rotating file the paper
    assumes can be compared against the software-only alternative. *)

type allocation = {
  unroll : int;  (** kernel copies *)
  registers : int;  (** sum of per-value register counts *)
  kernel_instructions : int;  (** [unroll * ii] VLIW instructions *)
}

(** Per-value register quanta [ceil (length / II)], in input order. *)
val quanta : ii:int -> Lifetime.t list -> int list

(** Smallest legal unroll: [max q_v] (1 for an empty list). *)
val min_unroll : ii:int -> Lifetime.t list -> int

(** [lcm q_v], saturating at 4096 to keep the result meaningful for
    pathological lifetime mixes. *)
val lcm_unroll : ii:int -> Lifetime.t list -> int

(** Registers needed at a given unroll factor.

    @raise Invalid_argument if [unroll] is below {!min_unroll}. *)
val registers : ii:int -> unroll:int -> Lifetime.t list -> int

(** The allocation minimising registers (ties: fewer kernel copies) over
    unrolls from {!min_unroll} to [min (lcm_unroll) 64]. *)
val best : ii:int -> Lifetime.t list -> allocation
