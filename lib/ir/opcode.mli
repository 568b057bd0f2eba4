(** Operation codes of the floating-point loop IR.

    The IR models the floating-point loop variants of a software-pipelined
    inner loop, as in Llosa et al. (HPCA'95).  Integer/address computation
    is assumed to happen in the address processor of a decoupled
    architecture and is therefore not represented. *)

(** Memory locations named by loads and stores.  [Array] locations stand
    for streaming array references ([a(i)], one access per iteration);
    [Spill] locations are the stack slots the register spiller
    introduces. *)
type location =
  | Array of string
  | Spill of int

type t =
  | Fadd  (** floating-point addition *)
  | Fsub  (** floating-point subtraction *)
  | Fmul  (** floating-point multiplication *)
  | Fdiv  (** floating-point division (same latency as multiplication) *)
  | Fcvt  (** int<->float conversion, executed by the adders *)
  | Fselect
      (** predicated select, the residue of IF-conversion: picks one of
          two values by the sign of a predicate; runs on the adders *)
  | Load of location
  | Store of location

(** Functional-unit class that executes an opcode.  Additions,
    subtractions and conversions run on the adders; multiplications and
    divisions on the multipliers; loads and stores on memory resources. *)
type fu_class =
  | Adder
  | Multiplier
  | Memory

val fu_class : t -> fu_class

val is_load : t -> bool
val is_store : t -> bool

(** [produces_value op] is [false] exactly for stores, the only opcodes
    that define no register value. *)
val produces_value : t -> bool

(** [is_spill_load op] holds for loads from a {!location.Spill} slot:
    the reloads the spiller inserts. *)
val is_spill_load : t -> bool

val to_string : t -> string
