(** The four register-file models evaluated by the paper (Section 5.2). *)

type t =
  | Ideal  (** infinite registers: the performance upper bound *)
  | Unified
      (** one multiported register file — equivalently a {e consistent}
          dual register file, which holds identical copies *)
  | Partitioned
      (** non-consistent dual register file, operations assigned to
          clusters by the scheduler alone *)
  | Swapped
      (** [Partitioned] plus the greedy post-scheduling swap pass *)

val all : t list
val to_string : t -> string

(** Inverse of {!to_string}; accepts any case. *)
val of_string : string -> (t, string) result
