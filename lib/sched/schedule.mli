(** Modulo schedules.

    A schedule assigns every operation an absolute issue cycle (of the
    first iteration) and a cluster.  The same pattern repeats every
    [ii] cycles; operation [v] of iteration [k] issues at
    [cycle v + k * ii]. *)

open Ncdrf_ir
open Ncdrf_machine

type placement = {
  cycle : int;
  cluster : int;
}

(** The placements are stored flat, one int array per field, both
    indexed by node id. *)
type t = private {
  ddg : Ddg.t;
  config : Config.t;
  ii : int;
  cycles : int array;
  clusters : int array;
}

(** [make ~config ~ii ~placements ddg] checks array length and basic
    ranges; dependence/resource consistency is checked by {!validate}. *)
val make : config:Config.t -> ii:int -> placements:placement array -> Ddg.t -> t

(** {!make} from the two arrays, which the schedule then owns: the
    caller must not mutate them afterwards.  Same checks. *)
val of_arrays :
  config:Config.t -> ii:int -> cycles:int array -> clusters:int array -> Ddg.t -> t

(** The placements as records, indexed by node id (a fresh array). *)
val placements : t -> placement array

val ii : t -> int
val cycle : t -> int -> int
val cluster : t -> int -> int

(** Number of pipeline stages: the kernel executes this many iterations
    concurrently in steady state. *)
val stages : t -> int

(** A copy with all cycles shifted so the earliest operation issues at
    cycle 0 (uniform shifts preserve validity). *)
val normalize : t -> t

(** A copy with the clusters of two operations exchanged.  Used by the
    swapping pass; the caller is responsible for only swapping
    operations of the same functional-unit class in the same kernel
    slot, which keeps the schedule resource-valid. *)
val swap_clusters : t -> int -> int -> t

(** Check every dependence edge and rebuild a reservation table to check
    resource constraints (including port caps). *)
val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
