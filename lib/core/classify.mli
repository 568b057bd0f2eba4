(** Classification of values for a non-consistent clustered register
    file (paper Section 4.1, generalized to k clusters).

    A value is classified by the clusters of its {e consumers}: if all
    consumers are scheduled in one cluster it can live in that cluster's
    subfile only ([Local]); if consumers span a proper subset of the
    clusters it is replicated exactly in those subfiles ([Shared]); if
    consumers sit in every cluster it is replicated everywhere
    ([Global]).  On a two-cluster machine [Shared] never arises — any
    multi-cluster consumer set covers both clusters — so the dual-file
    classification of the paper is unchanged.  A value without consumers
    is local to its producer's cluster. *)

open Ncdrf_ir
open Ncdrf_sched

type t =
  | Global
  | Shared of int list
      (** sorted consumer-cluster set; [2 <= length < num_clusters] *)
  | Local of int  (** cluster index *)

val pp : Format.formatter -> t -> unit

(** Class of the value produced by node [v].

    @raise Invalid_argument if [v] produces no value (is a store). *)
val value_class : Schedule.t -> int -> t

(** All value-producing nodes with their class, in node order. *)
val classify : Schedule.t -> (Ddg.node * t) list
