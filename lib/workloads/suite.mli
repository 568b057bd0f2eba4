(** The "Perfect-Club-like" loop suite.

    The paper schedules ~795 floating-point single-basic-block inner
    loops from the Perfect Club, weighted by measured execution counts.
    This suite substitutes a deterministic collection of the same scale:
    the named kernels plus seeded generated loops, with heavy-tailed
    iteration weights (a few loops dominate execution time, as in the
    paper's Figure 7). *)

open Ncdrf_ir

type entry = {
  ddg : Ddg.t;
  iterations : float;  (** dynamic weight *)
  generated : bool;
}

(** [full ()] is the default suite: exactly [size] loops (default 795,
    the paper's count), the 48 named kernels (the paper example plus
    the DSL kernels) first, then generated loops; a [size] below 48
    keeps the first [size] named kernels.  Deterministic for a given
    [seed] (default 42).

    @raise Invalid_argument if [size < 0]. *)
val full : ?size:int -> ?seed:int -> unit -> entry list

(** Total weighted execution share of the [n] heaviest loops — used in
    tests to check the weight distribution is heavy-tailed. *)
val weight_share : entry list -> n:int -> float
