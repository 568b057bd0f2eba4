(** ASCII lifetime charts.

    Renders the space-time picture behind the register-requirement
    numbers: one row per value, bars spanning issue-to-last-use, the
    value's class (GL / LO / RO) under the dual-file model, and a
    per-kernel-slot MaxLive footer.  Used by the examples and the CLI to
    make schedules inspectable. *)

open Ncdrf_sched

(** [render sched] draws every value's lifetime against absolute cycles
    of the first iteration, at most 72 columns wide; longer spans are
    scaled down. *)
val render : Schedule.t -> string
