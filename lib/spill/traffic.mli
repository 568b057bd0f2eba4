(** Memory traffic accounting.

    The paper distinguishes {e memory traffic} (total accesses) from the
    {e density of memory traffic}: the fraction of the memory bus
    bandwidth used on average each cycle.  In steady state a loop issues
    its memory operations once per II, so the density of one loop is
    [memops / (ii * bandwidth)]. *)

open Ncdrf_ir
open Ncdrf_sched

(** Loads plus stores per iteration, spill code included. *)
val memops_per_iteration : Ddg.t -> int

(** Density of memory traffic of one scheduled loop whose graph has
    [memops] memory operations ({!memops_per_iteration}, counted once by
    the caller), in [0, 1] on any machine with memory bandwidth.  A loop
    with no memory operations has density 0 regardless of the machine;
    memory traffic on a machine with zero bandwidth is [infinity],
    distinguishing "no traffic" from "no bus". *)
val density : memops:int -> Schedule.t -> float
