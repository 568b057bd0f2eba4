(** The paper's evaluation behind [ncdrf bench]: the worked example
    (Tables 2-4, Figures 3-5), Table 1, Figures 6-9, and ablations and
    extensions beyond the paper, over the synthetic suite. *)

open Ncdrf_machine
open Ncdrf_core

(** One run's context: every experiment shares its pool, failure
    collector, machine, suite and Figure 8/9 performance grid. *)
type t

(** [create ... suite] sets up a run.  [machine ~latency] is the
    machine under test at an FP latency (each experiment picks its
    own); [suite] is forced by the first experiment that needs it.
    [csv_dir] mirrors every figure's series to CSV files there. *)
val create :
  pool:Ncdrf_parallel.Pool.t ->
  failures:Ncdrf_error.Failures.t ->
  timeout_s:float option ->
  machine:(latency:int -> Config.t) ->
  csv_dir:string option ->
  Suite_stats.workload list Lazy.t ->
  t

(** Experiment ids, in the order a run with none selected uses. *)
val names : string list

(** [run t ~metrics ~size ~seed names] runs the experiments [names]
    in order, prints the failure summary, and with [metrics] writes an
    ["ncdrf-bench-metrics/1"] report (wall clock, stage spans and
    counters per experiment) to that path.  [size] and [seed] describe
    the suite in that report. *)
val run : t -> metrics:string option -> size:int -> seed:int -> string list -> unit
