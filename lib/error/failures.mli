(** Failure collector for a suite sweep: the bookkeeping behind
    [--keep-going] / [--fail-fast] / [--max-failures N].

    A sweep records every classified failure here instead of dying.
    Each {!record} bumps the matching [errors.<category>] telemetry
    counter (so the [--metrics] JSON gets a per-category block for
    free) and, depending on policy, may abort the run:

    - [fail_fast]: {!record} raises {!Abort} on the first failure;
    - [max_failures n]: {!record} raises {!Abort} once more than [n]
      failures have been recorded.

    Thread-safe; with a worker pool, failures are recorded after the
    map settles, in input order, so manifests are deterministic. *)

exception
  Abort of {
    recorded : int;  (** failures recorded when the threshold tripped *)
    last : Error.t;  (** the failure that tripped it *)
    reason : string;  (** "fail-fast" or "max-failures N" *)
  }

type t

(** [create ()] collects without ever aborting ([--keep-going], the
    default).  [~fail_fast:true] aborts on the first failure;
    [~max_failures:n] aborts after more than [n]. *)
val create : ?fail_fast:bool -> ?max_failures:int -> unit -> t

(** Record one failure (and bump [errors.<category>]).
    @raise Abort per the policy above. *)
val record : t -> Error.t -> unit

val count : t -> int

(** All recorded failures, in record order. *)
val list : t -> Error.t list

(** [(category_name, count)] pairs of an error list, sorted by name,
    only non-zero — the serving client renders failure summaries from
    wire-decoded errors without a collector. *)
val count_by_category : Error.t list -> (string * int) list

(** The failure manifest for the [--metrics] JSON: a list of objects
    with [loop], [stage], [category], [message] and, when present,
    [round] / [ii]. *)
val to_json : t -> Ncdrf_telemetry.Telemetry.Json.t

(** CSV manifest: a header row [loop,stage,category,ii,round,message]
    followed by one row per failure — feed to [Ncdrf_report.Csv.write]
    for an atomic [failures.csv]. *)
val to_csv_rows : t -> string list list

(** {!to_csv_rows} over a bare error list (same header), for manifests
    built from wire-decoded failures. *)
val csv_rows_of_list : Error.t list -> string list list
