(** Fixed-size domain worker pool for the suite runner.

    The paper's evaluation maps an independent compile pipeline over
    ~800 loops; this pool spreads that map across OCaml 5 domains.  The
    design constraints, in order:

    - {b determinism}: results come back ordered by input index, so a
      parallel map is observably identical to [List.map] whatever the
      completion order of the workers;
    - {b fault isolation}: an exception inside one item is captured with
      that item's label and re-raised {e after} every other item has
      settled, so one bad loop names itself instead of killing the
      sweep;
    - {b simplicity}: a single [Mutex]/[Condition]-protected queue feeds
      persistent worker domains; jobs are closures, the pool is reused
      across maps.

    A pool of [jobs <= 1] spawns no domains and maps serially on the
    calling domain — the degenerate case used as the baseline for
    speedup measurements. *)

type t

(** [Domain.recommended_domain_count ()] — the default worker count. *)
val default_jobs : unit -> int

(** [create ~jobs ()] starts [jobs - 1] worker domains ([jobs] counts
    the calling domain, which also executes items during {!map}).
    [jobs <= 1] creates a serial pool.  Each worker registers its pool
    slot (1-based; the calling domain is slot 0) as its trace track via
    [Ncdrf_telemetry.Trace.set_track], so event traces get one stable
    track per executor instead of one per spawned domain. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** True iff the pool runs everything on the calling domain. *)
val is_serial : t -> bool

(** Raised by {!map} after the whole input has settled when at least
    one item failed: the labels and exception messages of every failing
    item, in input order. *)
exception
  Worker_failure of {
    failures : (string * string) list;  (** (item label, error) *)
  }

(** [map t ~label f xs] applies [f] to every element, in parallel on
    the pool's domains, and returns the results in input order.
    Raises {!Worker_failure} if any item raised; [label] (default a
    positional ["item %d"]) names the culprits.

    The submitting thread's ambient request id
    ([Ncdrf_telemetry.Trace.with_request]) and deadline tokens
    ([Ncdrf_error.Deadline.with_token]) are captured at submission and
    re-installed around every job, so trace events and ledger records
    produced by pool workers stay attributed to the daemon request that
    submitted the map, and its deadline and cancellation reach them. *)
val map : t -> ?label:('a -> string) -> ('a -> 'b) -> 'a list -> 'b list

(** Like {!map} but returns per-item outcomes instead of raising:
    [Error (label, exn)] for items whose [f] raised, with the exception
    value itself — the suite runner classifies failures
    ({!Ncdrf_error.Error.classify_exn}) after the map settles, in input
    order, which needs the original exception. *)
val try_map_exn :
  t -> ?label:('a -> string) -> ('a -> 'b) -> 'a list ->
  ('b, string * exn) result list

(** Stop and join the worker domains.  Idempotent; a shut-down pool
    maps serially. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f pool] and guarantees shutdown. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
