(** Observability for the experiment pipeline: monotonic timers, named
    counters, per-stage spans and a JSON metrics emitter.

    Counters live in one global, domain-safe registry (atomic cells).
    Spans have no store of their own: {!time} pushes one frame on the
    calling thread's stage stack in its {!Trace} shard, and that one
    record feeds the span accumulators behind {!spans}/{!to_json}, the
    ambient point's stage times behind the {!Ledger}, and the event
    trace.  Shards are per (domain, thread), so neither pool workers
    nor the daemon's connection handlers serialize or trample each
    other; readers merge them by name and must run after worker
    domains and handler threads have quiesced.  Per-request stage
    times are in the ledger, whose records carry the request id.
    Recording is gated on {!enable} (default off). *)

module Json = Json

(** Monotonic time in seconds since an arbitrary origin.  Differences
    are meaningful; absolute values are not. *)
val now : unit -> float

(** Monotonic time in integer nanoseconds; allocates nothing. *)
val now_ns : unit -> int

(** Turn recording on or off.  Disabled spans and counters cost one
    atomic load; {!time} still runs its thunk. *)
val enable : bool -> unit

(** [incr name] bumps counter [name] by [by] (default 1), creating it
    at zero on first use.  Domain-safe. *)
val incr : ?by:int -> string -> unit

(** Current value of a counter; 0 if never incremented. *)
val counter : string -> int

(** Accumulated statistics of one named span, merged over threads. *)
type span = {
  total_s : float;  (** summed inclusive duration across all records *)
  self_s : float;
      (** summed self time: each record's duration minus the records
          nested in it on the same thread *)
  count : int;  (** number of records *)
  max_s : float;  (** longest single record (inclusive) *)
}

(** [time name f] runs [f ()] and, when enabled, records it as one
    frame of span [name] ({!Trace.stage}): the span gains its
    inclusive and self time, the ambient {!Trace} point its self time
    (the ledger's stage times), and the event trace a B/E pair, as
    those layers are armed.  Exceptions propagate; the frame still
    records.  Disarmed, it costs two atomic loads. *)
val time : string -> (unit -> 'a) -> 'a

(** All spans, sorted by name. *)
val spans : unit -> (string * span) list

(** Number of records of one span; 0 if never recorded.  The compile
    cache's effectiveness criterion — one ["schedule"] record per
    (config, loop) — is asserted against this. *)
val span_count : string -> int

(** All counters, sorted by name. *)
val counters : unit -> (string * int) list

(** Clear every span and counter (the enabled flag is untouched).
    Not safe concurrently with recording. *)
val reset : unit -> unit

(** Every span as one JSON object keyed by name, name-sorted:
    [{name: {"total_s":..,"count":..,"max_s":..,
             "p50_s":..,"p90_s":..,"p99_s":..,"self_s":..}}].
    Percentiles are nearest-rank over the most recent
    {!Trace.sample_cap} inclusive durations of each thread. *)
val spans_json : unit -> Json.t

(** Snapshot of the registry as JSON:
    [{"spans": ]{!spans_json}[, "counters": {name: n}}]. *)
val to_json : unit -> Json.t

(** Write a JSON value to a file atomically (temp file + rename; the
    temp file is unlinked on any failure path). *)
val write_json : path:string -> Json.t -> unit
