(** Merging shard outputs back into one run.

    A sharded suite ([--shard i/N]) produces per-shard metrics JSONs and
    per-shard ledgers.  This module unions them: counters and span
    counts sum, span maxima take the max, percentiles merge by
    count-weighted average (an approximation — the raw samples are not
    in the files — but percentiles are timing fields and excluded from
    byte-comparability anyway), ledgers concatenate and re-sort by
    record identity.

    Because per-point work is self-contained (loop digests are unique,
    so no artifact is shared across loops), every non-timing field of a
    merged N-shard run equals the unsharded run's.  {!strip_timing} /
    {!strip_record_timing} null the timing fields so the two can be
    compared byte-for-byte; merging a {e single} input is the identity
    modulo re-rendering, which normalizes an unsharded file for exactly
    that comparison. *)

(** [merge_metrics jsons] unions metrics documents that share a
    ["schema"] field — suite ([ncdrf-suite-metrics/1]), bench
    ([ncdrf-bench-metrics/1], experiments merged by name), or serve
    ([ncdrf-serve-metrics/1]).  Errors on an empty list, mixed or
    unknown schemas. *)
val merge_metrics : Json.t list -> (Json.t, string) result

(** [merge_traces jsons] merges Chrome trace-event documents
    ({!Trace.to_chrome} output): each input's events are re-namespaced
    onto their own [pid] (input order, 1-based) so track ids from
    independent processes cannot collide, metadata records (thread
    names) come first in input order, and timed events follow in one
    stream stable-sorted by timestamp.  Per-event request-id args pass
    through unchanged.  Errors on an empty list or an input without a
    ["traceEvents"] list. *)
val merge_traces : Json.t list -> (Json.t, string) result

(** Replace every timing value (wall clocks, span durations/percentiles,
    rates, uptimes) with [null], recursively.  Counts and counters are
    left as they are: each must measure per-loop work, so that merged
    shards equal the unsharded run whichever loops share a process. *)
val strip_timing : Json.t -> Json.t

(** Concatenate shard ledgers and re-sort by record identity, yielding
    the same record order an unsharded run writes. *)
val merge_ledgers : Ledger.record list list -> Ledger.record list

(** Zero a record's duration fields ([total_ns], per-stage
    nanoseconds); identity and every count survive. *)
val strip_record_timing : Ledger.record -> Ledger.record
