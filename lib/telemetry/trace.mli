(** Event-level tracing and the per-thread stage record:
    per-(domain, thread) shards holding a {!Ring} of the most recent
    65536 timestamped begin/end events, an ambient per-point context, and the stage
    stack and per-name accumulators behind {!Telemetry.time}.  Events
    export as Chrome trace-event JSON (chrome://tracing, Perfetto).

    Two flags switch the event and context layer on:
    {ul
    {- {!enable} arms event recording ([--trace]);}
    {- {!ledger_armed}, set only by [Ledger.enable], arms the run
       ledger ([--ledger]): the ambient point is installed, and added
       to the ledger when it completes, without buffering events.}}
    With both off every probe is one atomic load, and driver outputs
    are byte-identical to a build without the probes.

    Each (domain, thread) pair owns one shard, created on first use and
    registered under the composite key [(Domain.self, Thread.id)] — the
    same key [Ncdrf_error.Deadline] uses — so the serving daemon's
    concurrent connection-handler systhreads (all on domain 0) each
    record into their own shard instead of trampling a shared domain
    slot.  This is the only per-thread registry of the observability
    layer; recording needs no lock after the shard exists.  Readers
    ({!events}, {!accs}, {!write_chrome}) must run after worker
    domains and handler threads have quiesced — in the drivers, after
    the pool is done; in the daemon, at drain.

    {2 Chrome-trace track scheme}

    Every shard renders as one [tid] ("track") under a single [pid]:
    {ul
    {- the {e first} thread registered on a domain takes the domain id
       as its track — batch runs therefore keep their historical
       [domain-0], [domain-1], … tracks, and pool workers overwrite
       theirs with the worker slot id via {!set_track} so traces show
       one track per pool slot across pool generations;}
    {- every {e additional} systhread on an already-tracked domain —
       the daemon's connection handlers — takes the next track from
       1000 up ([conn-0], [conn-1], …) in registration order.}}
    Request attribution is {e not} encoded in the track: a pool worker
    serves many requests on one track, so the request id rides on each
    event as an explicit [request] arg (and the ["request"] key in the
    exported [args] object), letting viewers and {!Merge.merge_traces}
    group events per request across tracks. *)

(** {1 Arming} *)

(** Turn event buffering on or off. *)
val enable : bool -> unit

(** The run ledger's armed flag.  [Ledger.enable] sets it and
    [Ledger.add] reads it; it also demands the ambient point when
    event buffering is off. *)
val ledger_armed : bool Atomic.t

(** True when events or the ledger are armed — gate for any work done
    only to feed the trace or the ledger (building a point, building an
    {!update} closure, computing MaxLive). *)
val active : unit -> bool

(** Give the calling thread's shard a stable track id.  Pool workers
    call this with their worker slot index so traces get one track per
    pool slot instead of one per spawned domain. *)
val set_track : int -> unit

(** {1 Request scope}

    The serving daemon runs each request under [with_request ~id], and
    the id is stamped onto every trace event and ledger record
    produced in that dynamic extent.  Pool workers do not inherit it automatically (they are
    different threads); [Ncdrf_parallel.Pool] captures the submitting
    thread's id with {!inherit_request} and re-installs it around each
    job. *)

(** [with_request ~id f] runs [f] with [id] as the calling thread's
    ambient request id (saving and restoring any outer id).  Installed
    unconditionally — the id must be visible to ledger recording even
    when event buffering is off. *)
val with_request : id:string -> (unit -> 'a) -> 'a

(** The calling thread's ambient request id, [""] when outside any
    {!with_request}.  Never registers a shard. *)
val current_request : unit -> string

(** [inherit_request ()] captures the calling thread's ambient request
    id and returns a wrapper that re-installs it on whatever thread
    runs the wrapped thunk; the identity wrapper when there is no
    ambient request. *)
val inherit_request : unit -> (unit -> 'a) -> 'a

(** {1 Stage record} *)

(** One shard's accumulator for one stage name: [count] frames closed,
    their summed inclusive ([total_ns]) and self ([self_ns]) time, the
    longest inclusive frame, and the inclusive durations in seconds of
    the most recent {!sample_cap} frames (the percentile source). *)
type acc = private {
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable max_ns : int;
  samples : float Ring.t;
}

(** Samples kept per accumulator (65536); older ones are overwritten,
    the count and sums stay exact. *)
val sample_cap : int

(** [stage ~metrics name f] runs [f ()] as one frame on the calling
    thread's stage stack (one registry lookup).  On exit, normal or
    by exception, the frame's self time — its duration minus the
    inclusive durations of the frames nested in it on this thread — is
    added to the ambient point's [stages]; with [metrics] the frame
    also feeds the shard's accumulator for [name]; with events armed it
    is bracketed by B/E events.  {!Telemetry.time} is the caller. *)
val stage : metrics:bool -> string -> (unit -> 'a) -> 'a

(** Every shard's accumulators, unmerged: one entry per (thread,
    name) recorded since the last {!reset_accs}. *)
val accs : unit -> (string * acc) list

(** Drop every accumulator.  Not safe concurrently with recording. *)
val reset_accs : unit -> unit

(** {1 Events} *)

(** The monotonic clock every span and event reads, in integer
    nanoseconds since an arbitrary origin; allocates nothing. *)
val now_ns : unit -> int

(** One buffered event.  [phase] is the Chrome phase: 'B' begin,
    'E' end, 'i' instant.  [track] is the Chrome [tid] per the track
    scheme above; [request] is the ambient request id at emission time
    ([""] outside any request). *)
type event = {
  name : string;
  phase : char;
  ts_ns : int;
  track : int;
  request : string;
  loop : string;
  config : string;
  ii : int;
}

(** Bare events with no stage frame ([spill.round] brackets each spill
    round with them); no-ops unless events are armed. *)
val begin_span : string -> unit

val end_span : string -> unit
val instant : string -> unit

(** All buffered events: shards ordered by (track id, first
    timestamp), each shard's events in emission order. *)
val events : unit -> event list

(** Events lost to ring-buffer wrap-around, across all shards. *)
val dropped : unit -> int

(** Drop all buffered events (shards stay registered; the enabled
    flags are untouched).  Not safe concurrently with recording. *)
val reset : unit -> unit

(** {1 Export} *)

(** Write the buffered events atomically ({!Json.write_file}) as a
    Chrome trace-event document: one [pid], one [tid] per track (see
    the track scheme above) with a [thread_name] metadata record,
    timestamps in microseconds relative to the earliest event, and
    [args] carrying the request id and the ambient loop/config/II. *)
val write_chrome : path:string -> unit

(** {1 Ambient context} *)

(** One (config, loop) point — or one daemon request — and its ledger
    record: the single per-point record.  [Ncdrf_core.Pipeline.observe]
    builds it, installs it as the ambient context with
    {!with_context}, lets the pipeline stages stamp its mutable fields
    through {!update} as they run, then finalizes [total_ns], [ok] and
    [error] and hands it to [Ledger.add], which stores it as is.  An
    absent result is [None] (rendered [null] in the ledger).  Declared
    last, so the labels it shares with {!event} and {!acc} ([loop],
    [ii], [total_ns], ...) resolve to it where no type is known. *)
type point = {
  label : string;  (** experiment name ("fig8", "suite", ...) *)
  request : string;
      (** daemon request id that produced the point ([""] in batch
          runs; rendered in JSON only when non-empty, so batch ledgers
          keep their pre-request byte layout) *)
  loop : string;
  config : string;  (** config display name *)
  fp : string;  (** short hex digest of the config fingerprint *)
  models : string;  (** models measured, "+"-joined *)
  capacity : int option;  (** register capacity; [None] = unconstrained *)
  mutable clusters : int option;  (** machine cluster count *)
  mutable mii : int option;
  mutable ii : int option;  (** chosen II; the event arg [ii] while scheduling *)
  mutable rounds : int option;  (** spill rounds; [None] = no spill pass *)
  mutable spilled : int option;
  mutable requirement : int option;
  mutable maxlive : int option;
  mutable spill_full : int option;
      (** spill rounds scheduled by a full II search; [None] when the
          point never entered the spill loop *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable disk_hits : int;  (** on-disk store lookups that decoded (0 pre-disk-tier) *)
  mutable disk_misses : int;
  mutable stages : (string * int) list;
      (** stage name -> summed self nanoseconds, name-sorted *)
  mutable total_ns : int;  (** wall time of the whole point *)
  mutable ok : bool;
  mutable error : string option;  (** error category name *)
}

(** [with_context p f] runs [f] with [p] installed as the calling
    thread's ambient point (saving and restoring any outer one).  The
    caller checks {!active} before building [p]. *)
val with_context : point -> (unit -> 'a) -> 'a

(** [update f] applies [f] to the calling thread's ambient point, if
    any.  Callers check {!active} before building [f], so a disarmed
    stamp costs one atomic load. *)
val update : (point -> unit) -> unit

(** Attribute one compile-cache lookup to the current point. *)
val note_cache : hit:bool -> unit

(** Attribute one on-disk store lookup to the current point. *)
val note_disk : hit:bool -> unit
