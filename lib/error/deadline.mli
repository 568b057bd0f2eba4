(** Per-request deadlines and cooperative cancellation.

    The serving daemon gives every scheduling request a deadline and
    must be able to revoke in-flight work while draining; batch mode
    reuses the same machinery for [--timeout SECS] per-point budgets.
    A {!token} carries an absolute deadline on the monotonic clock
    ([Telemetry.now], CLOCK_MONOTONIC — never wall time, so an NTP
    step in a long-running daemon cannot expire every in-flight
    request) plus a cancellation flag; it is installed
    {e ambiently} for a dynamic scope with {!with_token}, and pipeline
    stages poll {!check} at their boundaries (stage entry, spill
    rounds, II attempts).  Expiry and cancellation surface as the typed
    categories {!Error.Deadline_exceeded} and {!Error.Canceled}, so
    they flow through the same containment/reporting as every other
    failure.

    Scopes nest: an inner token does not shadow an outer one — {!check}
    honors whichever constraint fires first (min-deadline, any-cancel).
    Installation is per (domain, thread), so concurrent daemon requests
    on sibling systhreads never see each other's tokens.  Work a
    request fans out follows it: [Ncdrf_parallel.Pool] captures the
    submitting thread's stack with {!inherit_tokens} and re-installs it around
    every job, so a pool worker on another domain honours the same
    deadline and drain-cancellation. *)

type token

(** [make ?timeout_s ()] — a token expiring [timeout_s] seconds from
    now on the monotonic clock; no deadline when omitted (the token is
    then cancellation-only). *)
val make : ?timeout_s:float -> unit -> token

(** Flip the cancellation flag (thread-safe, idempotent).  [reason]
    becomes the [Canceled] error message at the next {!check}. *)
val cancel : ?reason:string -> token -> unit

val canceled : token -> bool

(** True once the deadline has passed (false for deadline-less tokens). *)
val expired : token -> bool

(** Seconds until expiry ([infinity] for deadline-less tokens; negative
    once expired). *)
val time_left : token -> float

(** [with_token tok f] installs [tok] for the dynamic extent of [f] on
    the calling thread, stacking over (not replacing) any enclosing
    token. *)
val with_token : token -> (unit -> 'a) -> 'a

(** [inherit_tokens ()] captures the calling thread's installed tokens and
    returns a wrapper that re-installs them (over any tokens already
    there) on whatever thread runs the wrapped thunk; the identity
    wrapper when none is installed. *)
val inherit_tokens : unit -> (unit -> 'a) -> 'a

(** [with_timeout ?timeout_s f] — {!with_token} around a fresh
    {!make}d token; just [f ()] when [timeout_s] is [None]. *)
val with_timeout : ?timeout_s:float -> (unit -> 'a) -> 'a

(** Tokens installed across every thread and domain: 0 outside every
    {!with_token} scope, which makes {!check} and {!active} one atomic
    read. *)
val installed : unit -> int

(** True when any token is installed on the calling thread — lets hot
    paths skip polling entirely in batch mode. *)
val active : unit -> bool

(** Raise {!Error.Error} with category [Canceled] or
    [Deadline_exceeded] if any installed token is violated; a no-op
    when none is (the overwhelmingly common batch case). *)
val check : stage:string -> unit
