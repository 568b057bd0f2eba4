(** The [ncdrf serve] daemon: a fault-contained compile service over a
    Unix-domain socket.

    One JSONL request per line (see {!Protocol}); scheduling and suite
    requests are admitted through a bounded queue in front of
    [max_inflight] concurrent execution slots — safe because trace,
    span and deadline state is sharded per (domain, thread) and every
    record a request produces (on its connection systhread or on pool
    workers it submits to) is stamped with the request id via
    [Ncdrf_telemetry.Trace.with_request].  Overload is
    answered with a typed [Overloaded] response carrying a retry hint,
    never an unbounded queue; per-request deadlines and drain
    cancellation flow through {!Ncdrf_error.Deadline} tokens into pool
    workers; any failure a request provokes — parse errors, infeasible
    schedules, injected faults, expiry — becomes a typed [Failed]
    response and never kills the daemon.  On SIGTERM/SIGINT the daemon
    stops accepting, lets in-flight work finish within a grace window,
    cancels the rest, and atomically publishes its serving metrics
    before returning.

    Work bodies are built by {!Protocol.schedule_body} and
    {!Protocol.suite_body}, the same builders the batch commands use.
    The daemon neither opens the persistent artifact store nor arms the
    observability probes: its caller does both.  [ncdrf serve] does it
    with the same code as a batch run: it opens [--cache-dir], arms
    [--metrics]/[--trace]/[--ledger], and publishes the trace and the
    ledger after [run] returns. *)

type opts = {
  socket_path : string;
  jobs : int;  (** worker-pool size shared by all requests *)
  max_inflight : int;
      (** concurrent request execution slots; at least 1, or no work
          request is ever admitted *)
  queue_bound : int;  (** admission queue slots; beyond this, shed *)
  default_timeout_s : float option;
      (** deadline for requests that do not carry their own *)
  drain_grace_s : float;
      (** seconds to let in-flight work finish before cancelling *)
  metrics : string option;
      (** publish the serving metrics JSON (schema
          [ncdrf-serve-metrics/1]) here on drain; its telemetry section
          is empty unless the caller armed [Telemetry] *)
}

(** Defaults: pool-default jobs, 4 inflight slots, queue bound 8, no
    default deadline, 5 s drain grace, no metrics file. *)
val default_opts : socket_path:string -> opts

(** [run opts] serves until stopped, then drains and returns the
    process exit code (0 on a clean drain).  [stop] supplies the stop
    flag (polled every 0.2 s) — tests flip it from another thread;
    when [handle_signals] (default true), SIGTERM/SIGINT set it and
    SIGPIPE is ignored.  Raises {!Socket_unusable} before serving
    anything if the socket cannot be bound. *)
val run : ?stop:bool Atomic.t -> ?handle_signals:bool -> opts -> int

(** [Socket_unusable "PATH: why"]: the daemon cannot listen on PATH.
    [run] reclaims PATH only when it is a socket that nobody answers
    (left by a killed daemon); a live socket, any other file, a
    directory, a missing parent directory or a failed bind raise this,
    and the file at PATH is left as it was. *)
exception Socket_unusable of string
