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
    cancels the rest, and atomically publishes its metrics, trace and
    ledger before exiting. *)

type opts = {
  socket_path : string;
  jobs : int;  (** worker-pool size shared by all requests *)
  max_inflight : int;  (** concurrent request execution slots *)
  queue_bound : int;  (** admission queue slots; beyond this, shed *)
  default_timeout_s : float option;
      (** deadline for requests that do not carry their own *)
  drain_grace_s : float;
      (** seconds to let in-flight work finish before cancelling *)
  metrics : string option;  (** publish final metrics JSON here *)
  trace : string option;  (** publish a Chrome trace here *)
  ledger : string option;  (** publish the run ledger here *)
  cache_dir : string option;
      (** open the persistent artifact store here at startup, so the
          daemon cold-starts warm from prior processes' work *)
  cache_max_mb : int;  (** store size budget in MB; 0 = unlimited *)
}

(** Defaults: pool-default jobs, 4 inflight slots, queue bound 8, no
    default deadline, 5 s drain grace, no observability outputs, no
    persistent store. *)
val default_opts : socket_path:string -> opts

(** [run opts] serves until stopped, then drains and returns the
    process exit code (0 on a clean drain).  [stop] supplies the stop
    flag (polled every 0.2 s) — tests flip it from another thread;
    when [handle_signals] (default true), SIGTERM/SIGINT set it and
    SIGPIPE is ignored.  Raises {!Ncdrf_error.Error.Error} if the
    socket path is already being served. *)
val run : ?stop:bool Atomic.t -> ?handle_signals:bool -> opts -> int
