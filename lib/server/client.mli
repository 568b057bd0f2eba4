(** Client side of the serve protocol: connect, speak JSONL, retry
    typed overload answers with exponential backoff.

    Transport failures surface as typed errors (stage ["client"]), not
    exceptions, so callers handle them exactly like protocol-level
    failures. *)

type t

(** [connect path] opens a connection to the daemon's Unix socket,
    polling every 50 ms for up to [connect_timeout_s] (default 5 s)
    while the socket does not exist or refuses — covers racing a
    just-started daemon.  Raises {!Ncdrf_error.Error.Error} (category
    [Internal]) once the window closes. *)
val connect : ?connect_timeout_s:float -> string -> t

val close : t -> unit

(** [request t req] sends one request and reads its response; on an
    [Overloaded] answer it sleeps for the daemon's [retry_after_s] hint
    (or the exponential backoff floor, whichever is larger, plus
    deterministic jitter) and retries up to [retries] (default 5)
    times.  The final [Overloaded] is returned to the caller if the
    daemon never yields. *)
val request :
  ?retries:int ->
  t ->
  Protocol.request ->
  (Protocol.response, Ncdrf_error.Error.t) result
