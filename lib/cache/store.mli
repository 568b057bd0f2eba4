(** Persistent content-addressed artifact store — the on-disk tier of the
    two-tier compile cache.

    Entries are keyed by the same content-addressed strings the in-memory
    {!Cache} uses ([Config.fingerprint + Ddg.digest + stage tag]) and laid
    out ccache-style under the store root by the hex MD5 of the key:
    [root/<2-hex-prefix>/<30-hex-rest>.art].  Writes go through the atomic
    temp-file publisher ({!Ncdrf_telemetry.Json.write_file}), so concurrent
    processes race safely: the last rename wins and readers never observe a
    partial entry.

    Every entry carries a versioned header with a self-check digest.  A
    corrupted, truncated, stale-version, or hash-colliding entry degrades to
    a miss — the store never raises on a bad entry, it recomputes. *)

type t

type stats = {
  hits : int;  (** disk lookups that decoded successfully *)
  misses : int;  (** disk lookups that found nothing usable *)
  writes : int;  (** entries published by this process *)
  evictions : int;  (** entries removed by the size-budget sweep *)
  bytes : int;  (** approximate resident bytes (refreshed by sweeps) *)
}

(** [open_store ?max_bytes ~dir ()] creates [dir] if needed, reclaims any
    stale temp files left by killed processes, and seeds the resident-size
    estimate from the entries already on disk.  [max_bytes = 0] (the
    default) disables the size budget.  Raises [Sys_error] if [dir] cannot
    be created. *)
val open_store : ?max_bytes:int -> dir:string -> unit -> t

(** [load t ~key ~decode] consults the store.  The lookup counts as a hit
    only when the entry exists, self-checks, and [decode] accepts the
    payload; anything else is a miss (corrupt entries are unlinked so they
    cannot mask the slot).  A hit bumps the entry's access stamp for LRU
    eviction.  Never raises. *)
val load : t -> key:string -> decode:(string -> 'a option) -> 'a option

(** [save t ~key payload] publishes an entry atomically.  Failures (disk
    full, permission) are swallowed — a store that cannot write behaves as
    a store that always misses.  Triggers an eviction sweep when the
    resident-size estimate exceeds the budget. *)
val save : t -> key:string -> string -> unit

(** [sweep t] re-scans the store: refreshes the resident-size estimate,
    reclaims stale temp files, and evicts least-recently-used entries until
    the store fits the byte budget. *)
val sweep : t -> unit

(** [reclaim_stale t] removes [*.tmp] files older than 900 s, left
    behind by killed processes.  Younger temp files are presumed to
    belong to a live publisher mid-rename and are left alone — the age
    probe mirrors the daemon's stale-socket probe-reclaim.  Returns the
    number of files removed. *)
val reclaim_stale : t -> int

val stats : t -> stats

(** Ambient store consulted by the pipeline's stage boundaries.  [None]
    (the default) disables the disk tier entirely; behaviour is then
    byte-identical to a build without this module. *)
val set_ambient : t option -> unit

val ambient : unit -> t option
