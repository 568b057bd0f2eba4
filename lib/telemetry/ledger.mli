(** Per-point run ledger: one JSONL record per (config, loop) point a
    driver executes — stage durations, cache traffic, chosen II vs MII,
    spill rounds, MaxLive, capacity, and the error category of failed
    points.  Collected in memory while armed; {!write} publishes the
    whole run atomically, sorted by record identity so the file is
    independent of completion order (--jobs N equals --jobs 1). *)

type record = {
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
  clusters : int option;  (** machine cluster count *)
  mii : int option;
  ii : int option;
  rounds : int option;  (** spill rounds *)
  spilled : int option;
  requirement : int option;
  maxlive : int option;
  spill_full : int option;
      (** spill rounds scheduled by a full II search; [None] when the
          point never entered the spill loop *)
  cache_hits : int;
  cache_misses : int;
  disk_hits : int;  (** on-disk store lookups that decoded (0 pre-disk-tier) *)
  disk_misses : int;
  stages : (string * int) list;  (** stage name -> nanoseconds, name-sorted *)
  total_ns : int;  (** wall time of the whole point *)
  ok : bool;
  error : string option;  (** error category name when [not ok] *)
}

(** Arming the ledger also demands the trace context
    ({!Trace.require_context}).  Off by default. *)
val enable : bool -> unit

val enabled : unit -> bool

(** Label stamped on subsequently added records (the experiment name).
    Set it before the points run, not concurrently with them. *)
val set_label : string -> unit

val label : unit -> string

(** Append one record (dropped when disarmed).  Thread-safe. *)
val add : record -> unit

(** All records in insertion order. *)
val records : unit -> record list

(** Drop all records (the armed flag and label are untouched). *)
val reset : unit -> unit

(** Sorted by identity (label, request, config, models, capacity,
    loop, ...); durations and insertion order do not affect it. *)
val compare_records : record -> record -> int

val to_json : record -> Json.t

(** Parse one JSONL line back into a record. *)
val parse_line : string -> (record, string) result

(** Render records as JSONL in the given order (one compact line per
    record, no sorting). *)
val to_jsonl : record list -> string

(** Write every record as identity-sorted JSONL, atomically. *)
val write : path:string -> unit

(** Read a ledger file written by {!write}; blank lines are skipped. *)
val load : path:string -> (record list, string) result
