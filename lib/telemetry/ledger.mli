(** Per-point run ledger: one JSONL record per (config, loop) point a
    driver executes — stage durations, cache traffic, chosen II vs MII,
    spill rounds, MaxLive, capacity, and the error category of failed
    points.  Collected in memory while armed; {!write} publishes the
    whole run atomically, sorted by record identity so the file is
    independent of completion order (--jobs N equals --jobs 1). *)

(** A ledger record is the per-point record the pipeline stamped while
    it was the ambient trace context; see {!Trace.point} for its
    fields.  {!add} stores it by reference: once added it is final. *)
type record = Trace.point

(** Arm or disarm the ledger: sets {!Trace.ledger_armed}, the one flag
    that also demands the ambient point.  Off by default. *)
val enable : bool -> unit

(** Label stamped on subsequently added records (the experiment name).
    Set it before the points run, not concurrently with them. *)
val set_label : string -> unit

val label : unit -> string

(** Append one finished record, without copying (dropped when
    disarmed).  Thread-safe. *)
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
