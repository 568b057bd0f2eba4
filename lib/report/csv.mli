(** Minimal RFC-4180-style CSV output for experiment series: a field
    containing a comma, quote or newline is quoted, its quotes
    doubled. *)

(** [write path rows] writes the rows to [path] atomically: the data
    goes to a temp file in the same directory which is then renamed
    over [path], so an interrupted run can never leave a truncated
    file. *)
val write : string -> string list list -> unit
