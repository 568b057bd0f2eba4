(** Minimal JSON tree, enough for metrics, traces and ledgers.  No
    external dependency; strings are escaped per RFC 8259. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Render with stable field order and 2-space indentation. *)
val to_string : t -> string

(** Render on one line with no whitespace — one JSONL record. *)
val to_compact : t -> string

(** Parse a complete JSON document.  Integers without a fractional part
    or exponent parse as [Int]; numbers out of [int] range fall back to
    [Float].  [Error] carries a message with a byte offset. *)
val of_string : string -> (t, string) result

(** [publish_file ~path content] publishes [content] atomically: it is
    written to a fresh [prefix*.tmp] file in [path]'s directory and
    renamed over [path], so a reader sees the old file or the whole new
    one, never a partial write by a live process.  Nothing is
    [fsync]ed: after an OS crash or power loss [path] may hold the old
    content, or a zero-length or torn file.  For caches whose readers
    verify every entry.  The temp file is unlinked on any failure
    (write, close or rename), so no litter survives an error. *)
val publish_file : ?prefix:string -> path:string -> string -> unit

(** [write_file ~path content] is {!publish_file} made durable: the
    temp file is [fsync]ed before the rename and the directory after
    it, so once [write_file] returns the new content survives a crash
    and no crash can leave a truncated file under [path].  For metrics,
    ledgers and traces. *)
val write_file : ?prefix:string -> path:string -> string -> unit
