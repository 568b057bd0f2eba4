(** JSONL wire protocol for [ncdrf serve] / [ncdrf client].

    One request or response per line, encoded with the
    [Telemetry.Json] codec.  Parsing is {e total}: every malformed
    frame — truncated JSON, an oversized line, an unknown request kind,
    a wrong field type — yields a typed {!Ncdrf_error.Error.t}
    (category [Parse], stage ["protocol"]), never an escaping
    exception.  Over protocol values, [parse ∘ render] is the identity
    (floats round-trip through the codec as long as they carry at most
    9 significant digits, which every protocol-born float does).

    The module also owns the {e renderers} that turn response payloads
    into the batch driver's human-facing text.  [ncdrf suite] and
    [ncdrf client suite] both print through them, which is what makes
    the byte-identity invariant structural rather than coincidental. *)

module Config = Ncdrf_machine.Config
module Model = Ncdrf_core.Model

(** Reject frames longer than this before JSON parsing — the daemon
    bounds the memory any one client can make it buffer. *)
val max_frame_bytes : int

type workload =
  | Source of string  (** inline loop-language source *)
  | Named of string  (** a named kernel from the workload library *)

type request_kind =
  | Schedule of {
      workload : workload;
      only : string option;  (** compile just the loop with this name *)
      spec : Config.spec;
      model : Model.t;
      capacity : int option;
      spill_batch : int;
          (** wire field of a removed spill mode: {!parse_request} accepts
              only [1] *)
      spill_incremental : bool;
          (** wire field of a removed spill mode: {!parse_request} accepts
              only [false] *)
      show_kernel : bool;
    }
  | Suite of {
      spec : Config.spec;
      size : int;
      registers : int;
    }
  | Health  (** liveness + queue/pool/cache/error snapshot *)
  | Stats  (** same payload as [Health]; kept distinct for clients *)

type request = {
  id : string;  (** client-chosen correlation id, echoed in the response *)
  timeout_s : float option;  (** per-request deadline, seconds *)
  kind : request_kind;
}

(** One compiled loop of a [Schedule] response — exactly the fields the
    batch driver prints. *)
type point = {
  loop : string;
  header : string;  (** the "== ..." line body ([Ddg.pp_stats] text) *)
  model : Model.t;
  mii : int;
  ii : int;
  stages : int;
  requirement : int;
  capacity : int option;
  fits : bool;
  spilled : int;
  added_memops : int;
  memops_per_iter : int;
  density : float;
  kernel : string option;  (** rendered VLIW kernel, when requested *)
}

type health = {
  status : string;  (** ["ok"] or ["draining"] *)
  uptime_s : float;
  served : int;  (** requests completed (any outcome) *)
  shed : int;  (** requests refused with [Overloaded] *)
  active : int;  (** requests executing right now *)
  queued : int;  (** requests waiting for an execution slot *)
  queue_bound : int;
  max_inflight : int;
  pool_jobs : int;
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  error_counts : (string * int) list;  (** per category, sorted by name *)
  kind_counts : (string * int) list;
      (** requests seen per kind ("schedule", "suite", "health",
          "stats"), sorted by name; empty in frames from daemons that
          predate the field *)
  latency_p50_s : float;
      (** percentiles over completed work requests, measured from
          admission-queue entry to response body completion; 0.0 until
          the first work request completes or when absent from the
          frame *)
  latency_p90_s : float;
  latency_p99_s : float;
}

type response_body =
  | Scheduled of {
      machine : string;  (** [Config.pp] text of the machine compiled on *)
      points : point list;
    }
  | Suite_report of {
      machine : string;
      size : int;
      jobs : int;
      registers : int;
      rows : (Model.t * float * float) list;
          (** (model, % loops allocatable, % cycles) table rows *)
      failures : Ncdrf_error.Error.t list;
    }
  | Health_report of health
  | Failed of Ncdrf_error.Error.t
      (** the request was admitted but its execution failed — carries
          the full classified error, including [Deadline_exceeded] and
          [Canceled] *)
  | Overloaded of {
      queue_depth : int;
      retry_after_s : float;  (** suggested client backoff *)
    }

type response = {
  req_id : string;
  body : response_body;
}

(** {2 Codec} — one line, no trailing newline. *)

val render_request : request -> string
val render_response : response -> string

val parse_request : string -> (request, Ncdrf_error.Error.t) result
val parse_response : string -> (response, Ncdrf_error.Error.t) result

(** Best-effort id recovery from a frame that failed full parsing, so
    an error response can still be correlated by the client. *)
val frame_id : string -> string option

(** {2 Shared renderers} — the text both the batch driver and the
    client print, guaranteeing byte-identical output on both paths. *)

val render_suite_header : size:int -> machine:string -> jobs:int -> string
val render_suite_table_head : registers:int -> string
val render_suite_row : Model.t * float * float -> string

(** Empty on an empty list, so clean runs print nothing extra. *)
val render_failure_summary : Ncdrf_error.Error.t list -> string

val render_machine_line : string -> string
val render_point : point -> string

(** Build a wire point from pipeline stats plus the pre-rendered
    header line and optional kernel text. *)
val point_of_stats : header:string -> ?kernel:string -> Ncdrf_core.Pipeline.stats -> point
