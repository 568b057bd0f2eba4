(** JSONL wire protocol for [ncdrf serve] / [ncdrf client].

    One request or response per line, encoded with the
    [Telemetry.Json] codec.  Parsing is {e total}: every malformed
    frame — truncated JSON, an oversized line, an unknown request kind,
    a wrong field type — yields a typed {!Ncdrf_error.Error.t}
    (category [Parse], stage ["protocol"]), never an escaping
    exception.  Over protocol values, [parse ∘ render] is the identity
    (floats round-trip through the codec as long as they carry at most
    9 significant digits, which every protocol-born float does).

    The module also owns the one {e builder} of each work body
    ({!schedule_body}, {!suite_body}) and the one {e renderer} of every
    body ({!render_body}).  The batch commands ([ncdrf schedule],
    [ncdrf suite]) and the daemon build through the same builders, and
    every command prints through [render_body], which is what makes the
    byte-identity invariant structural rather than coincidental. *)

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

(** {2 Body builders} — the one executor of each work request kind,
    called by the daemon and by the batch [schedule] and [suite]. *)

(** [loops] compiled on [config] under [model], at [capacity] registers
    per file (unlimited when absent), kernels rendered when
    [show_kernel].  No loops give no points: "no matching loops". *)
val schedule_body :
  config:Config.t -> model:Model.t -> ?capacity:int -> show_kernel:bool ->
  Ncdrf_ir.Ddg.t list -> response_body

(** The synthetic suite of [size] loops (seeded by [seed]), or the loops
    of one [shard] [(index, count)] of it. *)
val suite_loops :
  ?seed:int -> ?shard:int * int -> size:int -> unit -> Ncdrf_core.Suite_stats.workload list

(** The Table 1 report of [loops] under the Unified, Partitioned and
    Swapped models on [pool]: one scheduling pass per loop, failed
    points recorded in [failures] (whose policy may abort by raising),
    each point bounded by [timeout_s].  [size] is the size the header
    names; [loops] may be one shard of it. *)
val suite_body :
  pool:Ncdrf_parallel.Pool.t -> failures:Ncdrf_error.Failures.t -> ?timeout_s:float ->
  config:Config.t -> size:int -> registers:int -> Ncdrf_core.Suite_stats.workload list ->
  response_body

(** A wire point from pipeline stats, the header line and the kernel. *)
val point_of_stats : header:string -> ?kernel:string -> Ncdrf_core.Pipeline.stats -> point

(** {2 Renderers} *)

(** The text every command prints for a body: the machine line and
    points of a schedule; the header, table and failure summary of a
    suite; a health snapshot; the one-line diagnosis of a failed or
    shed request.  The functions below are its parts. *)
val render_body : response_body -> string

val render_suite_row : Model.t * float * float -> string

(** Empty on an empty list, so clean runs print nothing extra. *)
val render_failure_summary : Ncdrf_error.Error.t list -> string

val render_machine_line : string -> string
val render_point : point -> string
