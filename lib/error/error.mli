(** Typed failure taxonomy for the compile pipeline.

    The paper's evaluation sweeps hundreds of modulo-scheduled loops
    across many machine configurations; a sweep must degrade per point,
    not per run.  That requires failures the harness can {e classify}
    (to count and report them), {e contain} (one bad loop must not kill
    the suite) and {e attribute} (which loop, which stage, which
    round).  This module is the single vocabulary for all three.

    Every pipeline stage converts its failures — its own and the legacy
    exception zoo ([Failure], [Invalid_argument], [Loop_lang.Parse_error],
    the scheduler's infeasibility signals, ... ) — into one [Error]
    exception carrying a {!category} and structured context.  The
    {!protect} boundary performs the conversion for code that still
    raises raw exceptions; libraries that define their own exceptions
    register a {!register_classifier} converter so [protect] maps them
    to the right category instead of [Internal]. *)

(** The failure taxonomy.  Categories are coarse on purpose: they are
    the keys of the suite's [errors.*] telemetry counters and of the
    failure manifest, so they must stay stable and aggregatable. *)
type category =
  | Parse  (** loop-language syntax or semantic (compile) errors *)
  | Invalid_graph  (** a DDG or schedule failed structural validation *)
  | Schedule_infeasible
      (** the modulo scheduler found no schedule within its II slack,
          or the machine cannot execute an opcode at all *)
  | Alloc_infeasible
      (** register allocation found no feasible capacity in its search
          range *)
  | Spill_diverged
      (** the iterative spiller hit its round/II-bump caps without
          fitting; a partial outcome is still available *)
  | Injected  (** a deterministic fault-injection point fired *)
  | Internal  (** everything else: a genuine bug surfaced and contained *)
  | Overloaded
      (** the serving daemon's admission queue was full and the request
          was shed before execution *)
  | Deadline_exceeded
      (** a per-request (or per-point [--timeout]) deadline expired
          while the work was queued or running *)
  | Canceled
      (** the request was canceled — typically by a draining daemon
          revoking in-flight work on shutdown *)

(** A classified failure with its structured context.  Optional fields
    are filled in as the error crosses stage boundaries: a stage that
    knows the loop name or config fingerprint adds them if missing. *)
type t = {
  category : category;
  stage : string;  (** "parse", "schedule", "alloc", "swap", "spill", "cache", "pipeline" *)
  loop : string option;  (** loop (DDG) name *)
  config : string option;  (** [Config.fingerprint] of the machine *)
  round : int option;  (** spill round, where applicable *)
  ii : int option;  (** initiation interval reached, where applicable *)
  message : string;
}

exception Error of t

(** Stable lower-snake-case name, the suffix of the [errors.*] counters:
    ["parse"], ["invalid_graph"], ["schedule_infeasible"],
    ["alloc_infeasible"], ["spill_diverged"], ["injected"], ["internal"],
    ["overloaded"], ["deadline_exceeded"], ["canceled"]. *)
val category_name : category -> string

val all_categories : category list

(** Inverse of {!category_name}; [None] on an unknown name.  The wire
    protocol uses this to decode error payloads into the taxonomy. *)
val category_of_name : string -> category option

(** One-line rendering: category, context, message. *)
val to_string : t -> string

val make :
  ?loop:string ->
  ?config:string ->
  ?round:int ->
  ?ii:int ->
  stage:string ->
  category ->
  string ->
  t

(** [error ... category msg] raises {!Error} with {!make}'s record. *)
val error :
  ?loop:string ->
  ?config:string ->
  ?round:int ->
  ?ii:int ->
  stage:string ->
  category ->
  string ->
  'a

(** Like {!error} with a format string. *)
val errorf :
  ?loop:string ->
  ?config:string ->
  ?round:int ->
  ?ii:int ->
  stage:string ->
  category ->
  ('a, unit, string, 'b) format4 ->
  'a

(** Libraries owning legacy exceptions register a converter here (at
    module initialization), consulted by {!classify_exn} before the
    built-in fallbacks.  A converter returns [None] for exceptions it
    does not recognize. *)
val register_classifier : (exn -> t option) -> unit

(** Convert any exception into a classified error.  An [Error] payload
    passes through, gaining the given context where its own is missing;
    registered converters are consulted next; then the built-ins:
    [Failure] and [Stack_overflow] become [Internal],
    [Invalid_argument] becomes [Invalid_graph] (inside the pipeline an
    invalid argument is a malformed graph or schedule).  [Out_of_memory]
    is also converted — containment beats a dead sweep. *)
val classify_exn : stage:string -> ?loop:string -> ?config:string -> exn -> t

(** The {!category} an exception would classify to, without building or
    enriching an error — what the run ledger stamps on failed points. *)
val category_of_exn : exn -> category

(** [protect ~stage f] runs [f ()] and converts any escaping exception
    via {!classify_exn}.  This is the containment boundary the suite
    runner wraps around each (loop, config) point. *)
val protect :
  stage:string -> ?loop:string -> ?config:string -> (unit -> 'a) -> ('a, t) result

(** Like {!protect} but re-raises the classified failure as [Error]:
    used inside stage functions so raw exceptions never escape a stage,
    while success values flow through untouched. *)
val boundary : stage:string -> ?loop:string -> ?config:string -> (unit -> 'a) -> 'a
