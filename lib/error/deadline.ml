(* Ambient per-request deadlines and cancellation.

   A token is immutable except for its cancellation flag, so one token
   can be shared across every thread and pool-worker domain touching a
   request.  The ambient installation is keyed by (domain, thread):
   systhreads in the serving daemon all run on domain 0 and would
   trample a Domain.DLS slot, while pool workers are separate domains —
   the composite key covers both.  Each key holds a *stack* of tokens
   so scopes nest with min-deadline / any-cancel semantics (a per-point
   [--timeout] inside a per-request deadline honors whichever is
   tighter). *)

type token = {
  deadline : float option;  (* absolute, monotonic seconds (Telemetry.now) *)
  timeout_s : float option;  (* the original relative budget, for messages *)
  canceled : bool Atomic.t;
  mutable cancel_reason : string;
}

let make ?timeout_s () =
  {
    deadline = Option.map (fun s -> Ncdrf_telemetry.Telemetry.now () +. s) timeout_s;
    timeout_s;
    canceled = Atomic.make false;
    cancel_reason = "canceled";
  }

let cancel ?(reason = "canceled") t =
  t.cancel_reason <- reason;
  Atomic.set t.canceled true

let canceled t = Atomic.get t.canceled

let expired t =
  match t.deadline with None -> false | Some d -> Ncdrf_telemetry.Telemetry.now () > d

let time_left t =
  match t.deadline with None -> infinity | Some d -> d -. Ncdrf_telemetry.Telemetry.now ()

(* (domain id, thread id) -> installed token stack, innermost first.
   The mutex is taken at scope entry/exit and by [check] and [active]
   while any token is installed anywhere; [Modulo] polls [check] on
   every II attempt, so with the 2-job pool's domains contending, that
   is on the scheduling hot path.  [installed] counts the tokens in the
   table: batch runs without [--timeout] install none, and then a poll
   is one atomic read.  A thread's own installs happen before its
   polls, so a poll never misses the calling thread's token. *)
let lock = Mutex.create ()
let table : (int * int, token list) Hashtbl.t = Hashtbl.create 16
let installed_count = Atomic.make 0

let installed () = Atomic.get installed_count

let key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current_stack () =
  if Atomic.get installed_count = 0 then []
  else begin
    let k = key () in
    Mutex.lock lock;
    let s = Option.value ~default:[] (Hashtbl.find_opt table k) in
    Mutex.unlock lock;
    s
  end

let active () = current_stack () <> []

(* Push [toks] (innermost first) over the calling thread's stack for
   the extent of [f]. *)
let with_tokens toks f =
  let k = key () in
  let n = List.length toks in
  ignore (Atomic.fetch_and_add installed_count n);
  Mutex.lock lock;
  let prev = Option.value ~default:[] (Hashtbl.find_opt table k) in
  Hashtbl.replace table k (toks @ prev);
  Mutex.unlock lock;
  let restore () =
    Mutex.lock lock;
    if prev = [] then Hashtbl.remove table k else Hashtbl.replace table k prev;
    Mutex.unlock lock;
    ignore (Atomic.fetch_and_add installed_count (-n))
  in
  Fun.protect ~finally:restore f

let with_token tok f = with_tokens [ tok ] f

let inherit_tokens () =
  match current_stack () with
  | [] -> fun f -> f ()
  | stack -> fun f -> with_tokens stack f

let with_timeout ?timeout_s f =
  match timeout_s with
  | None -> f ()
  | Some _ -> with_token (make ?timeout_s ()) f

let violation tok =
  if Atomic.get tok.canceled then
    Some (Error.Canceled, tok.cancel_reason)
  else if expired tok then
    let msg =
      match tok.timeout_s with
      | Some s -> Printf.sprintf "deadline exceeded (budget %.3fs)" s
      | None -> "deadline exceeded"
    in
    Some (Error.Deadline_exceeded, msg)
  else None

let check ~stage =
  match current_stack () with
  | [] -> ()
  | stack ->
    (match List.find_map violation stack with
     | None -> ()
     | Some (category, message) -> Error.error ~stage category message)
