type t = {
  size : int;  (** executors, counting the calling domain *)
  lock : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

exception
  Worker_failure of {
    failures : (string * string) list;
  }

let () =
  Printexc.register_printer (function
    | Worker_failure { failures } ->
      Some
        (Printf.sprintf "Worker_failure on %d item(s): %s"
           (List.length failures)
           (String.concat "; "
              (List.map (fun (l, e) -> Printf.sprintf "%s (%s)" l e) failures)))
    | _ -> None)

(* Worker domains block on [work_available] and run queued jobs until
   the pool closes.  Jobs never raise: [map] wraps user code. *)
let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work_available t.lock
  done;
  if Queue.is_empty t.queue then begin
    (* closed and drained *)
    Mutex.unlock t.lock
  end
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    job ();
    worker_loop t
  end

let create ?jobs () =
  let size =
    match jobs with
    | None -> default_jobs ()
    | Some j -> max 1 j
  in
  let t =
    {
      size;
      lock = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  if size > 1 then
    t.workers <-
      List.init (size - 1) (fun i ->
          Domain.spawn (fun () ->
              (* Stable trace track per pool slot (the calling domain is
                 executor 0): raw Domain.uid values differ run to run
                 and pool to pool, which would scatter identical runs
                 across different trace tracks. *)
              Ncdrf_telemetry.Trace.set_track (i + 1);
              worker_loop t));
  t

let jobs t = t.size
let is_serial t = t.workers = []

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_label _ = "item"

(* Shared engine: apply [outcome] (which must not raise) to every item,
   results in input order. *)
let generic_map t outcome xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else if is_serial t then List.map outcome (Array.to_list arr)
  else begin
    (* Capture the submitting thread's ambient request id and deadline
       tokens so work stolen by pool workers (different threads, so a
       different observability shard and token stack) is still
       attributed to the daemon request that submitted it and bounded
       by its deadline and drain-cancellation.  Identity outside any
       request or token scope. *)
    let request = Ncdrf_telemetry.Trace.inherit_request () in
    let deadline = Ncdrf_error.Deadline.inherit_tokens () in
    let results = Array.make n None in
    let remaining = ref n in
    let all_done = Condition.create () in
    let job i () =
      let r = request (fun () -> deadline (fun () -> outcome arr.(i))) in
      Mutex.lock t.lock;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock t.lock
    in
    Mutex.lock t.lock;
    for i = 0 to n - 1 do
      Queue.push (job i) t.queue
    done;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    (* The calling domain is an executor too: drain the queue, then
       wait for in-flight jobs on other domains. *)
    let rec drain () =
      Mutex.lock t.lock;
      match Queue.take_opt t.queue with
      | Some job ->
        Mutex.unlock t.lock;
        job ();
        drain ()
      | None ->
        while !remaining > 0 do
          Condition.wait all_done t.lock
        done;
        Mutex.unlock t.lock
    in
    drain ();
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* remaining = 0 implies every slot is filled *))
         results)
  end

let try_map t ?(label = default_label) f xs =
  generic_map t (fun x -> try Ok (f x) with e -> Error (label x, Printexc.to_string e)) xs

let try_map_exn t ?(label = default_label) f xs =
  generic_map t (fun x -> try Ok (f x) with e -> Error (label x, e)) xs

let map t ?label f xs =
  let outcomes = try_map t ?label f xs in
  let failures =
    List.filter_map (function Error e -> Some e | Ok _ -> None) outcomes
  in
  if failures <> [] then raise (Worker_failure { failures });
  List.map (function Ok v -> v | Error _ -> assert false) outcomes
