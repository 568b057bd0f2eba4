type category =
  | Parse
  | Invalid_graph
  | Schedule_infeasible
  | Alloc_infeasible
  | Spill_diverged
  | Injected
  | Internal
  | Overloaded
  | Deadline_exceeded
  | Canceled

type t = {
  category : category;
  stage : string;
  loop : string option;
  config : string option;
  round : int option;
  ii : int option;
  message : string;
}

exception Error of t

let category_name = function
  | Parse -> "parse"
  | Invalid_graph -> "invalid_graph"
  | Schedule_infeasible -> "schedule_infeasible"
  | Alloc_infeasible -> "alloc_infeasible"
  | Spill_diverged -> "spill_diverged"
  | Injected -> "injected"
  | Internal -> "internal"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Canceled -> "canceled"

let all_categories =
  [ Parse; Invalid_graph; Schedule_infeasible; Alloc_infeasible; Spill_diverged;
    Injected; Internal; Overloaded; Deadline_exceeded; Canceled ]

let category_of_name name =
  List.find_opt (fun c -> category_name c = name) all_categories

let to_string e =
  let buf = Buffer.create 64 in
  Buffer.add_string buf ("[" ^ category_name e.category ^ "]");
  Buffer.add_string buf (" stage=" ^ e.stage);
  let opt name to_s = function
    | None -> ()
    | Some v -> Buffer.add_string buf (Printf.sprintf " %s=%s" name (to_s v))
  in
  opt "loop" Fun.id e.loop;
  opt "round" string_of_int e.round;
  opt "ii" string_of_int e.ii;
  Buffer.add_string buf (": " ^ e.message);
  Buffer.contents buf

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Ncdrf_error.Error " ^ to_string e)
    | _ -> None)

let make ?loop ?config ?round ?ii ~stage category message =
  { category; stage; loop; config; round; ii; message }

let error ?loop ?config ?round ?ii ~stage category message =
  raise (Error (make ?loop ?config ?round ?ii ~stage category message))

let errorf ?loop ?config ?round ?ii ~stage category fmt =
  Printf.ksprintf (fun message -> error ?loop ?config ?round ?ii ~stage category message) fmt

(* Converters for exceptions owned by other libraries, registered at
   their module initialization (the whole library archive is linked, so
   registration runs before any pipeline code).  Consulted newest
   first; order only matters if two converters claim the same
   exception, which registration discipline avoids. *)
let classifiers : (exn -> t option) list ref = ref []

let register_classifier f = classifiers := f :: !classifiers

let fill ~stage ?loop ?config e =
  {
    e with
    loop = (match e.loop with Some _ as l -> l | None -> loop);
    config = (match e.config with Some _ as c -> c | None -> config);
    stage = (if e.stage = "" then stage else e.stage);
  }

let classify_exn ~stage ?loop ?config exn =
  match exn with
  | Error e -> fill ~stage ?loop ?config e
  | _ ->
    let registered =
      List.find_map (fun f -> match f exn with Some e -> Some e | None -> None)
        !classifiers
    in
    (match registered with
     | Some e -> fill ~stage ?loop ?config e
     | None ->
       let category, message =
         match exn with
         | Failure msg -> (Internal, msg)
         | Invalid_argument msg -> (Invalid_graph, msg)
         | Stack_overflow -> (Internal, "stack overflow")
         | Out_of_memory -> (Internal, "out of memory")
         | e -> (Internal, Printexc.to_string e)
       in
       make ?loop ?config ~stage category message)

(* Category of an arbitrary exception, without attaching context — used
   by the run ledger to stamp failed points.  Classification must not
   depend on whether tracing is armed, so this reuses [classify_exn]
   with a placeholder stage rather than enriching the error. *)
let category_of_exn exn = (classify_exn ~stage:"point" exn).category

let protect ~stage ?loop ?config f =
  try Ok (f ()) with
  | Sys.Break as e -> raise e
  | e -> Result.Error (classify_exn ~stage ?loop ?config e)

let boundary ~stage ?loop ?config f =
  try f () with
  | Sys.Break as e -> raise e
  | e -> raise (Error (classify_exn ~stage ?loop ?config e))
