module Telemetry = Ncdrf_telemetry.Telemetry

exception
  Abort of {
    recorded : int;
    last : Error.t;
    reason : string;
  }

let () =
  Printexc.register_printer (function
    | Abort { recorded; last; reason } ->
      Some
        (Printf.sprintf "Ncdrf_error.Failures.Abort (%s after %d failure(s); last: %s)"
           reason recorded (Error.to_string last))
    | _ -> None)

type t = {
  fail_fast : bool;
  max_failures : int option;
  lock : Mutex.t;
  mutable rev_failures : Error.t list;
  mutable n : int;
}

let create ?(fail_fast = false) ?max_failures () =
  { fail_fast; max_failures; lock = Mutex.create (); rev_failures = []; n = 0 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t e =
  let n =
    with_lock t (fun () ->
        t.rev_failures <- e :: t.rev_failures;
        t.n <- t.n + 1;
        t.n)
  in
  Telemetry.incr ("errors." ^ Error.category_name e.Error.category);
  if t.fail_fast then raise (Abort { recorded = n; last = e; reason = "fail-fast" });
  match t.max_failures with
  | Some limit when n > limit ->
    raise
      (Abort { recorded = n; last = e; reason = Printf.sprintf "max-failures %d" limit })
  | Some _ | None -> ()

let count t = with_lock t (fun () -> t.n)
let list t = with_lock t (fun () -> List.rev t.rev_failures)

let count_by_category errors =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let name = Error.category_name e.Error.category in
      Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    errors;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  let open Telemetry.Json in
  let field_opt name conv = function None -> [] | Some v -> [ (name, conv v) ] in
  List
    (List.map
       (fun e ->
         Obj
           ([
              ("loop", String (Option.value ~default:"" e.Error.loop));
              ("stage", String e.Error.stage);
              ("category", String (Error.category_name e.Error.category));
            ]
           @ field_opt "round" (fun i -> Int i) e.Error.round
           @ field_opt "ii" (fun i -> Int i) e.Error.ii
           @ [ ("message", String e.Error.message) ]))
       (list t))

let csv_rows_of_list errors =
  let cell_opt = function None -> "" | Some i -> string_of_int i in
  [ "loop"; "stage"; "category"; "ii"; "round"; "message" ]
  :: List.map
       (fun e ->
         [
           Option.value ~default:"" e.Error.loop;
           e.Error.stage;
           Error.category_name e.Error.category;
           cell_opt e.Error.ii;
           cell_opt e.Error.round;
           e.Error.message;
         ])
       errors

let to_csv_rows t = csv_rows_of_list (list t)
