module Error = Ncdrf_error.Error
module Telemetry = Ncdrf_telemetry.Telemetry

type spec = {
  stage : string;
  loop_src : string option;
  loop_re : Str.regexp option;
  every : int;
}

let stages = [ "parse"; "schedule"; "alloc"; "spill"; "cache" ]

let spec_to_string s =
  String.concat ","
    (("stage=" ^ s.stage)
     :: (match s.loop_src with None -> [] | Some r -> [ "loop=" ^ r ])
     @ (if s.every = 1 then [] else [ Printf.sprintf "every=%d" s.every ]))

let parse text =
  let parts = String.split_on_char ',' text in
  let rec build acc = function
    | [] -> Ok acc
    | part :: rest ->
      (match String.index_opt part '=' with
       | None -> Result.Error (Printf.sprintf "expected key=value, got %S" part)
       | Some i ->
         let key = String.sub part 0 i in
         let value = String.sub part (i + 1) (String.length part - i - 1) in
         (match key with
          | "stage" ->
            if List.mem value stages then build { acc with stage = value } rest
            else
              Result.Error
                (Printf.sprintf "unknown stage %S (expected one of %s)" value
                   (String.concat ", " stages))
          | "loop" ->
            (match Str.regexp value with
             | re -> build { acc with loop_src = Some value; loop_re = Some re } rest
             | exception Failure msg ->
               Result.Error (Printf.sprintf "bad loop regex %S: %s" value msg))
          | "every" ->
            (match int_of_string_opt value with
             | Some n when n >= 1 -> build { acc with every = n } rest
             | Some _ | None ->
               Result.Error (Printf.sprintf "every expects a positive integer, got %S" value))
          | k -> Result.Error (Printf.sprintf "unknown key %S (stage/loop/every)" k)))
  in
  match build { stage = ""; loop_src = None; loop_re = None; every = 1 } parts with
  | Result.Error _ as e -> e
  | Ok spec -> if spec.stage = "" then Result.Error "spec must name a stage" else Ok spec

(* The armed spec.  [Str] matching mutates global match registers, so
   matches take [match_lock]; arming is test/CI-only, the armed path is
   never the hot path. *)
let current : spec option Atomic.t = Atomic.make None
let match_lock = Mutex.create ()

let arm_spec spec = Atomic.set current (Some spec)

let arm text =
  match parse text with
  | Ok spec ->
    arm_spec spec;
    Ok ()
  | Result.Error _ as e -> e

let disarm () = Atomic.set current None
let armed () = Atomic.get current <> None

let full_match re key =
  Mutex.lock match_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock match_lock)
    (fun () -> Str.string_match re key 0 && Str.match_end () = String.length key)

let spec_selects spec ~stage ~key =
  String.equal spec.stage stage
  && (match spec.loop_re with None -> true | Some re -> full_match re key)
  && (spec.every = 1 || Hashtbl.hash (stage, key) mod spec.every = 0)

let selects ~stage ~key =
  match Atomic.get current with
  | None -> false
  | Some spec -> spec_selects spec ~stage ~key

let point ~stage ~key =
  match Atomic.get current with
  | None -> ()
  | Some spec ->
    if spec_selects spec ~stage ~key then begin
      Telemetry.incr "faults.injected";
      Error.error ~loop:key ~stage Error.Injected
        (Printf.sprintf "injected fault (%s)" (spec_to_string spec))
    end
