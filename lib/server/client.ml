module Error = Ncdrf_error.Error

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let connect ?(connect_timeout_s = 5.0) path =
  let t0 = Ncdrf_telemetry.Telemetry.now () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error (((ENOENT | ECONNREFUSED) as e), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Ncdrf_telemetry.Telemetry.now () -. t0 < connect_timeout_s then begin
        (* The daemon may still be binding its socket; poll briefly. *)
        Unix.sleepf 0.05;
        go ()
      end
      else
        Error.errorf ~stage:"client" Error.Internal "cannot connect to %s: %s" path
          (Unix.error_message e)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error.errorf ~stage:"client" Error.Internal "cannot connect to %s: %s" path
        (Unix.error_message e)
  in
  go ()

let close t =
  (* close_out flushes and closes the shared fd; the in_channel only
     needs its buffer dropped. *)
  try close_out t.oc with Sys_error _ | Unix.Unix_error _ -> ()

let roundtrip t req =
  try
    output_string t.oc (Protocol.render_request req);
    output_char t.oc '\n';
    flush t.oc;
    Protocol.parse_response (input_line t.ic)
  with
  | End_of_file ->
    Stdlib.Error
      (Error.make ~stage:"client" Error.Internal "connection closed by daemon")
  | Unix.Unix_error (e, _, _) ->
    Stdlib.Error
      (Error.errorf ~stage:"client" Error.Internal "transport error: %s"
         (Unix.error_message e))
  | Sys_error msg ->
    Stdlib.Error
      (Error.errorf ~stage:"client" Error.Internal "transport error: %s" msg)

(* Deterministic jitter in [0, 0.1) from the request id and attempt
   number — spreads synchronized retries without a randomness source. *)
let jitter ~id ~attempt =
  float_of_int (Hashtbl.hash (id, attempt) land 0xff) /. 2560.0

let request ?(retries = 5) t (req : Protocol.request) =
  let rec attempt n =
    match roundtrip t req with
    | Stdlib.Error _ as err -> err
    | Ok resp -> (
      match resp.Protocol.body with
      | Protocol.Overloaded { retry_after_s; _ } when n < retries ->
        let backoff = Float.min 2.0 (0.05 *. Float.pow 2.0 (float_of_int n)) in
        Unix.sleepf
          (Float.max retry_after_s backoff +. jitter ~id:req.Protocol.id ~attempt:n);
        attempt (n + 1)
      | _ -> Ok resp)
  in
  attempt 0
