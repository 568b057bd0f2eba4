type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_str f =
  if not (Float.is_finite f) then "null" (* NaN/inf are not JSON *)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let to_string t =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_str f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let to_compact t =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_str f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go t;
  Buffer.contents buf

exception Fail of string * int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | Some x -> fail (Printf.sprintf "expected '%c', got '%c'" c x)
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "invalid literal"
  in
  (* \u escapes are decoded to UTF-8; surrogate pairs are kept as two
     3-byte sequences (fine for round-tripping our own output, which
     only ever emits \u00xx control escapes). *)
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
           | Some code -> add_utf8 buf code
           | None -> fail "bad \\u escape")
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numeric c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && numeric s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else begin
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        (* out of int range; keep the value rather than the digits *)
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) -> Error (Printf.sprintf "%s at byte %d" msg p)

(* Atomic publication: write to a temp file in the destination
   directory, then rename it over the destination.  The temp file is
   unlinked on every failure path — a failed write or rename must not
   leak [prefix*.tmp] litter next to the destination.  With [durable]
   the temp file is fsynced before the rename and the directory after
   it, which makes the publish crash-safe, not just atomic: a power cut
   right after the rename can never leave a truncated or empty file
   under the destination name, because the data hits disk before the
   name moves and the name move hits disk before we report success. *)
let publish_with ~durable ~prefix ~path content =
  let dir = Filename.dirname path in
  let tmp =
    try Filename.temp_file ~temp_dir:dir prefix ".tmp"
    with Sys_error msg ->
      raise (Sys_error (Printf.sprintf "cannot write %s: %s" path msg))
  in
  let committed = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      (try
         output_string oc content;
         flush oc;
         if durable then Unix.fsync (Unix.descr_of_out_channel oc)
       with e ->
         close_out_noerr oc;
         raise e);
      close_out oc;
      Sys.rename tmp path;
      (* Persist the rename itself.  Some filesystems cannot fsync a
         directory fd (and O_RDONLY on a directory is all POSIX
         guarantees); a failure here degrades durability, not
         atomicity, so it is deliberately non-fatal. *)
      if durable then (
        try
          let dfd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
            (fun () -> Unix.fsync dfd)
        with Unix.Unix_error _ | Sys_error _ -> ());
      committed := true)

let publish_file ?(prefix = ".ncdrf") ~path content =
  publish_with ~durable:false ~prefix ~path content

let write_file ?(prefix = ".ncdrf") ~path content =
  publish_with ~durable:true ~prefix ~path content
