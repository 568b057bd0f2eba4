exception Parse_error of { file : string option; line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { file = None; line; message })) fmt

let () =
  Printexc.register_printer (function
    | Parse_error { file; line; message } ->
      Some
        (Printf.sprintf "Loop_lang.Parse_error (%sline %d: %s)"
           (match file with None -> "" | Some f -> f ^ ", ")
           line message)
    | _ -> None)

(* Map this front end's exceptions into the typed taxonomy so the suite
   boundary classifies them as [Parse] rather than [Internal]. *)
let () =
  Ncdrf_error.Error.register_classifier (function
    | Parse_error { file; line; message } ->
      Some
        (Ncdrf_error.Error.make ?loop:file ~stage:"parse" Ncdrf_error.Error.Parse
           (Printf.sprintf "%sline %d: %s"
              (match file with None -> "" | Some f -> f ^ ", ")
              line message))
    | Expr.Compile_error message ->
      Some (Ncdrf_error.Error.make ~stage:"parse" Ncdrf_error.Error.Parse message)
    | _ -> None)

type token =
  | Ident of string
  | Number of float
  | Invariant of string
  | Kw_loop
  | Kw_prev
  | Kw_cvt
  | Kw_select
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Equal
  | Plus
  | Minus
  | Star
  | Slash

let token_to_string = function
  | Ident s -> s
  | Number f -> string_of_float f
  | Invariant s -> "$" ^ s
  | Kw_loop -> "loop"
  | Kw_prev -> "prev"
  | Kw_cvt -> "cvt"
  | Kw_select -> "select"
  | Lparen -> "("
  | Rparen -> ")"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Comma -> ","
  | Equal -> "="
  | Plus -> "+"
  | Minus -> "-"
  | Star -> "*"
  | Slash -> "/"

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

(* Position of a "--" comment marker, if any. *)
let find_comment text =
  let n = String.length text in
  let rec scan i =
    if i + 1 >= n then None
    else if text.[i] = '-' && text.[i + 1] = '-' then Some i
    else scan (i + 1)
  in
  scan 0

(* Strip a trailing "-- comment" and tokenize one line. *)
let tokenize_line ~line text =
  let text =
    match find_comment text with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  let n = String.length text in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && (is_digit text.[!j] || text.[!j] = '.') do incr j done;
      let lexeme = String.sub text !i (!j - !i) in
      (match float_of_string_opt lexeme with
       | Some f -> push (Number f)
       | None -> fail line "bad number %S" lexeme);
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char text.[!j] do incr j done;
      let lexeme = String.sub text !i (!j - !i) in
      (match lexeme with
       | "loop" -> push Kw_loop
       | "prev" -> push Kw_prev
       | "cvt" -> push Kw_cvt
       | "select" -> push Kw_select
       | _ -> push (Ident lexeme));
      i := !j
    end
    else if c = '$' then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident_char text.[!j] do incr j done;
      if !j = !i + 1 then fail line "expected identifier after '$'";
      push (Invariant (String.sub text (!i + 1) (!j - !i - 1)));
      i := !j
    end
    else begin
      (match c with
       | '(' -> push Lparen
       | ')' -> push Rparen
       | '[' -> push Lbracket
       | ']' -> push Rbracket
       | ',' -> push Comma
       | '=' -> push Equal
       | '+' -> push Plus
       | '-' -> push Minus
       | '*' -> push Star
       | '/' -> push Slash
       | _ -> fail line "unexpected character %C" c);
      incr i
    end
  done;
  List.rev !tokens

(* Recursive-descent parser over one line's token list. *)
type cursor = { mutable rest : token list; line : int }

let peek cur = match cur.rest with [] -> None | t :: _ -> Some t

let advance cur =
  match cur.rest with
  | [] -> fail cur.line "unexpected end of line"
  | t :: rest ->
    cur.rest <- rest;
    t

let expect cur tok =
  let got = advance cur in
  if got <> tok then
    fail cur.line "expected %S but found %S" (token_to_string tok) (token_to_string got)

let rec parse_expr cur =
  let lhs = parse_term cur in
  parse_expr_rest cur lhs

and parse_expr_rest cur lhs =
  match peek cur with
  | Some Plus ->
    ignore (advance cur);
    let rhs = parse_term cur in
    parse_expr_rest cur (Expr.Add (lhs, rhs))
  | Some Minus ->
    ignore (advance cur);
    let rhs = parse_term cur in
    parse_expr_rest cur (Expr.Sub (lhs, rhs))
  | _ -> lhs

and parse_term cur =
  let lhs = parse_factor cur in
  parse_term_rest cur lhs

and parse_term_rest cur lhs =
  match peek cur with
  | Some Star ->
    ignore (advance cur);
    let rhs = parse_factor cur in
    parse_term_rest cur (Expr.Mul (lhs, rhs))
  | Some Slash ->
    ignore (advance cur);
    let rhs = parse_factor cur in
    parse_term_rest cur (Expr.Div (lhs, rhs))
  | _ -> lhs

and parse_factor cur =
  match advance cur with
  | Number f -> Expr.Const f
  | Invariant s -> Expr.Invariant s
  | Minus ->
    (* Unary minus: compile 0 - e as a subtraction. *)
    let e = parse_factor cur in
    Expr.Sub (Expr.Const 0.0, e)
  | Kw_cvt ->
    expect cur Lparen;
    let e = parse_expr cur in
    expect cur Rparen;
    Expr.Cvt e
  | Kw_select ->
    expect cur Lparen;
    let c = parse_expr cur in
    expect cur Comma;
    let a = parse_expr cur in
    expect cur Comma;
    let b = parse_expr cur in
    expect cur Rparen;
    Expr.Select (c, a, b)
  | Kw_prev ->
    expect cur Lparen;
    let name =
      match advance cur with
      | Ident s -> s
      | t -> fail cur.line "prev: expected scalar name, found %S" (token_to_string t)
    in
    expect cur Comma;
    let d =
      match advance cur with
      | Number f when Float.is_integer f -> int_of_float f
      | t -> fail cur.line "prev: expected integer distance, found %S" (token_to_string t)
    in
    expect cur Rparen;
    Expr.Prev (name, d)
  | Lparen ->
    let e = parse_expr cur in
    expect cur Rparen;
    e
  | Ident s ->
    (match peek cur with
     | Some Lbracket ->
       ignore (advance cur);
       (match advance cur with
        | Ident "i" -> ()
        | t -> fail cur.line "array index must be 'i', found %S" (token_to_string t));
       expect cur Rbracket;
       Expr.Load s
     | _ -> Expr.Ref s)
  | t -> fail cur.line "unexpected token %S" (token_to_string t)

let parse_stmt ~line tokens =
  let cur = { rest = tokens; line } in
  let stmt =
    match advance cur with
    | Ident name ->
      (match peek cur with
       | Some Lbracket ->
         ignore (advance cur);
         (match advance cur with
          | Ident "i" -> ()
          | t -> fail line "store index must be 'i', found %S" (token_to_string t));
         expect cur Rbracket;
         expect cur Equal;
         let e = parse_expr cur in
         Expr.Store (name, e)
       | _ ->
         expect cur Equal;
         let e = parse_expr cur in
         Expr.Def (name, e))
    | t -> fail line "statement must start with an identifier, found %S" (token_to_string t)
  in
  (match cur.rest with
   | [] -> ()
   | t :: _ -> fail line "trailing tokens starting at %S" (token_to_string t));
  stmt

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let loops = ref [] in
  let current = ref None in
  let finish () =
    match !current with
    | None -> ()
    | Some (name, rev_stmts) ->
      loops := Expr.compile ~name (List.rev rev_stmts) :: !loops;
      current := None
  in
  let handle line_no raw =
    match tokenize_line ~line:line_no raw with
    | [] -> ()
    | [ Kw_loop; Ident name ] ->
      finish ();
      Ncdrf_fault.Fault.point ~stage:"parse" ~key:name;
      current := Some (name, [])
    | Kw_loop :: _ -> fail line_no "expected: loop <name>"
    | tokens ->
      (match !current with
       | None -> fail line_no "statement outside of a loop block"
       | Some (name, stmts) ->
         current := Some (name, parse_stmt ~line:line_no tokens :: stmts))
  in
  List.iteri (fun i raw -> handle (i + 1) raw) lines;
  finish ();
  List.rev !loops

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content =
    try really_input_string ic len
    with e ->
      close_in ic;
      raise e
  in
  close_in ic;
  try parse_string content
  with Parse_error { file = None; line; message } ->
    raise (Parse_error { file = Some path; line; message })
