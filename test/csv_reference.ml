(* A CSV reader, the round-trip check of [Ncdrf_report.Csv.write]:
   [parse_string] is its inverse for any cell content (commas, quotes
   and newlines round-trip), accepts LF and CRLF row separators, and a
   trailing newline does not produce an empty row; an unterminated
   quoted cell raises [Parse_error] naming where it was opened.
   [read path] parses a file's contents. *)

exception Parse_error of string

(* 1-based line/column of byte [i], for error messages. *)
let line_col s i =
  let line = ref 1 and bol = ref 0 in
  for j = 0 to min i (String.length s) - 1 do
    if s.[j] = '\n' then begin
      incr line;
      bol := j + 1
    end
  done;
  (!line, i - !bol + 1)

let parse_string s =
  let n = String.length s in
  let rows = ref [] in
  let cells = ref [] in
  let buf = Buffer.create 32 in
  let flush_cell () =
    cells := Buffer.contents buf :: !cells;
    Buffer.clear buf
  in
  let flush_row () =
    flush_cell ();
    rows := List.rev !cells :: !rows;
    cells := []
  in
  (* [i] scans outside quotes; [quoted i] scans inside a quoted cell. *)
  let rec plain i =
    if i >= n then begin
      (* No trailing newline: flush the pending row unless it is the
         empty row implied by end-of-input right after a newline. *)
      if Buffer.length buf > 0 || !cells <> [] then flush_row ()
    end
    else
      match s.[i] with
      | ',' ->
        flush_cell ();
        plain (i + 1)
      | '\n' ->
        flush_row ();
        plain (i + 1)
      | '\r' when i + 1 < n && s.[i + 1] = '\n' ->
        flush_row ();
        plain (i + 2)
      | '"' when Buffer.length buf = 0 -> quoted ~opened:i (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted ~opened i =
    if i >= n then begin
      let line, col = line_col s opened in
      raise
        (Parse_error
           (Printf.sprintf "unterminated quoted cell (opened at line %d, column %d)"
              line col))
    end
    else
      match s.[i] with
      | '"' when i + 1 < n && s.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted ~opened (i + 2)
      | '"' -> plain (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted ~opened (i + 1)
  in
  plain 0;
  List.rev !rows

let read path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  parse_string contents
