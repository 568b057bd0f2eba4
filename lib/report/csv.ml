let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let escape s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let line cells = String.concat "," (List.map escape cells)

(* Write to a temp file in the destination directory, then rename: the
   rename is atomic on POSIX, so an interrupted run leaves either the
   old file or the new one, never a truncated CSV. *)
let write path rows =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".csv" ".tmp" in
  let oc = open_out tmp in
  (try List.iter (fun row -> output_string oc (line row ^ "\n")) rows
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path
