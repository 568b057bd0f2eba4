module Telemetry = Ncdrf_telemetry.Telemetry
module Json = Ncdrf_telemetry.Json
module Trace = Ncdrf_telemetry.Trace

type t = {
  root : string;
  max_bytes : int;  (** 0 = unlimited *)
  hit_count : int Atomic.t;
  miss_count : int Atomic.t;
  write_count : int Atomic.t;
  eviction_count : int Atomic.t;
  approx_bytes : int Atomic.t;
      (** resident-size estimate: seeded by a scan at open, bumped on save,
          refreshed (made exact) by each sweep *)
}

type stats = {
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  bytes : int;
}

let magic = "ncdrf-store/1"
let stale_tmp_age_s = 900.0

(* ------------------------------------------------------------------ *)
(* Entry codec.  The on-disk entry is:

     ncdrf-store/1\n
     <32-hex self-check MD5 of key ^ NUL ^ payload>\n
     <key length> <payload length>\n
     <key bytes><payload bytes>

   Keys embed Config fingerprints, which are NUL-separated binary, so the
   key and payload are length-prefixed rather than line-oriented.  The full
   key is stored (not just its hash) so a filename-hash collision decodes
   as a miss instead of returning another key's artifact. *)

let render_entry ~key payload =
  let check = Digest.to_hex (Digest.string (key ^ "\x00" ^ payload)) in
  Printf.sprintf "%s\n%s\n%d %d\n%s%s" magic check (String.length key)
    (String.length payload) key payload

let parse_entry ~key raw =
  match String.index_opt raw '\n' with
  | None -> None
  | Some nl1 ->
    if String.sub raw 0 nl1 <> magic then None
    else (
      match String.index_from_opt raw (nl1 + 1) '\n' with
      | None -> None
      | Some nl2 ->
        let check = String.sub raw (nl1 + 1) (nl2 - nl1 - 1) in
        (match String.index_from_opt raw (nl2 + 1) '\n' with
        | None -> None
        | Some nl3 ->
          let lens = String.sub raw (nl2 + 1) (nl3 - nl2 - 1) in
          (match String.split_on_char ' ' lens with
          | [ klen; plen ] ->
            (match (int_of_string_opt klen, int_of_string_opt plen) with
            | Some klen, Some plen
              when klen >= 0 && plen >= 0
                   && String.length raw = nl3 + 1 + klen + plen ->
              let stored_key = String.sub raw (nl3 + 1) klen in
              let payload = String.sub raw (nl3 + 1 + klen) plen in
              if
                String.equal stored_key key
                && String.equal check
                     (Digest.to_hex (Digest.string (key ^ "\x00" ^ payload)))
              then Some payload
              else None
            | _ -> None)
          | _ -> None)))

(* ------------------------------------------------------------------ *)
(* Layout *)

let entry_path t key =
  let hex = Digest.to_hex (Digest.string key) in
  Filename.concat
    (Filename.concat t.root (String.sub hex 0 2))
    (String.sub hex 2 (String.length hex - 2) ^ ".art")

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then (
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  in
  go dir

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Some (really_input_string ic (in_channel_length ic))
        with Sys_error _ | End_of_file -> None)

(* Walk every regular file in the store (root plus the 2-hex prefix
   subdirectories).  Entries can disappear underfoot when concurrent
   processes evict — every stat/remove tolerates that. *)
let iter_files t f =
  let in_dir dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
      Array.iter
        (fun name ->
          let path = Filename.concat dir name in
          match Unix.stat path with
          | exception Unix.Unix_error _ -> ()
          | st when st.Unix.st_kind = Unix.S_REG -> f path st
          | _ -> ())
        names
  in
  in_dir t.root;
  (match Sys.readdir t.root with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        let sub = Filename.concat t.root name in
        if try Sys.is_directory sub with Sys_error _ -> false then in_dir sub)
      names)

let is_tmp path = Filename.check_suffix path ".tmp"
let is_entry path = Filename.check_suffix path ".art"

(* ------------------------------------------------------------------ *)
(* Stale temp reclaim (probe-reclaim, like the daemon's stale socket):
   a temp file is only reclaimed once it is old enough that no live
   publisher can still be mid-rename on it. *)

let reclaim_stale t =
  let now = Unix.gettimeofday () in
  let removed = ref 0 in
  iter_files t (fun path st ->
      if is_tmp path && now -. st.Unix.st_mtime > stale_tmp_age_s then (
        match Sys.remove path with
        | () -> incr removed
        | exception Sys_error _ -> ()));
  !removed

(* ------------------------------------------------------------------ *)
(* Eviction: LRU by access stamp (mtime; hits bump it via utimes). *)

let sweep t =
  ignore (reclaim_stale t);
  let entries = ref [] in
  let total = ref 0 in
  iter_files t (fun path st ->
      if is_entry path then (
        entries := (path, st.Unix.st_mtime, st.Unix.st_size) :: !entries;
        total := !total + st.Unix.st_size));
  if t.max_bytes > 0 && !total > t.max_bytes then (
    let by_age =
      List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) !entries
    in
    List.iter
      (fun (path, _, size) ->
        if !total > t.max_bytes then
          match Sys.remove path with
          | () ->
            total := !total - size;
            Atomic.incr t.eviction_count;
            Telemetry.incr "cache.disk_evictions"
          | exception Sys_error _ -> ())
      by_age);
  Atomic.set t.approx_bytes !total

let open_store ?(max_bytes = 0) ~dir () =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "cache dir %s is not a directory" dir));
  let t =
    {
      root = dir;
      max_bytes;
      hit_count = Atomic.make 0;
      miss_count = Atomic.make 0;
      write_count = Atomic.make 0;
      eviction_count = Atomic.make 0;
      approx_bytes = Atomic.make 0;
    }
  in
  sweep t;
  t

let note_hit t =
  Atomic.incr t.hit_count;
  Telemetry.incr "cache.disk_hits";
  Trace.note_disk ~hit:true

let note_miss t =
  Atomic.incr t.miss_count;
  Telemetry.incr "cache.disk_misses";
  Trace.note_disk ~hit:false

let load t ~key ~decode =
  let path = entry_path t key in
  match read_file path with
  | None ->
    note_miss t;
    None
  | Some raw ->
    (match
       match parse_entry ~key raw with
       | None -> None
       | Some payload -> decode payload
     with
    | Some v ->
      note_hit t;
      (* Access stamp for LRU eviction; best-effort. *)
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Some v
    | None ->
      (* Corrupt / stale / colliding entry: unlink so it stops masking the
         slot, then recompute.  Never an error. *)
      (try Sys.remove path with Sys_error _ -> ());
      note_miss t;
      None)

let save t ~key payload =
  let path = entry_path t key in
  let entry = render_entry ~key payload in
  match
    mkdir_p (Filename.dirname path);
    (* No fsync: an entry lost or torn by a crash fails its self-check
       and reads as a miss, which costs only a recompute. *)
    Json.publish_file ~prefix:".store" ~path entry
  with
  | exception (Sys_error _ | Unix.Unix_error _) -> ()
  | () ->
    Atomic.incr t.write_count;
    Telemetry.incr "cache.disk_writes";
    Telemetry.incr ~by:(String.length entry) "cache.disk_bytes";
    let total =
      Atomic.fetch_and_add t.approx_bytes (String.length entry)
      + String.length entry
    in
    if t.max_bytes > 0 && total > t.max_bytes then sweep t

let stats t =
  {
    hits = Atomic.get t.hit_count;
    misses = Atomic.get t.miss_count;
    writes = Atomic.get t.write_count;
    evictions = Atomic.get t.eviction_count;
    bytes = Atomic.get t.approx_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Ambient store: one per process, consulted by Artifact on memory miss. *)

let ambient_store : t option Atomic.t = Atomic.make None
let set_ambient s = Atomic.set ambient_store s
let ambient () = Atomic.get ambient_store
