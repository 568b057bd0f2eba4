open Ncdrf_ir

type cluster = {
  adders : int;
  multipliers : int;
  ls_units : int;
  read_ports : int option;
  write_ports : int option;
}

type t = {
  name : string;
  clusters : cluster array;
  add_latency : int;
  mul_latency : int;
  mem_latency : int;
  load_ports : int option;
  store_ports : int option;
  fingerprint : string;
}

(* Stable cache-key rendering of every field.  The name is included on
   purpose: it does not change scheduling, but keying on it keeps a
   cached schedule's embedded [config] byte-identical to the one the
   caller passed, so cached and cold runs print identically.  Per-cluster
   register-file port caps are rendered only when set, so configurations
   predating the caps keep their historical fingerprint while any port
   budget yields a distinct cache key. *)
let render t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf t.name;
  Buffer.add_char buf '\x00';
  let port = function None -> "-" | Some n -> string_of_int n in
  Array.iter
    (fun c ->
      Buffer.add_string buf (Printf.sprintf "%d,%d,%d" c.adders c.multipliers c.ls_units);
      if c.read_ports <> None || c.write_ports <> None then
        Buffer.add_string buf
          (Printf.sprintf ",r%s,w%s" (port c.read_ports) (port c.write_ports));
      Buffer.add_char buf '|')
    t.clusters;
  Buffer.add_string buf
    (Printf.sprintf "lat=%d,%d,%d;ports=%s,%s" t.add_latency t.mul_latency t.mem_latency
       (port t.load_ports) (port t.store_ports));
  Buffer.contents buf

let make ~name ~clusters ~add_latency ~mul_latency ?(mem_latency = 1) ?load_ports
    ?store_ports () =
  if Array.length clusters = 0 then invalid_arg "Config.make: no clusters";
  let positive what v = if v < 1 then invalid_arg (Printf.sprintf "Config.make: %s" what) in
  positive "add_latency must be >= 1" add_latency;
  positive "mul_latency must be >= 1" mul_latency;
  positive "mem_latency must be >= 1" mem_latency;
  let check_cluster c =
    if c.adders < 0 || c.multipliers < 0 || c.ls_units < 0 then
      invalid_arg "Config.make: negative unit count";
    let port = function
      | Some n when n < 1 -> invalid_arg "Config.make: register-file port cap must be >= 1"
      | _ -> ()
    in
    port c.read_ports;
    port c.write_ports
  in
  Array.iter check_cluster clusters;
  (* [clusters] is copied so that the caller mutating its array cannot
     leave the fingerprint stale. *)
  let t =
    { name; clusters = Array.copy clusters; add_latency; mul_latency; mem_latency;
      load_ports; store_ports; fingerprint = "" }
  in
  { t with fingerprint = render t }

let symmetric_cluster ?read_ports ?write_ports ~adders ~multipliers ~ls_units () =
  { adders; multipliers; ls_units; read_ports; write_ports }

let pxly ~parallelism ~latency =
  make
    ~name:(Printf.sprintf "P%dL%d" parallelism latency)
    ~clusters:
      [|
        symmetric_cluster ~adders:parallelism ~multipliers:parallelism ~ls_units:3 ();
      |]
    ~add_latency:latency ~mul_latency:latency ~load_ports:2 ~store_ports:1 ()

let k_cluster ?read_ports ?write_ports ~k ~latency () =
  if k < 1 then invalid_arg "Config.k_cluster: k must be >= 1";
  let name =
    if k = 2 && read_ports = None && write_ports = None then
      Printf.sprintf "dual-L%d" latency
    else Printf.sprintf "k%d-L%d" k latency
  in
  make ~name
    ~clusters:
      (Array.init k (fun _ ->
           symmetric_cluster ?read_ports ?write_ports ~adders:1 ~multipliers:1
             ~ls_units:1 ()))
    ~add_latency:latency ~mul_latency:latency ()

let dual ~latency = k_cluster ~k:2 ~latency ()

let dual_unified ~latency =
  make
    ~name:(Printf.sprintf "unified-L%d" latency)
    ~clusters:[| symmetric_cluster ~adders:2 ~multipliers:2 ~ls_units:2 () |]
    ~add_latency:latency ~mul_latency:latency ()

let example () =
  make ~name:"example"
    ~clusters:
      [|
        symmetric_cluster ~adders:1 ~multipliers:1 ~ls_units:2 ();
        symmetric_cluster ~adders:1 ~multipliers:1 ~ls_units:2 ();
      |]
    ~add_latency:3 ~mul_latency:3 ()

let num_clusters t = Array.length t.clusters

let latency t op =
  match Opcode.fu_class op with
  | Opcode.Adder -> t.add_latency
  | Opcode.Multiplier -> t.mul_latency
  | Opcode.Memory -> t.mem_latency

let sum_clusters t f = Array.fold_left (fun acc c -> acc + f c) 0 t.clusters
let total_adders t = sum_clusters t (fun c -> c.adders)
let total_multipliers t = sum_clusters t (fun c -> c.multipliers)
let total_ls_units t = sum_clusters t (fun c -> c.ls_units)

let has_port_caps t =
  Array.exists (fun c -> c.read_ports <> None || c.write_ports <> None) t.clusters

let memory_bandwidth t =
  let units = total_ls_units t in
  match t.load_ports, t.store_ports with
  | Some l, Some s -> min units (l + s)
  | Some l, None -> min units l
  | None, Some s -> min units s
  | None, None -> units

let fingerprint t = t.fingerprint

let pp ppf t =
  let cluster_desc c =
    let base = Printf.sprintf "%da+%dm+%dls" c.adders c.multipliers c.ls_units in
    match c.read_ports, c.write_ports with
    | None, None -> base
    | r, w ->
      let show = function None -> "-" | Some n -> string_of_int n in
      Printf.sprintf "%s,rd=%s,wr=%s" base (show r) (show w)
  in
  let clusters =
    String.concat " | " (Array.to_list (Array.map cluster_desc t.clusters))
  in
  let ports =
    match t.load_ports, t.store_ports with
    | None, None -> ""
    | l, s ->
      let show = function None -> "-" | Some n -> string_of_int n in
      Printf.sprintf ", ports ld=%s st=%s" (show l) (show s)
  in
  Format.fprintf ppf "%s [%s], lat add=%d mul=%d mem=%d%s" t.name clusters
    t.add_latency t.mul_latency t.mem_latency ports

(* ------------------------------------------------------------------ *)
(* CLI / wire specs                                                    *)
(* ------------------------------------------------------------------ *)

type spec = {
  spec_latency : int;
  spec_clusters : int;
  spec_read_ports : int option;
  spec_write_ports : int option;
}

let default_spec =
  { spec_latency = 3; spec_clusters = 2; spec_read_ports = None; spec_write_ports = None }

let of_spec { spec_latency = latency; spec_clusters = clusters;
              spec_read_ports = read_ports; spec_write_ports = write_ports } =
  match clusters with
  | n when n < 1 ->
    Error (Printf.sprintf "unsupported cluster count %d (must be >= 1)" n)
  | 1 ->
    Ok
      (match read_ports, write_ports with
       | None, None -> dual_unified ~latency
       | _ ->
         (* The unified machine's resources with register-file port caps. *)
         make
           ~name:(Printf.sprintf "unified-L%d" latency)
           ~clusters:
             [|
               symmetric_cluster ?read_ports ?write_ports ~adders:2 ~multipliers:2
                 ~ls_units:2 ();
             |]
           ~add_latency:latency ~mul_latency:latency ())
  | 2 when read_ports = None && write_ports = None -> Ok (dual ~latency)
  | k -> Ok (k_cluster ?read_ports ?write_ports ~k ~latency ())
