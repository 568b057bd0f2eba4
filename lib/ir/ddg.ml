type kind =
  | Flow
  | Mem

type node = {
  id : int;
  opcode : Opcode.t;
  label : string;
}

type edge = {
  src : int;
  dst : int;
  distance : int;
  kind : kind;
}

type t = {
  name : string;
  node_arr : node array;
  succ_arr : edge list array;
  pred_arr : edge list array;
  edge_count : int;
  mutable digest_memo : string option;
      (* computed lazily by [digest]; graphs are otherwise immutable *)
}

let name g = g.name
let num_nodes g = Array.length g.node_arr

let node g i =
  if i < 0 || i >= num_nodes g then
    invalid_arg (Printf.sprintf "Ddg.node: id %d out of range" i);
  g.node_arr.(i)

let nodes g = Array.to_list g.node_arr
let succs g i = g.succ_arr.(i)
let preds g i = g.pred_arr.(i)
let num_edges g = g.edge_count

let edges g =
  Array.fold_right (fun es acc -> es @ acc) g.succ_arr []

let consumers g i =
  List.filter (fun e -> e.kind = Flow) g.succ_arr.(i)

let iter_nodes g ~f = Array.iter f g.node_arr
let fold_nodes g ~init ~f = Array.fold_left f init g.node_arr

let class_counts g ~adds ~muls ~mems =
  let count n =
    match Opcode.fu_class n.opcode with
    | Opcode.Adder -> incr adds
    | Opcode.Multiplier -> incr muls
    | Opcode.Memory -> incr mems
  in
  iter_nodes g ~f:count

let num_loads g =
  fold_nodes g ~init:0 ~f:(fun acc n -> if Opcode.is_load n.opcode then acc + 1 else acc)

let num_stores g =
  fold_nodes g ~init:0 ~f:(fun acc n -> if Opcode.is_store n.opcode then acc + 1 else acc)

let num_memory_ops g = num_loads g + num_stores g

(* A cycle whose edges all have distance 0 cannot be scheduled: detect by
   DFS over the distance-0 subgraph. *)
let has_zero_distance_cycle g =
  let n = num_nodes g in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let state = Array.make n 0 in
  let rec visit i =
    if state.(i) = 1 then true
    else if state.(i) = 2 then false
    else begin
      state.(i) <- 1;
      let follow e = e.distance = 0 && visit e.dst in
      let cyclic = List.exists follow g.succ_arr.(i) in
      state.(i) <- 2;
      cyclic
    end
  in
  let rec any i = i < n && (visit i || any (i + 1)) in
  any 0

let validate g =
  let n = num_nodes g in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  let check_node i nd = if nd.id <> i then fail "node %d has stale id %d" i nd.id in
  Array.iteri check_node g.node_arr;
  let check_edge e =
    if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
      fail "edge %d->%d out of range" e.src e.dst;
    if e.distance < 0 then fail "edge %d->%d has negative distance" e.src e.dst;
    if e.kind = Flow && not (Opcode.produces_value g.node_arr.(e.src).opcode) then
      fail "flow edge out of non-value node %s" g.node_arr.(e.src).label
  in
  Array.iter (List.iter check_edge) g.succ_arr;
  if !problem = None && has_zero_distance_cycle g then
    fail "graph has a zero-distance cycle";
  match !problem with
  | None -> Ok ()
  | Some msg -> Error msg

module Builder = struct
  type graph = t

  type t = {
    bname : string;
    mutable rev_nodes : node list;
    mutable rev_edges : edge list;
    mutable count : int;
  }

  let create ~name = { bname = name; rev_nodes = []; rev_edges = []; count = 0 }

  let add_node b opcode ~label =
    let id = b.count in
    b.rev_nodes <- { id; opcode; label } :: b.rev_nodes;
    b.count <- b.count + 1;
    id

  let add_edge b ~src ~dst ~distance kind =
    if src < 0 || src >= b.count || dst < 0 || dst >= b.count then
      invalid_arg (Printf.sprintf "Ddg.Builder.add_edge: %d->%d out of range" src dst);
    if distance < 0 then invalid_arg "Ddg.Builder.add_edge: negative distance";
    b.rev_edges <- { src; dst; distance; kind } :: b.rev_edges

  let freeze b : graph =
    let node_arr = Array.of_list (List.rev b.rev_nodes) in
    let n = Array.length node_arr in
    let succ_arr = Array.make n [] in
    let pred_arr = Array.make n [] in
    let edge_count = List.length b.rev_edges in
    let install e =
      succ_arr.(e.src) <- e :: succ_arr.(e.src);
      pred_arr.(e.dst) <- e :: pred_arr.(e.dst)
    in
    List.iter install b.rev_edges;
    { name = b.bname; node_arr; succ_arr; pred_arr; edge_count; digest_memo = None }
end

(* Content digest used as a compile-cache key.  The encoding is an
   injective serialization of everything that influences compilation:
   name, opcodes (with explicit location tags, so an array named
   "spill.0" cannot collide with spill slot 0), labels, and the edge
   lists in adjacency order; integers are decimal, each closed by ';'.
   Graphs built by identical construction sequences serialize
   identically; the memo is safe because graphs are immutable once
   frozen.  The serialization is sized first and then written into one
   exact-length buffer, so it allocates nothing but the buffer. *)

(* Characters of [i] in decimal, as [string_of_int] renders it.  Digits
   are counted on the non-positive side so [min_int] needs no negation. *)
let decimal_width i =
  let rec go w n = if n > -10 then w else go (w + 1) (n / 10) in
  if i < 0 then go 2 i else go 1 (-i)

(* Writes [i] in decimal and a ';' at [pos]; returns the next position. *)
let write_int buf pos i =
  let w = decimal_width i in
  let first = if i < 0 then (Bytes.set buf pos '-'; pos + 1) else pos in
  let n = ref (if i < 0 then i else -i) in
  for p = pos + w - 1 downto first do
    Bytes.set buf p (Char.chr (48 - (!n mod 10)));
    n := !n / 10
  done;
  Bytes.set buf (pos + w) ';';
  pos + w + 1

let write_string buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let write_char buf pos c =
  Bytes.set buf pos c;
  pos + 1

let location_size = function
  | Opcode.Array a -> String.length a + 2
  | Opcode.Spill k -> decimal_width k + 2

let write_location buf pos = function
  | Opcode.Array a -> write_char buf (write_string buf (write_char buf pos 'A') a) '\x00'
  | Opcode.Spill k -> write_int buf (write_char buf pos 'K') k

let opcode_size = function
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fcvt | Opcode.Fselect -> 1
  | Opcode.Load loc | Opcode.Store loc -> 1 + location_size loc

let write_opcode buf pos = function
  | Opcode.Fadd -> write_char buf pos '+'
  | Opcode.Fsub -> write_char buf pos '-'
  | Opcode.Fmul -> write_char buf pos '*'
  | Opcode.Fdiv -> write_char buf pos '/'
  | Opcode.Fcvt -> write_char buf pos 'c'
  | Opcode.Fselect -> write_char buf pos '?'
  | Opcode.Load loc -> write_location buf (write_char buf pos 'L') loc
  | Opcode.Store loc -> write_location buf (write_char buf pos 'S') loc

let rec edges_size acc = function
  | [] -> acc
  | e :: rest ->
    edges_size
      (acc + decimal_width e.src + decimal_width e.dst + decimal_width e.distance + 4)
      rest

let rec write_edges buf pos = function
  | [] -> pos
  | e :: rest ->
    let pos = write_int buf (write_int buf (write_int buf pos e.src) e.dst) e.distance in
    write_edges buf (write_char buf pos (match e.kind with Flow -> 'f' | Mem -> 'm')) rest

let serialize g =
  let size = ref (String.length g.name + 1 + decimal_width (num_nodes g) + 1) in
  Array.iter
    (fun nd -> size := !size + opcode_size nd.opcode + String.length nd.label + 1)
    g.node_arr;
  Array.iter (fun es -> size := edges_size !size es) g.succ_arr;
  let buf = Bytes.create !size in
  let pos = ref (write_int buf (write_char buf (write_string buf 0 g.name) '\x00') (num_nodes g)) in
  Array.iter
    (fun nd ->
      pos := write_char buf (write_string buf (write_opcode buf !pos nd.opcode) nd.label) '\x00')
    g.node_arr;
  Array.iter (fun es -> pos := write_edges buf !pos es) g.succ_arr;
  assert (!pos = !size);
  buf

let digest g =
  match g.digest_memo with
  | Some d -> d
  | None ->
    let d = Digest.to_hex (Digest.bytes (serialize g)) in
    g.digest_memo <- Some d;
    d

let transform g ?(drop_edge = fun _ -> false) ?(add_nodes = []) ?(add_edges = []) () =
  let b = Builder.create ~name:g.name in
  iter_nodes g ~f:(fun nd -> ignore (Builder.add_node b nd.opcode ~label:nd.label));
  let copy (op, label) = ignore (Builder.add_node b op ~label) in
  List.iter copy add_nodes;
  let keep e =
    if not (drop_edge e) then
      Builder.add_edge b ~src:e.src ~dst:e.dst ~distance:e.distance e.kind
  in
  Array.iter (List.iter keep) g.succ_arr;
  let extra e = Builder.add_edge b ~src:e.src ~dst:e.dst ~distance:e.distance e.kind in
  List.iter extra add_edges;
  Builder.freeze b

let pp_stats ppf g =
  let adds = ref 0 and muls = ref 0 and mems = ref 0 in
  class_counts g ~adds ~muls ~mems;
  Format.fprintf ppf "%s: %d ops (%d add, %d mul, %d mem), %d deps" g.name
    (num_nodes g) !adds !muls !mems (num_edges g)
