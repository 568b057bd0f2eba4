(* [Ddg.digest] as it stood when it rendered the graph through a
   [Buffer] and [string_of_int], kept verbatim as the test oracle: the
   digest keys the compile cache, the on-disk store and the shard
   assignment, so the allocation-free serializer must write exactly
   these bytes. *)

open Ncdrf_ir

let digest g =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let add_int i =
    add (string_of_int i);
    Buffer.add_char buf ';'
  in
  let add_location = function
    | Opcode.Array a ->
      add "A";
      add a;
      Buffer.add_char buf '\x00'
    | Opcode.Spill k ->
      add "K";
      add_int k
  in
  let add_opcode = function
    | Opcode.Fadd -> add "+"
    | Opcode.Fsub -> add "-"
    | Opcode.Fmul -> add "*"
    | Opcode.Fdiv -> add "/"
    | Opcode.Fcvt -> add "c"
    | Opcode.Fselect -> add "?"
    | Opcode.Load loc ->
      add "L";
      add_location loc
    | Opcode.Store loc ->
      add "S";
      add_location loc
  in
  add (Ddg.name g);
  Buffer.add_char buf '\x00';
  add_int (Ddg.num_nodes g);
  Ddg.iter_nodes g ~f:(fun nd ->
      add_opcode nd.Ddg.opcode;
      add nd.Ddg.label;
      Buffer.add_char buf '\x00');
  let add_edge e =
    add_int e.Ddg.src;
    add_int e.Ddg.dst;
    add_int e.Ddg.distance;
    add (match e.Ddg.kind with Ddg.Flow -> "f" | Ddg.Mem -> "m")
  in
  for v = 0 to Ddg.num_nodes g - 1 do
    List.iter add_edge (Ddg.succs g v)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))
