open Ncdrf_ir

type store_event = {
  array : string;
  iteration : int;
  value : float;
}

let equal_event a b =
  String.equal a.array b.array
  && a.iteration = b.iteration
  && Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value)

let equal_stores xs ys =
  List.length xs = List.length ys && List.for_all2 equal_event xs ys

let run ~iterations ddg =
  let loop = Ddg.name ddg in
  let n = Ddg.num_nodes ddg in
  let operands = Array.init n (Semantics.operand_edges ddg) in
  let origins = Array.init n (Semantics.origin ddg) in
  let memo : (int * int, float) Hashtbl.t = Hashtbl.create 256 in
  let rec value v k =
    (* A spill load is transparent: it holds its origin's value of an
       earlier iteration, live-ins included. *)
    let o, d = origins.(v) in
    if o <> v then value o (k - d)
    else if k < 0 then Semantics.live_in ~loop ~node_id:v ~iteration:k
    else
      match Hashtbl.find_opt memo (v, k) with
      | Some x -> x
      | None ->
        let node = Ddg.node ddg v in
        let operands () =
          List.map (fun e -> value e.Ddg.src (k - e.Ddg.distance)) operands.(v)
        in
        let x =
          match node.Ddg.opcode with
          | Opcode.Load (Opcode.Array a) -> Semantics.array_input ~array_name:a ~iteration:k
          | Opcode.Load (Opcode.Spill _) ->
            (* Never reached: a spill load is not its own origin. *)
            invalid_arg "Reference.run: spill load without an origin"
          | Opcode.Store _ ->
            (match operands () with
             | [ x ] -> x
             | [] -> Semantics.invariant ~loop ~node_id:v
             | x :: _ -> x)
          | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fcvt | Opcode.Fselect
            ->
            Semantics.apply ~loop ~node_id:v node.Ddg.opcode (operands ())
        in
        Hashtbl.replace memo (v, k) x;
        x
  in
  let events = ref [] in
  for k = 0 to iterations - 1 do
    Ddg.iter_nodes ddg ~f:(fun n ->
        match n.Ddg.opcode with
        | Opcode.Store (Opcode.Array a) ->
          events := { array = a; iteration = k; value = value n.Ddg.id k } :: !events
        | _ -> ())
  done;
  List.sort compare !events
