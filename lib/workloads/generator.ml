open Ncdrf_ir

type params = {
  min_ops : int;
  max_ops : int;
  mem_fraction : float;
  store_fraction : float;
  div_fraction : float;
  invariant_operand_prob : float;
  recurrence_prob : float;
  max_distance : int;
  store_sink_prob : float;
}

let default =
  {
    min_ops = 5;
    max_ops = 24;
    mem_fraction = 0.38;
    store_fraction = 0.3;
    div_fraction = 0.06;
    invariant_operand_prob = 0.3;
    recurrence_prob = 0.12;
    max_distance = 2;
    store_sink_prob = 0.7;
  }

let heavy =
  {
    default with
    min_ops = 16;
    max_ops = 48;
    mem_fraction = 0.34;
    recurrence_prob = 0.2;
  }

(* Pick a random value id among the [n] most recent definitions (the
   last [n] of the [count] in [values], oldest first), biased towards
   recent ones so graphs get chain-like depth rather than all hanging
   off the first load. *)
let pick_value rng values ~count n =
  if n = 0 then None
  else begin
    let idx =
      if Random.State.bool rng then Random.State.int rng n
      else Random.State.int rng (Int.max 1 (n / 2))
    in
    Some values.(count - 1 - idx)
  end

let generate params ~seed ~name =
  if params.min_ops < 2 || params.max_ops < params.min_ops then
    invalid_arg "Generator.generate: bad op bounds";
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  let b = Ddg.Builder.create ~name in
  let n_ops = params.min_ops + Random.State.int rng (params.max_ops - params.min_ops + 1) in
  (* Every node before the sink stores is one of the [n_ops] ops, so
     [consumed] covers every edge source. *)
  let consumed = Array.make n_ops false in
  let flow ?(distance = 0) src dst =
    consumed.(src) <- true;
    Ddg.Builder.add_edge b ~src ~dst ~distance Ddg.Flow
  in
  (* values: in definition order, the first [!count] slots *)
  let values = Array.make n_ops 0 and count = ref 0 in
  let define id =
    values.(!count) <- id;
    incr count
  in
  let pick () = pick_value rng values ~count:!count !count in
  let deferred = ref [] in
  let seq = ref 0 in
  let fresh_label prefix =
    incr seq;
    prefix ^ string_of_int !seq
  in
  let add_load () =
    let array = "a" ^ string_of_int (Random.State.int rng 1000) in
    define (Ddg.Builder.add_node b (Opcode.Load (Opcode.Array array)) ~label:(fresh_label "L"))
  in
  let add_store () =
    match pick () with
    | None -> add_load ()
    | Some v ->
      let array = "o" ^ string_of_int (Random.State.int rng 1000) in
      let id =
        Ddg.Builder.add_node b (Opcode.Store (Opcode.Array array)) ~label:(fresh_label "S")
      in
      flow v id
  in
  let add_arith () =
    let mul_class = Random.State.float rng 1.0 < 0.45 in
    let opcode =
      if mul_class then
        if Random.State.float rng 1.0 < params.div_fraction then Opcode.Fdiv else Opcode.Fmul
      else if Random.State.float rng 1.0 < 0.05 then Opcode.Fcvt
      else if Random.State.bool rng then Opcode.Fadd
      else Opcode.Fsub
    in
    let label_prefix =
      match opcode with
      | Opcode.Fmul | Opcode.Fdiv -> "M"
      | Opcode.Fcvt -> "C"
      | _ -> "A"
    in
    let id = Ddg.Builder.add_node b opcode ~label:(fresh_label label_prefix) in
    let n_operands = match opcode with Opcode.Fcvt -> 1 | _ -> 2 in
    let wire_operand ~may_defer =
      if may_defer && Random.State.float rng 1.0 < params.recurrence_prob then
        deferred := id :: !deferred
      else if Random.State.float rng 1.0 < params.invariant_operand_prob || !count = 0 then
        () (* invariant operand: no dependence *)
      else
        match pick () with
        | Some v -> flow v id
        | None -> ()
    in
    (* First operand prefers a value so that ops chain. *)
    (match pick () with
     | Some v when Random.State.float rng 1.0 > params.invariant_operand_prob /. 2.0 ->
       flow v id
     | Some _ | None -> wire_operand ~may_defer:false);
    for _ = 2 to n_operands do
      wire_operand ~may_defer:true
    done;
    define id
  in
  (* A loop body starts with at least one load. *)
  add_load ();
  for _ = 2 to n_ops do
    if Random.State.float rng 1.0 < params.mem_fraction then begin
      if Random.State.float rng 1.0 < params.store_fraction then add_store () else add_load ()
    end
    else add_arith ()
  done;
  (* Resolve deferred recurrence operands: consumer [c] reads a value
     produced [d] iterations earlier.  Prefer a producer reachable from
     [c] through distance-0 edges, which closes a genuine cycle. *)
  let resolve c =
    (* Distance-0 DFS from c over edges recorded so far is not directly
       available from the builder; approximate with ids >= c, which in
       construction order are exactly the candidates that can be
       downstream of c: the most recent values. *)
    let descendants = ref 0 in
    while !descendants < !count && values.(!count - 1 - !descendants) >= c do
      incr descendants
    done;
    let pool = if !descendants > 0 then !descendants else !count in
    match pick_value rng values ~count:!count pool with
    | None -> ()
    | Some producer ->
      let distance = 1 + Random.State.int rng params.max_distance in
      flow ~distance producer c
  in
  List.iter resolve !deferred;
  (* Give some sink values a store so results are observable, most
     recent first. *)
  let store_sink v =
    if Random.State.float rng 1.0 < params.store_sink_prob then begin
      let array = "sink" ^ string_of_int v in
      let id =
        Ddg.Builder.add_node b (Opcode.Store (Opcode.Array array)) ~label:(fresh_label "S")
      in
      Ddg.Builder.add_edge b ~src:v ~dst:id ~distance:0 Ddg.Flow
    end
  in
  for i = !count - 1 downto 0 do
    let v = values.(i) in
    if not consumed.(v) then store_sink v
  done;
  let graph = Ddg.Builder.freeze b in
  match Ddg.validate graph with
  | Ok () -> graph
  | Error msg ->
    (* Cannot happen: distances on back edges are >= 1, so no
       zero-distance cycle can form. *)
    invalid_arg (Printf.sprintf "Generator.generate: %s" msg)
