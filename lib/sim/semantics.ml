open Ncdrf_ir

(* splitmix64-style mixer over a string seed and an integer. *)
let mix_string s =
  let h = ref 0x9e3779b97f4a7c15L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0xff51afd7ed558ccdL)
    s;
  !h

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform float in [-1, 1) from two seeds. *)
let uniform seed k =
  let bits = mix64 (Int64.add seed (Int64.mul (Int64.of_int k) 0x9e3779b97f4a7c15L)) in
  let mantissa = Int64.to_float (Int64.shift_right_logical bits 11) in
  (mantissa /. 4503599627370496.0 *. 2.0) -. 1.0

let array_input ~array_name ~iteration = uniform (mix_string ("arr:" ^ array_name)) iteration
let invariant ~loop ~node_id = uniform (mix_string ("inv:" ^ loop)) node_id

let live_in ~loop ~node_id ~iteration =
  uniform (mix_string ("live:" ^ loop)) ((node_id * 8191) + iteration)

let apply ~loop ~node_id op operands =
  let pad2 =
    match operands with
    | [ a; b ] -> (a, b)
    | [ a ] -> (a, invariant ~loop ~node_id)
    | [] ->
      let c = invariant ~loop ~node_id in
      (c, uniform (mix_string ("inv2:" ^ loop)) node_id)
    | a :: b :: _ -> (a, b)
  in
  match op with
  | Opcode.Fadd ->
    let a, b = pad2 in
    a +. b
  | Opcode.Fsub ->
    let a, b = pad2 in
    a -. b
  | Opcode.Fmul ->
    let a, b = pad2 in
    a *. b
  | Opcode.Fdiv ->
    let a, b = pad2 in
    (* Keep the divisor away from zero, identically on both sides. *)
    a /. (Float.abs b +. 1.0)
  | Opcode.Fcvt ->
    let a = match operands with x :: _ -> x | [] -> invariant ~loop ~node_id in
    (a *. 0.5) +. 0.25
  | Opcode.Fselect ->
    (* Operands come in canonical (source id, distance) order; the first
       acts as the predicate.  Both interpreters share this convention,
       which is all determinism needs. *)
    (match operands with
     | p :: a :: b :: _ -> if p >= 0.0 then a else b
     | [ p; a ] -> if p >= 0.0 then a else invariant ~loop ~node_id
     | [ p ] -> if p >= 0.0 then invariant ~loop ~node_id else 0.0
     | [] -> invariant ~loop ~node_id)
  | Opcode.Load _ | Opcode.Store _ ->
    invalid_arg "Semantics.apply: memory operations are interpreted, not computed"

let spill_source ddg load =
  match List.find_opt (fun e -> e.Ddg.kind = Ddg.Mem) (Ddg.preds ddg load) with
  | Some e -> (e.Ddg.src, e.Ddg.distance)
  | None ->
    invalid_arg
      (Printf.sprintf "Semantics.spill_source: spill load %d has no memory source" load)

(* A spill load of iteration k holds what its store wrote [d]
   iterations earlier, which is the store's operand at its own edge
   distance further back — itself possibly a reload.  A store without
   an operand stores its invariant, so it is the origin then. *)
let rec origin ddg v =
  if not (Opcode.is_spill_load (Ddg.node ddg v).Ddg.opcode) then (v, 0)
  else
    let store, d = spill_source ddg v in
    match operand_edges ddg store with
    | e :: _ ->
      let o, d' = origin ddg e.Ddg.src in
      (o, d + e.Ddg.distance + d')
    | [] -> (store, d)

and operand_edges ddg v =
  let key e =
    let o, d = origin ddg e.Ddg.src in
    ((o, e.Ddg.distance + d), e)
  in
  List.map snd
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (List.filter_map
          (fun e -> if e.Ddg.kind = Ddg.Flow then Some (key e) else None)
          (Ddg.preds ddg v)))
