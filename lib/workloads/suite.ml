open Ncdrf_ir

type entry = {
  ddg : Ddg.t;
  iterations : float;
  generated : bool;
}

(* Log-normal-ish weight: a few loops dominate, as in the paper where
   the high-pressure loops carry 30-50% of the cycles. *)
let weight_of rng =
  let u1 = Random.State.float rng 1.0 +. 1e-9 in
  let u2 = Random.State.float rng 1.0 in
  let gaussian = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  Float.round (exp (4.0 +. (1.6 *. gaussian)) +. 1.0)

let full ?(size = 795) ?(seed = 42) () =
  if size < 0 then invalid_arg "Suite.full: size must be >= 0";
  let base =
    List.filteri (fun i _ -> i < size)
      (List.map (fun (ddg, iterations) -> { ddg; iterations; generated = false }) (Kernels.all ()))
  in
  let n_generated = size - List.length base in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let one i =
    (* A slice of the suite uses the heavier parameter set: bigger
       loops with more recurrences. *)
    let params = if i mod 5 = 0 then Generator.heavy else Generator.default in
    let name = Printf.sprintf "gen-%04d" i in
    let ddg = Generator.generate params ~seed:(seed + (7919 * i)) ~name in
    { ddg; iterations = weight_of rng; generated = true }
  in
  base @ List.init n_generated one

let weight_share entries ~n =
  let weights =
    List.sort (fun a b -> compare b a) (List.map (fun e -> e.iterations) entries)
  in
  let total = List.fold_left ( +. ) 0.0 weights in
  let rec take k acc = function
    | [] -> acc
    | _ when k = 0 -> acc
    | w :: rest -> take (k - 1) (acc +. w) rest
  in
  if total = 0.0 then 0.0 else take n 0.0 weights /. total
