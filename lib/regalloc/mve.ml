type allocation = {
  unroll : int;
  registers : int;
  kernel_instructions : int;
}

let ceil_div a b = (a + b - 1) / b

let quanta ~ii lifetimes =
  List.map (fun l -> Int.max 1 (ceil_div (Lifetime.length l) ii)) lifetimes

let min_unroll ~ii lifetimes = List.fold_left Int.max 1 (quanta ~ii lifetimes)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = a / gcd a b * b

(* The lcm saturates here, keeping the result meaningful for
   pathological lifetime mixes. *)
let max_lcm = 4096

let lcm_unroll ~ii lifetimes =
  List.fold_left (fun acc q -> if acc >= max_lcm then max_lcm else Int.min max_lcm (lcm acc q)) 1
    (quanta ~ii lifetimes)

(* Smallest divisor of [u] that is >= q. *)
let divisor_at_least u q =
  let rec scan d = if d >= u then u else if u mod d = 0 && d >= q then d else scan (d + 1) in
  scan 1

let registers ~ii ~unroll lifetimes =
  let lower = min_unroll ~ii lifetimes in
  if unroll < lower then
    invalid_arg (Printf.sprintf "Mve.registers: unroll %d below minimum %d" unroll lower);
  List.fold_left (fun acc q -> acc + divisor_at_least unroll q) 0 (quanta ~ii lifetimes)

let at_unroll ~ii ~unroll lifetimes =
  {
    unroll;
    registers = registers ~ii ~unroll lifetimes;
    kernel_instructions = unroll * ii;
  }

let best ~ii lifetimes =
  let lower = min_unroll ~ii lifetimes in
  let upper = Int.max lower (Int.min (lcm_unroll ~ii lifetimes) 64) in
  let candidate u = at_unroll ~ii ~unroll:u lifetimes in
  let better a b =
    if a.registers <> b.registers then a.registers < b.registers
    else a.unroll < b.unroll
  in
  let rec scan u best_so_far =
    if u > upper then best_so_far
    else begin
      let c = candidate u in
      scan (u + 1) (if better c best_so_far then c else best_so_far)
    end
  in
  scan (lower + 1) (candidate lower)
