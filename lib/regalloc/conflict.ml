open Ncdrf_telemetry

type t = {
  ii : int;
  lifetimes : Lifetime.t array;
  min_regs : int array;
  adj : int array array;
      (* adj.(i) is a flat stride-3 array of (j, d_min(j -> i), width)
         triples, one per neighbour j with a non-empty shift window. *)
  max_width : int;
  passes : int Atomic.t;
}

let fdiv a b =
  (* floor division for possibly negative numerator, b > 0 *)
  if a >= 0 then a / b else -(((-a) + b - 1) / b)

let cdiv a b = fdiv (a + b - 1) b

let pos_mod a m = ((a mod m) + m) mod m

(* The residue window of iteration shifts at which instances of [v] and
   [w] overlap: instance (k + d) of v vs instance k of w. *)
let shift_window ~ii v w =
  (* d.ii < e_w - s_v  and  d.ii > s_w - e_v *)
  let d_min = fdiv (w.Lifetime.start - v.Lifetime.stop) ii + 1 in
  let d_max = cdiv (w.Lifetime.stop - v.Lifetime.start) ii - 1 in
  (d_min, d_max)

let make ~ii lifetimes =
  let lifetimes = Array.of_list lifetimes in
  let n = Array.length lifetimes in
  let min_regs = Array.map (fun l -> Lifetime.min_registers ~ii l) lifetimes in
  (* Two passes over the i < j pairs: size the rows, then fill them.
     Windows are two divisions each; recomputing beats intermediates. *)
  let degree = Array.make n 0 in
  let max_width = ref 0 in
  let pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d_min, d_max = shift_window ~ii lifetimes.(i) lifetimes.(j) in
      if d_max >= d_min then begin
        degree.(i) <- degree.(i) + 1;
        degree.(j) <- degree.(j) + 1;
        incr pairs;
        if d_max - d_min + 1 > !max_width then max_width := d_max - d_min + 1
      end
    done
  done;
  let adj = Array.init n (fun i -> Array.make (3 * degree.(i)) 0) in
  let fill = Array.make n 0 in
  let push i j d_min width =
    let row = adj.(i) in
    let k = fill.(i) in
    row.(k) <- j;
    row.(k + 1) <- d_min;
    row.(k + 2) <- width;
    fill.(i) <- k + 3
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d_min, d_max = shift_window ~ii lifetimes.(i) lifetimes.(j) in
      if d_max >= d_min then begin
        let width = d_max - d_min + 1 in
        push j i d_min width;
        (* window (j -> i) is (-d_max, -d_min) by antisymmetry *)
        push i j (-d_max) width
      end
    done
  done;
  if !pairs > 0 then Telemetry.incr ~by:!pairs "alloc.pairs";
  { ii; lifetimes; min_regs; adj; max_width = !max_width; passes = Atomic.make 0 }

let ii t = t.ii
let size t = Array.length t.lifetimes
let lifetime t i = t.lifetimes.(i)
let min_registers t i = t.min_regs.(i)
let neighbours t i = t.adj.(i)
let max_width t = t.max_width

let note_pass t =
  if Atomic.fetch_and_add t.passes 1 > 0 then Telemetry.incr "alloc.table_reuse"
