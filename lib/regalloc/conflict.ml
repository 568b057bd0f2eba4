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
   [w] overlap: instance (k + d) of v vs instance k of w, for
   d.ii < e_w - s_v and d.ii > s_w - e_v.  The bounds are separate
   functions so [make] can take them without building a tuple. *)
let d_min ~ii v w = fdiv (w.Lifetime.start - v.Lifetime.stop) ii + 1
let d_max ~ii v w = cdiv (w.Lifetime.stop - v.Lifetime.start) ii - 1
let shift_window ~ii v w = (d_min ~ii v w, d_max ~ii v w)

(* Words per chunk of [make]'s pair record: 64 pairs of 4 words, small
   enough that each chunk is a minor-heap allocation.  The first chunk
   is cut to the most pairs [n] values can have, so a small table
   allocates no more than it needs. *)
let chunk_words = 256

let make ~ii lifetimes =
  let lifetimes = Array.of_list lifetimes in
  let n = Array.length lifetimes in
  let min_regs = Array.map (fun l -> Lifetime.min_registers ~ii l) lifetimes in
  (* One pass over the i < j pairs computes each window once, records
     every non-empty pair as (i, j, d_min(i -> j), width) in a list of
     chunks and counts each row's degree.  Rows are then
     allocated at their exact size and filled in pair order, which
     leaves every row in ascending neighbour order.  Memory is
     O(pairs). *)
  let full = ref [] and cur = ref (Array.make (min chunk_words (2 * n * (n - 1))) 0) in
  let len = ref 0 in
  let degree = Array.make n 0 in
  let max_width = ref 0 in
  let pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d_min = d_min ~ii lifetimes.(i) lifetimes.(j)
      and d_max = d_max ~ii lifetimes.(i) lifetimes.(j) in
      if d_max >= d_min then begin
        let width = d_max - d_min + 1 in
        if !len = Array.length !cur then begin
          full := !cur :: !full;
          cur := Array.make chunk_words 0;
          len := 0
        end;
        let c = !cur and k = !len in
        c.(k) <- i;
        c.(k + 1) <- j;
        c.(k + 2) <- d_min;
        c.(k + 3) <- width;
        len := k + 4;
        degree.(i) <- degree.(i) + 1;
        degree.(j) <- degree.(j) + 1;
        incr pairs;
        if width > !max_width then max_width := width
      end
    done
  done;
  let adj = Array.map (fun d -> Array.make (3 * d) 0) degree in
  let fill = Array.make n 0 in
  let push i j d_min width =
    let row = adj.(i) and k = fill.(i) in
    row.(k) <- j;
    row.(k + 1) <- d_min;
    row.(k + 2) <- width;
    fill.(i) <- k + 3
  in
  let scatter c len =
    let k = ref 0 in
    while !k < len do
      let i = c.(!k) and j = c.(!k + 1) and d_min = c.(!k + 2) and width = c.(!k + 3) in
      push j i d_min width;
      (* window (j -> i) is (-d_max, -d_min) by antisymmetry *)
      push i j (-(d_min + width - 1)) width;
      k := !k + 4
    done
  in
  List.iter (fun c -> scatter c (Array.length c)) (List.rev !full);
  scatter !cur !len;
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
