open Ncdrf_telemetry

type t = {
  ii : int;
  producer : int array;
  start : int array;
  stop : int array;
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
   d.ii < e_w - s_v and d.ii > s_w - e_v.  [create] computes the same
   bounds from its flat arrays. *)
let shift_window ~ii v w =
  ( fdiv (w.Lifetime.start - v.Lifetime.stop) ii + 1,
    cdiv (w.Lifetime.stop - v.Lifetime.start) ii - 1 )

let ceil_div a b = if a <= 0 then 0 else (a + b - 1) / b

(* Integer scratch, one array per domain, for [create]'s rows and the
   allocation searches' temporaries.  A user takes it out of its
   domain's cell with [borrow] and puts it back with [give_back], so two
   systhreads of one domain (the daemon's request handlers) never write
   the same array: a borrow that finds the cell empty or too small
   allocates its own.  The cell keeps arrays up to [retained_words]: a
   larger one (a table of over 200 lifetimes) is left to the GC. *)
let scratch = Domain.DLS.new_key (fun () -> Atomic.make [||])
let retained_words = 1 lsl 17

let borrow words =
  let held = Atomic.exchange (Domain.DLS.get scratch) [||] in
  if Array.length held >= words then held else Array.make words 0

let give_back a =
  if Array.length a <= retained_words then Atomic.set (Domain.DLS.get scratch) a

let create ~ii ~producer ~start ~stop =
  let n = Array.length start in
  let min_regs = Array.make n 0 in
  for i = 0 to n - 1 do
    min_regs.(i) <- ceil_div (stop.(i) - start.(i)) ii
  done;
  (* Each bound as quotient and remainder by [ii], so a pair's window
     takes no division: with [a = qa * ii + ra], [0 <= ra < ii],
     [fdiv (a - b) ii] is [qa - qb], less one when [ra < rb], and
     [cdiv (a - b) ii] is [qa - qb], plus one when [ra > rb].  The
     scratch holds them at [4 * i] (start quotient and remainder, stop
     quotient and remainder), then each row's fill pointer, then the
     rows. *)
  let stride = 3 * (n - 1) in
  let base = 5 * n in
  let rows = borrow (base + (n * stride)) in
  for i = 0 to n - 1 do
    let qs = fdiv start.(i) ii and qe = fdiv stop.(i) ii in
    rows.(4 * i) <- qs;
    rows.((4 * i) + 1) <- start.(i) - (qs * ii);
    rows.((4 * i) + 2) <- qe;
    rows.((4 * i) + 3) <- stop.(i) - (qe * ii);
    rows.((4 * n) + i) <- base + (i * stride)
  done;
  (* One pass over the i < j pairs computes each window once and
     appends its two triples to rows [i] and [j], where row [r] has
     room for all [n - 1] neighbours at [base + r * stride].  Row [r]
     receives its pairs with smaller indices first, in ascending order,
     then those with larger ones, so every row ascends; each is then
     copied out at its exact length. *)
  let fill = 4 * n in
  let max_width = ref 0 and pairs = ref 0 in
  for i = 0 to n - 1 do
    let qs_i = rows.(4 * i) and rs_i = rows.((4 * i) + 1)
    and qe_i = rows.((4 * i) + 2) and re_i = rows.((4 * i) + 3) in
    for j = i + 1 to n - 1 do
      (* the window (i -> j): instance k + d of i overlaps instance k of j *)
      let q = 4 * j in
      let d_min = rows.(q) - qe_i + (if rows.(q + 1) < re_i then 0 else 1)
      and d_max = rows.(q + 2) - qs_i - (if rows.(q + 3) > rs_i then 0 else 1) in
      if d_max >= d_min then begin
        let width = d_max - d_min + 1 in
        incr pairs;
        if width > !max_width then max_width := width;
        let k = rows.(fill + j) in
        rows.(k) <- i;
        rows.(k + 1) <- d_min;
        rows.(k + 2) <- width;
        rows.(fill + j) <- k + 3;
        (* window (j -> i) is (-d_max, -d_min) by antisymmetry *)
        let k = rows.(fill + i) in
        rows.(k) <- j;
        rows.(k + 1) <- -d_max;
        rows.(k + 2) <- width;
        rows.(fill + i) <- k + 3
      end
    done
  done;
  let adj =
    Array.init n (fun r ->
        let first = base + (r * stride) in
        Array.sub rows first (rows.(fill + r) - first))
  in
  give_back rows;
  if !pairs > 0 then Telemetry.incr ~by:!pairs "alloc.pairs";
  { ii; producer; start; stop; min_regs; adj; max_width = !max_width; passes = Atomic.make 0 }

let make ~ii lifetimes =
  let lifetimes = Array.of_list lifetimes in
  create ~ii
    ~producer:(Array.map (fun l -> l.Lifetime.producer) lifetimes)
    ~start:(Array.map (fun l -> l.Lifetime.start) lifetimes)
    ~stop:(Array.map (fun l -> l.Lifetime.stop) lifetimes)

let ii t = t.ii
let size t = Array.length t.start
let producer t i = t.producer.(i)
let start t i = t.start.(i)
let stop t i = t.stop.(i)
let lifetime t i =
  { Lifetime.producer = t.producer.(i); start = t.start.(i); stop = t.stop.(i) }
let min_registers t i = t.min_regs.(i)
let neighbours t i = t.adj.(i)
let max_width t = t.max_width

let note_pass t =
  if Atomic.fetch_and_add t.passes 1 > 0 then Telemetry.incr "alloc.table_reuse"
