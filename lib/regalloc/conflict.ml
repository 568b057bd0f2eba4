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

(* Scratch rows for [create], one array per domain.  A build takes it
   out of its domain's cell and puts it back when done, so two
   systhreads of one domain (the daemon's request handlers) never write
   the same array: a build that finds the cell empty allocates its own.
   It grows to the largest table its domain has built, up to
   [retained_words]: a larger one (over 200 lifetimes) is left to the
   GC after its build, and the cell keeps what it held before. *)
let scratch = Domain.DLS.new_key (fun () -> Atomic.make [||])
let retained_words = 1 lsl 17

let create ~ii ~producer ~start ~stop =
  let n = Array.length start in
  let min_regs = Array.init n (fun i -> ceil_div (stop.(i) - start.(i)) ii) in
  (* Each bound as quotient and remainder by [ii], so a pair's window
     takes no division: with [a = qa * ii + ra], [0 <= ra < ii],
     [fdiv (a - b) ii] is [qa - qb], less one when [ra < rb], and
     [cdiv (a - b) ii] is [qa - qb], plus one when [ra > rb]. *)
  let quot a = Array.map (fun x -> fdiv x ii) a in
  let qs = quot start and qe = quot stop in
  let rs = Array.mapi (fun i x -> x - (qs.(i) * ii)) start
  and re = Array.mapi (fun i x -> x - (qe.(i) * ii)) stop in
  (* One pass over the i < j pairs computes each window once and
     appends its two triples to rows [i] and [j] of the scratch, where
     row [r] has room for all [n - 1] neighbours at [r * stride].  Row
     [r] receives its pairs with smaller indices first, in ascending
     order, then those with larger ones, so every row ascends; each is
     then copied out at its exact length. *)
  let stride = 3 * (n - 1) in
  let cell = Domain.DLS.get scratch in
  let taken = Atomic.exchange cell [||] in
  let rows = if Array.length taken >= n * stride then taken else Array.make (n * stride) 0 in
  let fill = Array.init n (fun r -> r * stride) in
  let max_width = ref 0 and pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (* the window (i -> j): instance k + d of i overlaps instance k of j *)
      let d_min = qs.(j) - qe.(i) + (if rs.(j) < re.(i) then 0 else 1)
      and d_max = qe.(j) - qs.(i) - (if re.(j) > rs.(i) then 0 else 1) in
      if d_max >= d_min then begin
        let width = d_max - d_min + 1 in
        incr pairs;
        if width > !max_width then max_width := width;
        let k = fill.(j) in
        rows.(k) <- i;
        rows.(k + 1) <- d_min;
        rows.(k + 2) <- width;
        fill.(j) <- k + 3;
        (* window (j -> i) is (-d_max, -d_min) by antisymmetry *)
        let k = fill.(i) in
        rows.(k) <- j;
        rows.(k + 1) <- -d_max;
        rows.(k + 2) <- width;
        fill.(i) <- k + 3
      end
    done
  done;
  let adj = Array.init n (fun r -> Array.sub rows (r * stride) (fill.(r) - (r * stride))) in
  Atomic.set cell (if Array.length rows <= retained_words then rows else taken);
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
