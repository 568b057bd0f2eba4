open Ncdrf_telemetry

type t = {
  ii : int;
  producer : int array;
  start : int array;
  stop : int array;
  bounds : int array;  (* start and stop of each value by [ii], see the .mli *)
  min_regs : int array;
  max_width : int;
}

let fdiv a b =
  (* floor division for possibly negative numerator, b > 0 *)
  if a >= 0 then a / b else -(((-a) + b - 1) / b)

let cdiv a b = fdiv (a + b - 1) b

let pos_mod a m = ((a mod m) + m) mod m

(* The residue window of iteration shifts at which instances of [v] and
   [w] overlap: instance (k + d) of v vs instance k of w, for
   d.ii < e_w - s_v and d.ii > s_w - e_v. *)
let shift_window ~ii v w =
  ( fdiv (w.Lifetime.start - v.Lifetime.stop) ii + 1,
    cdiv (w.Lifetime.stop - v.Lifetime.start) ii - 1 )

let ceil_div a b = if a <= 0 then 0 else (a + b - 1) / b

(* Integer scratch, one array per domain, for the allocation searches'
   temporaries.  A user takes it out of its domain's cell with [borrow]
   and puts it back with [give_back], so two systhreads of one domain
   (the daemon's request handlers) never write the same array: a borrow
   that finds the cell empty or too small allocates its own.  The cell
   keeps arrays up to [retained_words]: a larger one is left to the
   GC. *)
let scratch = Domain.DLS.new_key (fun () -> Atomic.make [||])
let retained_words = 1 lsl 17

let borrow words =
  let held = Atomic.exchange (Domain.DLS.get scratch) [||] in
  if Array.length held >= words then held else Array.make words 0

let give_back a =
  if Array.length a <= retained_words then Atomic.set (Domain.DLS.get scratch) a

(* The width of the window (j -> i) from the bounds: with
   [a = qa * ii + ra], [fdiv (a - b) ii] is [qa - qb], less one when
   [ra < rb], and [cdiv (a - b) ii] is [qa - qb], plus one when
   [ra > rb].  [Alloc.pick] computes the same bounds inline. *)
let pair_width bounds i j =
  let p = 4 * i and q = 4 * j in
  let d_min = bounds.(p) - bounds.(q + 2) + (if bounds.(p + 1) < bounds.(q + 3) then 0 else 1)
  and d_max = bounds.(p + 2) - bounds.(q) - (if bounds.(p + 3) > bounds.(q + 1) then 0 else 1) in
  d_max - d_min + 1

let create ~ii ~producer ~start ~stop =
  let n = Array.length start in
  let bounds = Array.make (4 * n) 0 and min_regs = Array.make n 0 in
  for i = 0 to n - 1 do
    let qs = fdiv start.(i) ii and qe = fdiv stop.(i) ii in
    bounds.(4 * i) <- qs;
    bounds.((4 * i) + 1) <- start.(i) - (qs * ii);
    bounds.((4 * i) + 2) <- qe;
    bounds.((4 * i) + 3) <- stop.(i) - (qe * ii);
    min_regs.(i) <- ceil_div (stop.(i) - start.(i)) ii
  done;
  let max_width = ref 0 and pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let width = pair_width bounds i j in
      if width > 0 then begin
        incr pairs;
        if width > !max_width then max_width := width
      end
    done
  done;
  if !pairs > 0 then Telemetry.incr ~by:!pairs "alloc.pairs";
  { ii; producer; start; stop; bounds; min_regs; max_width = !max_width }

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
let bounds t = t.bounds
let width t i j = pair_width t.bounds i j
let max_width t = t.max_width
