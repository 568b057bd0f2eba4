open Ncdrf_telemetry

type order =
  | Start_time
  | Longest_first
  | Node_order

type placement = {
  value : Lifetime.t;
  register : int;
}

let pos_mod = Conflict.pos_mod

let conflict ~ii ~capacity (v, rv) (w, rw) =
  let d_min, d_max = Conflict.shift_window ~ii v w in
  let width = d_max - d_min + 1 in
  if width >= capacity then true
  else begin
    let delta = pos_mod (rw - rv) capacity in
    pos_mod (delta - d_min) capacity < width
  end

(* Indices of the table in placement order, stably.  Every order breaks
   ties by producer, so over one schedule's values the order is total
   and sorting a subset gives the same sequence as filtering the sorted
   whole. *)
let sorted ?(order = Start_time) table indices =
  let by_producer a b = Int.compare (Conflict.producer table a) (Conflict.producer table b) in
  let length i = Conflict.stop table i - Conflict.start table i in
  let cmp =
    match order with
    | Start_time ->
      fun a b ->
        let c = Int.compare (Conflict.start table a) (Conflict.start table b) in
        if c <> 0 then c else by_producer a b
    | Longest_first ->
      fun a b ->
        let c = Int.compare (length b) (length a) in
        if c <> 0 then c else by_producer a b
    | Node_order -> by_producer
  in
  let ordered = Array.copy indices in
  Array.stable_sort cmp ordered;
  ordered

(* Mutable allocation state over one table, reusable across passes:
   [marks] is the residue occupancy index for the value being placed,
   generation-stamped so it is never cleared; [registers.(j)] is the
   register of table index [j], -1 if unplaced. *)
type scratch = {
  mutable marks : int array;
  mutable stamp : int;
  registers : int array;
  mutable probes : int;
}

let scratch table =
  {
    marks = [||];
    stamp = 0;
    registers = Array.make (Int.max 1 (Conflict.size table)) (-1);
    probes = 0;
  }

let registers s = s.registers
(* A loop rather than [Array.fill]: a table holds tens of values, and
   every capacity probe clears them. *)
let unassign_all s =
  let r = s.registers in
  for i = 0 to Array.length r - 1 do
    r.(i) <- -1
  done

let flush_probes s =
  if s.probes > 0 then begin
    Telemetry.incr ~by:s.probes "alloc.probes";
    s.probes <- 0
  end

(* Index of the lowest set bit of a non-zero [x] below bit 62, by
   halving. *)
let lowest_bit x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n

(* Capacities up to this many registers keep the forbidden set in one
   int bit set; larger ones mark an occupancy array. *)
let word_capacity = 62

(* The register value [i] gets at [capacity] under First-Fit, or -1.
   A placed neighbour [j] at [rj] forbids exactly the registers the
   [conflict] test would reject: a circular run of [width] residues, one
   mask operation (or an O(width) marking past [word_capacity]) instead
   of an O(placed) walk per candidate; the lowest free register wins.
   Allocates nothing; probes are counted locally and added to [s]
   once. *)
let pick table ~capacity s i =
  if Conflict.min_registers table i > capacity then -1
  else begin
    let words = capacity <= word_capacity in
    let full = if words then (1 lsl capacity) - 1 else 0 in
    s.stamp <- s.stamp + 1;
    let stamp = s.stamp and marks = s.marks and registers = s.registers in
    let row = Conflict.neighbours table i in
    let len = Array.length row in
    let taken = ref 0 and blocked = ref false and probes = ref 0 and k = ref 0 in
    while (not !blocked) && !k < len do
      let rj = registers.(row.(!k)) in
      if rj >= 0 then begin
        incr probes;
        let width = row.(!k + 2) in
        if width >= capacity then blocked := true
        else begin
          (* [pos_mod] without a division: [rj] is in [0, capacity)
             and a window's shift is almost always within one capacity
             of it, so one correction suffices; [mod] is the fallback.
             Inline, so that no call spills the loop's registers. *)
          let start = rj + row.(!k + 1) in
          let start =
            if start >= capacity then
              if start < 2 * capacity then start - capacity else start mod capacity
            else if start >= 0 then start
            else if start >= -capacity then start + capacity
            else
              let r = start mod capacity in
              if r < 0 then r + capacity else r
          in
          if words then begin
            let stop = start + width in
            taken :=
              !taken
              lor (if stop <= capacity then ((1 lsl width) - 1) lsl start
                   else full lxor ((1 lsl start) - 1) lor ((1 lsl (stop - capacity)) - 1))
          end
          else
            for o = 0 to width - 1 do
              let idx = start + o in
              let idx = if idx >= capacity then idx - capacity else idx in
              marks.(idx) <- stamp
            done
        end
      end;
      k := !k + 3
    done;
    s.probes <- s.probes + !probes;
    if !blocked then -1
    else if words then begin
      let free = full land lnot !taken in
      if free = 0 then -1 else lowest_bit free
    end
    else begin
      let r = ref 0 in
      while !r < capacity && marks.(!r) = stamp do
        incr r
      done;
      if !r < capacity then !r else -1
    end
  end

let place table s ~capacity ordered ~pos ~len =
  if len = 0 then true
  else if capacity <= 0 then false
  else begin
    Conflict.note_pass table;
    if capacity > word_capacity && Array.length s.marks < capacity then
      s.marks <- Array.make capacity 0;
    let ok = ref true and k = ref pos in
    while !ok && !k < pos + len do
      let i = ordered.(!k) in
      let r = pick table ~capacity s i in
      if r < 0 then ok := false
      else begin
        s.registers.(i) <- r;
        incr k
      end
    done;
    !ok
  end

(* Smallest capacity at which some in-subset pair conflicts at every
   register distance.  Capacities below it cannot succeed, so the search
   may start there — but error messages still report the original lower
   bound. *)
let subset_width_floor table ordered =
  let member = Conflict.borrow (Conflict.size table) in
  Array.fill member 0 (Conflict.size table) 0;
  Array.iter (fun i -> member.(i) <- 1) ordered;
  let floor = ref 0 in
  Array.iter
    (fun i ->
      let row = Conflict.neighbours table i in
      let k = ref 0 in
      while !k < Array.length row do
        if member.(row.(!k)) = 1 && row.(!k + 2) >= !floor then
          floor := row.(!k + 2) + 1;
        k := !k + 3
      done)
    ordered;
  Conflict.give_back member;
  !floor

let min_capacity_sorted ?upper ?floor table s ordered =
  if Array.length ordered = 0 then 0
  else begin
    let ii = Conflict.ii table in
    let live = Conflict.borrow ii in
    Array.fill live 0 ii 0;
    let whole = ref 0 and longest = ref 1 and total = ref 0 in
    for k = 0 to Array.length ordered - 1 do
      let i = ordered.(k) in
      whole :=
        !whole
        + Lifetime.add_instances live ~ii ~start:(Conflict.start table i)
            ~stop:(Conflict.stop table i);
      longest := Int.max !longest (Conflict.min_registers table i);
      total := !total + Conflict.min_registers table i
    done;
    let top = ref 0 in
    for slot = 0 to ii - 1 do
      top := Int.max !top live.(slot)
    done;
    Conflict.give_back live;
    let lower = Int.max (!whole + !top) !longest in
    let upper = match upper with Some u -> u | None -> (2 * !total) + 64 in
    let rec search capacity =
      if capacity > upper then
        Ncdrf_error.Error.errorf ~ii ~stage:"alloc" Ncdrf_error.Error.Alloc_infeasible
          "no feasible capacity in [%d, %d] for %d lifetimes" lower upper
          (Array.length ordered)
      else begin
        unassign_all s;
        let ok = place table s ~capacity ordered ~pos:0 ~len:(Array.length ordered) in
        flush_probes s;
        if ok then capacity else search (capacity + 1)
      end
    in
    let floor =
      match floor with Some f -> f | None -> subset_width_floor table ordered
    in
    search (Int.max lower floor)
  end

let allocate ~ii ~capacity lifetimes =
  if lifetimes = [] then Some []
  else if capacity <= 0 then None
  else begin
    let table = Conflict.make ~ii lifetimes in
    let s = scratch table in
    let ordered = sorted table (Array.init (Conflict.size table) Fun.id) in
    let ok = place table s ~capacity ordered ~pos:0 ~len:(Array.length ordered) in
    flush_probes s;
    if not ok then None
    else
      Some
        (Array.to_list
           (Array.map
              (fun i -> { value = Conflict.lifetime table i; register = s.registers.(i) })
              ordered))
  end

let min_capacity ?order ?upper ~ii lifetimes =
  match lifetimes with
  | [] -> 0
  | _ ->
    let table = Conflict.make ~ii lifetimes in
    min_capacity_sorted ?upper table (scratch table)
      (sorted ?order table (Array.init (Conflict.size table) Fun.id))

let check ~ii ~capacity placements =
  let rec pairs = function
    | [] -> Ok ()
    | p :: rest ->
      let bad q = conflict ~ii ~capacity (p.value, p.register) (q.value, q.register) in
      (match List.find_opt bad rest with
       | Some q ->
         Error
           (Printf.sprintf "values of nodes %d and %d collide (regs %d, %d)"
              p.value.Lifetime.producer q.value.Lifetime.producer p.register q.register)
       | None ->
         if p.register < 0 || p.register >= capacity then
           Error (Printf.sprintf "register %d out of range" p.register)
         else if Lifetime.min_registers ~ii p.value > capacity then
           Error (Printf.sprintf "value of node %d does not fit capacity" p.value.Lifetime.producer)
         else pairs rest)
  in
  pairs placements
