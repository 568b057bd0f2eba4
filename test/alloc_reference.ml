(* The pre-conflict-engine allocator, verbatim.  Do not optimize this
   file: its value is being the simplest possible statement of the
   placement semantics that Alloc must reproduce byte for byte. *)

open Ncdrf_regalloc

type placement = Alloc.placement = {
  value : Lifetime.t;
  register : int;
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

let conflict ~ii ~capacity (v, rv) (w, rw) =
  let d_min, d_max = shift_window ~ii v w in
  let width = d_max - d_min + 1 in
  if width >= capacity then true
  else begin
    let delta = pos_mod (rw - rv) capacity in
    pos_mod (delta - d_min) capacity < width
  end

let sort_for ~order lifetimes =
  let by f = List.stable_sort (fun a b -> compare (f a) (f b)) lifetimes in
  match order with
  | Alloc.Start_time -> by (fun l -> (l.Lifetime.start, l.Lifetime.producer))
  | Alloc.Longest_first -> by (fun l -> (-Lifetime.length l, l.Lifetime.producer))
  | Alloc.Node_order -> by (fun l -> l.Lifetime.producer)

let feasible_register ~ii ~capacity ~placed v r =
  Lifetime.min_registers ~ii v <= capacity
  && not (List.exists (fun p -> conflict ~ii ~capacity (p.value, p.register) (v, r)) placed)

let pick_register ~strategy ~ii ~capacity ~placed ~hint v =
  let feasible r = feasible_register ~ii ~capacity ~placed v r in
  match strategy with
  | Alloc.First_fit ->
    let rec scan r = if r >= capacity then None else if feasible r then Some r else scan (r + 1) in
    scan 0
  | Alloc.End_fit ->
    let rec scan r = if r < 0 then None else if feasible r then Some r else scan (r - 1) in
    scan (capacity - 1)
  | Alloc.Best_fit ->
    (* Try registers in increasing circular distance from the hint (the
       end of the previously placed wand). *)
    let rec scan k =
      if k >= capacity then None
      else begin
        let r = pos_mod (hint + k) capacity in
        if feasible r then Some r else scan (k + 1)
      end
    in
    scan 0

let allocate ?(strategy = Alloc.First_fit) ?(order = Alloc.Start_time) ?(placed = [])
    ~ii ~capacity lifetimes =
  if capacity <= 0 && lifetimes <> [] then None
  else begin
    let ordered = sort_for ~order lifetimes in
    let rec place acc hint = function
      | [] -> Some (List.rev acc)
      | v :: rest ->
        (match pick_register ~strategy ~ii ~capacity ~placed:(acc @ placed) ~hint v with
         | None -> None
         | Some register ->
           let hint = register + Lifetime.min_registers ~ii v in
           place ({ value = v; register } :: acc) hint rest)
    in
    place [] 0 ordered
  end

let min_capacity ?(strategy = Alloc.First_fit) ?(order = Alloc.Start_time) ?upper ~ii
    lifetimes =
  match lifetimes with
  | [] -> 0
  | _ ->
    let lower =
      max
        (Lifetime.max_live ~ii lifetimes)
        (List.fold_left (fun acc l -> max acc (Lifetime.min_registers ~ii l)) 1 lifetimes)
    in
    let upper =
      match upper with
      | Some u -> u
      | None ->
        (2 * List.fold_left (fun acc l -> acc + Lifetime.min_registers ~ii l) 0 lifetimes) + 64
    in
    let rec search capacity =
      if capacity > upper then
        Ncdrf_error.Error.errorf ~ii ~stage:"alloc"
          Ncdrf_error.Error.Alloc_infeasible
          "no feasible capacity in [%d, %d] for %d lifetimes" lower upper
          (List.length lifetimes)
      else
        match allocate ~strategy ~order ~ii ~capacity lifetimes with
        | Some _ -> capacity
        | None -> search (capacity + 1)
    in
    search lower
