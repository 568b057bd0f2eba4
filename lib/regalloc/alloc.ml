open Ncdrf_telemetry

type strategy =
  | First_fit
  | Best_fit
  | End_fit

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

(* Sorting indices into the table with the same keys (and stability) as
   the original sort over lifetime values, with the polymorphic tuple
   [compare] replaced by explicit int comparisons. *)
let sort_indices table ~order indices =
  let lt = Conflict.lifetime table in
  let cmp =
    match order with
    | Start_time ->
      fun a b ->
        let la = lt a and lb = lt b in
        let c = Int.compare la.Lifetime.start lb.Lifetime.start in
        if c <> 0 then c
        else Int.compare la.Lifetime.producer lb.Lifetime.producer
    | Longest_first ->
      fun a b ->
        let la = lt a and lb = lt b in
        let c = Int.compare (Lifetime.length lb) (Lifetime.length la) in
        if c <> 0 then c
        else Int.compare la.Lifetime.producer lb.Lifetime.producer
    | Node_order ->
      fun a b -> Int.compare (lt a).Lifetime.producer (lt b).Lifetime.producer
  in
  List.stable_sort cmp indices

(* Mutable allocation state, reusable across the capacity probes of a
   [min_capacity] search: [marks] is the residue occupancy index for the
   value being placed, generation-stamped so it is never cleared;
   [assigned.(j)] is the register of table index [j], -1 if unplaced. *)
type scratch = {
  mutable marks : int array;
  mutable stamp : int;
  assigned : int array;
  mutable probes : int;
}

let make_scratch table =
  {
    marks = [||];
    stamp = 0;
    assigned = Array.make (max 1 (Conflict.size table)) (-1);
    probes = 0;
  }

let flush_probes scratch =
  if scratch.probes > 0 then begin
    Telemetry.incr ~by:scratch.probes "alloc.probes";
    scratch.probes <- 0
  end

(* One allocation pass at a fixed capacity.  [ordered] and [placed] hold
   table indices; the result lists (index, register) in placement order.
   Placement-identical to the original scan: a neighbour [j] at [rj]
   forbids exactly the registers the original [conflict] test would have
   rejected, and the per-strategy scans probe candidates in the same
   sequence — only the feasibility test changed from an O(placed) list
   walk per candidate to an O(1) occupancy lookup. *)
let run_pass table ~strategy ~capacity ~placed ~scratch ordered =
  Conflict.note_pass table;
  let assigned = scratch.assigned in
  Array.fill assigned 0 (Array.length assigned) (-1);
  List.iter (fun (j, r) -> assigned.(j) <- r) placed;
  if Array.length scratch.marks < capacity then
    scratch.marks <- Array.make capacity 0;
  let marks = scratch.marks in
  let rec place acc hint = function
    | [] -> Some (List.rev acc)
    | i :: rest ->
      if Conflict.min_registers table i > capacity then None
      else begin
        scratch.stamp <- scratch.stamp + 1;
        let stamp = scratch.stamp in
        let row = Conflict.neighbours table i in
        let len = Array.length row in
        let blocked = ref false in
        let k = ref 0 in
        while (not !blocked) && !k < len do
          let rj = assigned.(row.(!k)) in
          if rj >= 0 then begin
            scratch.probes <- scratch.probes + 1;
            let width = row.(!k + 2) in
            if width >= capacity then blocked := true
            else begin
              let start = pos_mod (rj + row.(!k + 1)) capacity in
              for o = 0 to width - 1 do
                let idx = start + o in
                let idx = if idx >= capacity then idx - capacity else idx in
                marks.(idx) <- stamp
              done
            end
          end;
          k := !k + 3
        done;
        if !blocked then None
        else begin
          let free r = marks.(r) <> stamp in
          let reg =
            match strategy with
            | First_fit ->
              let rec scan r =
                if r >= capacity then None
                else if free r then Some r
                else scan (r + 1)
              in
              scan 0
            | End_fit ->
              let rec scan r =
                if r < 0 then None else if free r then Some r else scan (r - 1)
              in
              scan (capacity - 1)
            | Best_fit ->
              (* Try registers in increasing circular distance from the
                 hint (the end of the previously placed wand). *)
              let rec scan k =
                if k >= capacity then None
                else begin
                  let r = pos_mod (hint + k) capacity in
                  if free r then Some r else scan (k + 1)
                end
              in
              scan 0
          in
          match reg with
          | None -> None
          | Some r ->
            assigned.(i) <- r;
            place ((i, r) :: acc) (r + Conflict.min_registers table i) rest
        end
      end
  in
  place [] 0 ordered

let allocate_table ?(strategy = First_fit) ?(order = Start_time) ?(placed = [])
    ~capacity table indices =
  if indices = [] then Some []
  else if capacity <= 0 then None
  else begin
    let ordered = sort_indices table ~order indices in
    let scratch = make_scratch table in
    let result = run_pass table ~strategy ~capacity ~placed ~scratch ordered in
    flush_probes scratch;
    result
  end

(* Smallest capacity at which some in-subset pair conflicts at every
   register distance.  Capacities below it cannot succeed, so the search
   may start there — but error messages still report the original lower
   bound. *)
let subset_width_floor table indices =
  let member = Array.make (max 1 (Conflict.size table)) false in
  List.iter (fun i -> member.(i) <- true) indices;
  let floor = ref 0 in
  List.iter
    (fun i ->
      let row = Conflict.neighbours table i in
      let k = ref 0 in
      while !k < Array.length row do
        if member.(row.(!k)) && row.(!k + 2) >= !floor then
          floor := row.(!k + 2) + 1;
        k := !k + 3
      done)
    indices;
  !floor

let min_capacity_table ?(strategy = First_fit) ?(order = Start_time) ?upper
    table indices =
  match indices with
  | [] -> 0
  | _ ->
    let lifetimes = List.map (Conflict.lifetime table) indices in
    let ii = Conflict.ii table in
    let lower =
      max
        (Lifetime.max_live ~ii lifetimes)
        (List.fold_left (fun acc l -> max acc (Lifetime.min_registers ~ii l)) 1 lifetimes)
    in
    let upper =
      match upper with
      | Some u -> u
      | None -> (2 * Lifetime.total_min_registers ~ii lifetimes) + 64
    in
    (* The sorted order and scratch survive every probe; each probe is
       one [run_pass], not a from-scratch [allocate]. *)
    let ordered = sort_indices table ~order indices in
    let scratch = make_scratch table in
    let rec search capacity =
      if capacity > upper then
        Ncdrf_error.Error.errorf ~ii ~stage:"alloc"
          Ncdrf_error.Error.Alloc_infeasible
          "no feasible capacity in [%d, %d] for %d lifetimes" lower upper
          (List.length lifetimes)
      else
        match run_pass table ~strategy ~capacity ~placed:[] ~scratch ordered with
        | Some _ -> capacity
        | None -> search (capacity + 1)
    in
    Fun.protect
      ~finally:(fun () -> flush_probes scratch)
      (fun () -> search (max lower (subset_width_floor table indices)))

let allocate ?(strategy = First_fit) ?(order = Start_time) ?(placed = []) ~ii
    ~capacity lifetimes =
  if lifetimes = [] then Some []
  else if capacity <= 0 then None
  else begin
    let pre = List.map (fun p -> p.value) placed in
    let table = Conflict.make ~ii (pre @ lifetimes) in
    let np = List.length placed in
    let placed_idx = List.mapi (fun j p -> (j, p.register)) placed in
    let indices = List.init (List.length lifetimes) (fun k -> np + k) in
    match allocate_table ~strategy ~order ~placed:placed_idx ~capacity table indices with
    | None -> None
    | Some pairs ->
      Some
        (List.map
           (fun (i, r) -> { value = Conflict.lifetime table i; register = r })
           pairs)
  end

let registers_used placements =
  List.fold_left (fun acc p -> max acc (p.register + 1)) 0 placements

let min_capacity ?(strategy = First_fit) ?(order = Start_time) ?upper ~ii
    lifetimes =
  match lifetimes with
  | [] -> 0
  | _ ->
    let table = Conflict.make ~ii lifetimes in
    min_capacity_table ~strategy ~order ?upper table
      (List.init (Conflict.size table) Fun.id)

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
