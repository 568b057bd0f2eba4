open Ncdrf_ir
open Ncdrf_machine

type placement = {
  cycle : int;
  cluster : int;
}

type t = {
  ddg : Ddg.t;
  config : Config.t;
  ii : int;
  cycles : int array;
  clusters : int array;
}

let of_arrays ~config ~ii ~cycles ~clusters ddg =
  if ii < 1 then invalid_arg "Schedule.make: ii must be >= 1";
  let n = Ddg.num_nodes ddg in
  if Array.length cycles <> n || Array.length clusters <> n then
    invalid_arg "Schedule.make: placement count mismatch";
  let k = Config.num_clusters config in
  Array.iter
    (fun c -> if c < 0 || c >= k then invalid_arg "Schedule.make: cluster out of range")
    clusters;
  { ddg; config; ii; cycles; clusters }

let make ~config ~ii ~placements ddg =
  of_arrays ~config ~ii
    ~cycles:(Array.map (fun p -> p.cycle) placements)
    ~clusters:(Array.map (fun p -> p.cluster) placements)
    ddg

let placements t =
  Array.init (Array.length t.cycles) (fun v -> { cycle = t.cycles.(v); cluster = t.clusters.(v) })

let ii t = t.ii
let cycle t v = t.cycles.(v)
let cluster t v = t.clusters.(v)

let edge_weight t e =
  let src_op = (Ddg.node t.ddg e.Ddg.src).Ddg.opcode in
  Config.latency t.config src_op - (t.ii * e.Ddg.distance)

let first_cycle t = Array.fold_left Int.min max_int t.cycles

(* The first and last cycle in one int loop: every pipeline point asks. *)
let stages t =
  let n = Array.length t.cycles in
  if n = 0 then 0
  else begin
    let first = ref max_int and last = ref min_int in
    for v = 0 to n - 1 do
      let c = t.cycles.(v) in
      first := Int.min !first c;
      last := Int.max !last c
    done;
    ((!last - !first) / t.ii) + 1
  end

(* The clusters do not move, so the copy shares them. *)
let normalize t =
  let shift = first_cycle t in
  if shift = 0 || Array.length t.cycles = 0 then t
  else { t with cycles = Array.map (fun c -> c - shift) t.cycles }

(* The cycles do not move, so the copy shares them. *)
let swap_clusters t a b =
  let clusters = Array.copy t.clusters in
  clusters.(a) <- t.clusters.(b);
  clusters.(b) <- t.clusters.(a);
  { t with clusters }

let validate t =
  let problem = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if Option.is_none !problem then problem := Some s) fmt
  in
  let check_edge e =
    let lhs = cycle t e.Ddg.dst and rhs = cycle t e.Ddg.src + edge_weight t e in
    if lhs < rhs then
      fail "dependence %s -> %s violated: %d < %d"
        (Ddg.node t.ddg e.Ddg.src).Ddg.label
        (Ddg.node t.ddg e.Ddg.dst).Ddg.label lhs rhs
  in
  List.iter check_edge (Ddg.edges t.ddg);
  if Option.is_none !problem then begin
    let rt = Reservation.create t.config ~ii:t.ii in
    let book node =
      let v = node.Ddg.id in
      let cycle = t.cycles.(v) and cluster = t.clusters.(v) in
      if not (Reservation.reserve_in rt ~op:node.Ddg.opcode ~cycle ~cluster) then
        fail "resource overflow at op %s (cycle %d, cluster %d)" node.Ddg.label cycle cluster
    in
    Ddg.iter_nodes t.ddg ~f:book
  end;
  match !problem with
  | None -> Ok ()
  | Some msg -> Error msg

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule of %s on %a: II=%d, %d stages@," (Ddg.name t.ddg)
    Config.pp t.config t.ii (stages t);
  let print node =
    let v = node.Ddg.id in
    Format.fprintf ppf "  %-6s %-12s cycle %3d  cluster %d@," node.Ddg.label
      (Opcode.to_string node.Ddg.opcode)
      t.cycles.(v) t.clusters.(v)
  in
  Ddg.iter_nodes t.ddg ~f:print;
  Format.fprintf ppf "@]"
