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
  placements : placement array;
}

let make ~config ~ii ~placements ddg =
  if ii < 1 then invalid_arg "Schedule.make: ii must be >= 1";
  if Array.length placements <> Ddg.num_nodes ddg then
    invalid_arg "Schedule.make: placement count mismatch";
  let check p =
    if p.cluster < 0 || p.cluster >= Config.num_clusters config then
      invalid_arg "Schedule.make: cluster out of range"
  in
  Array.iter check placements;
  { ddg; config; ii; placements }

let ii t = t.ii
let cycle t v = t.placements.(v).cycle
let cluster t v = t.placements.(v).cluster

let edge_weight t e =
  let src_op = (Ddg.node t.ddg e.Ddg.src).Ddg.opcode in
  Config.latency t.config src_op - (t.ii * e.Ddg.distance)

let first_cycle t =
  let first = ref max_int in
  for v = 0 to Array.length t.placements - 1 do
    first := Int.min !first t.placements.(v).cycle
  done;
  !first

(* The first and last cycle in one int loop: every pipeline point asks. *)
let stages t =
  let n = Array.length t.placements in
  if n = 0 then 0
  else begin
    let first = ref max_int and last = ref min_int in
    for v = 0 to n - 1 do
      let c = t.placements.(v).cycle in
      first := Int.min !first c;
      last := Int.max !last c
    done;
    ((!last - !first) / t.ii) + 1
  end

let normalize t =
  let shift = first_cycle t in
  if shift = 0 || Array.length t.placements = 0 then t
  else
    {
      t with
      placements = Array.map (fun p -> { p with cycle = p.cycle - shift }) t.placements;
    }

let swap_clusters t a b =
  let placements = Array.copy t.placements in
  let ca = placements.(a).cluster and cb = placements.(b).cluster in
  placements.(a) <- { (placements.(a)) with cluster = cb };
  placements.(b) <- { (placements.(b)) with cluster = ca };
  { t with placements }

let validate t =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  let check_edge e =
    let lhs = cycle t e.Ddg.dst and rhs = cycle t e.Ddg.src + edge_weight t e in
    if lhs < rhs then
      fail "dependence %s -> %s violated: %d < %d"
        (Ddg.node t.ddg e.Ddg.src).Ddg.label
        (Ddg.node t.ddg e.Ddg.dst).Ddg.label lhs rhs
  in
  List.iter check_edge (Ddg.edges t.ddg);
  if !problem = None then begin
    let rt = Reservation.create t.config ~ii:t.ii in
    let book node =
      let p = t.placements.(node.Ddg.id) in
      if not (Reservation.reserve_in rt ~op:node.Ddg.opcode ~cycle:p.cycle ~cluster:p.cluster)
      then fail "resource overflow at op %s (cycle %d, cluster %d)" node.Ddg.label p.cycle p.cluster
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
    let p = t.placements.(node.Ddg.id) in
    Format.fprintf ppf "  %-6s %-12s cycle %3d  cluster %d@," node.Ddg.label
      (Opcode.to_string node.Ddg.opcode)
      p.cycle p.cluster
  in
  Ddg.iter_nodes t.ddg ~f:print;
  Format.fprintf ppf "@]"
