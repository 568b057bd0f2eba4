open Ncdrf_ir
open Ncdrf_sched

type t =
  | Global
  | Shared of int list
  | Local of int

let pp ppf = function
  | Global -> Format.pp_print_string ppf "GL"
  | Shared cs ->
    Format.fprintf ppf "S%s" (String.concat "" (List.map string_of_int cs))
  | Local 0 -> Format.pp_print_string ppf "LO"
  | Local 1 -> Format.pp_print_string ppf "RO"
  | Local c -> Format.fprintf ppf "C%d" c

let value_class sched v =
  let ddg = sched.Schedule.ddg in
  let node = Ddg.node ddg v in
  if not (Opcode.produces_value node.Ddg.opcode) then
    invalid_arg (Printf.sprintf "Classify.value_class: %s produces no value" node.Ddg.label);
  let consumer_clusters =
    List.map (fun e -> Schedule.cluster sched e.Ddg.dst) (Ddg.consumers ddg v)
  in
  match consumer_clusters with
  | [] -> Local (Schedule.cluster sched v)
  | first :: rest ->
    if List.for_all (fun c -> c = first) rest then Local first
    else begin
      let num_clusters = Ncdrf_machine.Config.num_clusters sched.Schedule.config in
      let members = List.sort_uniq compare consumer_clusters in
      if List.length members >= num_clusters then Global else Shared members
    end

let classify sched =
  let ddg = sched.Schedule.ddg in
  Ddg.fold_nodes ddg ~init:[] ~f:(fun acc node ->
      if Opcode.produces_value node.Ddg.opcode then
        (node, value_class sched node.Ddg.id) :: acc
      else acc)
  |> List.rev
