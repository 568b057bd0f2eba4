open Ncdrf_ir
open Ncdrf_sched

type config = {
  banks : int;
  service_time : int;
  tolerance : int;
}

type result = {
  base_cycles : int;
  effective_cycles : int;
  slowdown : float;
  accesses : int;
  delayed : int;
  pipeline_slips : int;
}

(* Deterministic bank base for a location; streams then walk the banks
   with the iteration number (stride-1 interleaving). *)
let bank_base location =
  let hash s = Hashtbl.hash s land 0xffff in
  match location with
  | Opcode.Array a -> hash ("arr:" ^ a)
  | Opcode.Spill k -> hash (Printf.sprintf "spill:%d" k)

let simulate ~config ~iterations sched =
  if iterations < 1 then invalid_arg "Memory_system.simulate: iterations must be >= 1";
  let sched = Schedule.normalize sched in
  let ddg = sched.Schedule.ddg in
  let ii = Schedule.ii sched in
  (* Memory accesses of one iteration: (issue cycle, bank base). *)
  let pattern =
    Ddg.fold_nodes ddg ~init:[] ~f:(fun acc node ->
        match node.Ddg.opcode with
        | Opcode.Load location | Opcode.Store location ->
          (Schedule.cycle sched node.Ddg.id, bank_base location) :: acc
        | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fcvt | Opcode.Fselect ->
          acc)
    |> List.sort compare
  in
  let base_cycles = (iterations - 1) * ii + Schedule.stages sched * ii in
  match pattern with
  | [] ->
    {
      base_cycles;
      effective_cycles = base_cycles;
      slowdown = 1.0;
      accesses = 0;
      delayed = 0;
      pipeline_slips = 0;
    }
  | _ ->
    let bank_free = Array.make config.banks 0 in
    let offset = ref 0 in
    let delayed = ref 0 in
    let slips = ref 0 in
    let accesses = ref 0 in
    let last_completion = ref 0 in
    for k = 0 to iterations - 1 do
      List.iter
        (fun (cycle, base) ->
          incr accesses;
          let bank = (base + k) mod config.banks in
          let issue = cycle + (k * ii) + !offset in
          let start = max issue bank_free.(bank) in
          if start > issue then incr delayed;
          let wait = start - issue in
          if wait > config.tolerance then begin
            (* The decoupling queue is full: the pipeline slips. *)
            incr slips;
            offset := !offset + (wait - config.tolerance)
          end;
          bank_free.(bank) <- start + config.service_time;
          if start + config.service_time > !last_completion then
            last_completion := start + config.service_time)
        pattern
    done;
    let effective_cycles = max base_cycles !last_completion in
    {
      base_cycles;
      effective_cycles;
      slowdown = float_of_int effective_cycles /. float_of_int (max 1 base_cycles);
      accesses = !accesses;
      delayed = !delayed;
      pipeline_slips = !slips;
    }
