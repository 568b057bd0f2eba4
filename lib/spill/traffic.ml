open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

(* Loads and stores in one pass over the nodes. *)
let memops_per_iteration ddg =
  Ddg.fold_nodes ddg ~init:0 ~f:(fun acc n ->
      if Opcode.is_load n.Ddg.opcode || Opcode.is_store n.Ddg.opcode then acc + 1 else acc)

(* Zero traffic is density 0 whatever the machine; traffic on a machine
   with no memory bandwidth is infinitely dense, not free — returning
   0.0 for both conflated "nothing to transfer" with "nothing can
   transfer". *)
let density ~memops sched =
  let bandwidth = Config.memory_bandwidth sched.Schedule.config in
  if memops = 0 then 0.0
  else if bandwidth = 0 then infinity
  else
    float_of_int memops
    /. (float_of_int (Schedule.ii sched) *. float_of_int bandwidth)
