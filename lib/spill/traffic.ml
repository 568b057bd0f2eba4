open Ncdrf_ir
open Ncdrf_machine
open Ncdrf_sched

let memops_per_iteration ddg = Ddg.num_memory_ops ddg

(* Zero traffic is density 0 whatever the machine; traffic on a machine
   with no memory bandwidth is infinitely dense, not free — returning
   0.0 for both conflated "nothing to transfer" with "nothing can
   transfer". *)
let density sched =
  let ddg = sched.Schedule.ddg in
  let cfg = sched.Schedule.config in
  let bandwidth = Config.memory_bandwidth cfg in
  let memops = memops_per_iteration ddg in
  if memops = 0 then 0.0
  else if bandwidth = 0 then infinity
  else
    float_of_int memops
    /. (float_of_int (Schedule.ii sched) *. float_of_int bandwidth)
