type phase =
  | Prologue of int
  | Kernel
  | Epilogue of int

type row = {
  phase : phase;
  slot : int;
  ops : Kernel.slot list;
}

let generate sched =
  let kernel = Kernel.extract sched in
  let ii = kernel.Kernel.ii in
  let stages = Schedule.stages sched in
  let row_of phase ~keep slot =
    { phase; slot; ops = List.filter keep kernel.Kernel.rows.(slot) }
  in
  let block phase ~keep = List.init ii (row_of phase ~keep) in
  let prologue =
    List.concat
      (List.init (max 0 (stages - 1)) (fun p ->
           block (Prologue p) ~keep:(fun s -> s.Kernel.stage <= p)))
  in
  let kernel_rows = block Kernel ~keep:(fun _ -> true) in
  let epilogue =
    List.concat
      (List.init (max 0 (stages - 1)) (fun p ->
           block (Epilogue p) ~keep:(fun s -> s.Kernel.stage > p)))
  in
  prologue @ kernel_rows @ epilogue

type size = {
  prologue_rows : int;
  kernel_rows : int;
  epilogue_rows : int;
  total_rows : int;
  nonempty_rows : int;
  operations : int;
}

let size_with_kernel_copies sched ~copies =
  let rows = generate sched in
  let count p =
    List.length (List.filter (fun r -> p r.phase) rows)
  in
  let prologue_rows = count (function Prologue _ -> true | Kernel | Epilogue _ -> false) in
  let base_kernel = count (function Kernel -> true | Prologue _ | Epilogue _ -> false) in
  let epilogue_rows = count (function Epilogue _ -> true | Prologue _ | Kernel -> false) in
  let kernel_rows = base_kernel * copies in
  let kernel_ops_once =
    List.fold_left
      (fun acc r ->
        match r.phase with Kernel -> acc + List.length r.ops | Prologue _ | Epilogue _ -> acc)
      0 rows
  in
  let nonempty phasewise =
    List.length (List.filter (fun r -> phasewise r.phase && r.ops <> []) rows)
  in
  let nonempty_rows =
    nonempty (function Prologue _ | Epilogue _ -> true | Kernel -> false)
    + (copies * nonempty (function Kernel -> true | Prologue _ | Epilogue _ -> false))
  in
  let operations =
    List.fold_left
      (fun acc r ->
        match r.phase with
        | Kernel -> acc
        | Prologue _ | Epilogue _ -> acc + List.length r.ops)
      0 rows
    + (copies * kernel_ops_once)
  in
  {
    prologue_rows;
    kernel_rows;
    epilogue_rows;
    total_rows = prologue_rows + kernel_rows + epilogue_rows;
    nonempty_rows;
    operations;
  }

let size sched = size_with_kernel_copies sched ~copies:1

let size_with_unroll sched ~unroll =
  if unroll < 1 then invalid_arg "Codegen.size_with_unroll: unroll must be >= 1";
  size_with_kernel_copies sched ~copies:unroll
