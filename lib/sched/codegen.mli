(** Pipelined code generation: prologue, kernel and epilogue.

    A modulo schedule with [S] stages ramps up for [S-1] blocks of [II]
    instructions (block [p] issues only the operations of stages
    [<= p]), runs the kernel, and drains for [S-1] blocks (block [p]
    issues stages [> p]).  With rotating register files and predicated
    execution — the paper's assumed Cydra-5-style support — the kernel
    is emitted once and the prologue/epilogue can even be folded into
    it; without that hardware the kernel must additionally be unrolled
    for modulo variable expansion (see {!Ncdrf_regalloc.Mve}).

    This module materializes the three phases and reports code-size
    numbers so the hardware-support assumption can be costed. *)

type phase =
  | Prologue of int  (** ramp-up block index, [0 .. stages-2] *)
  | Kernel
  | Epilogue of int  (** drain block index, [0 .. stages-2] *)

type row = {
  phase : phase;
  slot : int;  (** kernel row within the block, [0 .. ii-1] *)
  ops : Kernel.slot list;
}

(** All rows in execution order: prologue blocks, kernel, epilogue
    blocks. *)
val generate : Schedule.t -> row list

type size = {
  prologue_rows : int;
  kernel_rows : int;
  epilogue_rows : int;
  total_rows : int;
  nonempty_rows : int;  (** rows issuing at least one operation *)
  operations : int;  (** total operation slots issued across phases *)
}

(** Code size with single-kernel emission (rotating register files). *)
val size : Schedule.t -> size

(** Code size without rotating support: the kernel is unrolled [unroll]
    times for modulo variable expansion (compute the factor with
    [Ncdrf_regalloc.Mve.best], which lives above this library);
    prologue/epilogue as in {!size}. *)
val size_with_unroll : Schedule.t -> unroll:int -> size
