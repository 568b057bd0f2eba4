type location =
  | Array of string
  | Spill of int

type t =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fcvt
  | Fselect
  | Load of location
  | Store of location

type fu_class =
  | Adder
  | Multiplier
  | Memory

let fu_class = function
  | Fadd | Fsub | Fcvt | Fselect -> Adder
  | Fmul | Fdiv -> Multiplier
  | Load _ | Store _ -> Memory

let is_load = function Load _ -> true | Fadd | Fsub | Fmul | Fdiv | Fcvt | Fselect | Store _ -> false
let is_store = function Store _ -> true | Fadd | Fsub | Fmul | Fdiv | Fcvt | Fselect | Load _ -> false
let produces_value op = not (is_store op)

let is_spill_load = function
  | Load (Spill _) -> true
  | Load (Array _) | Store _ | Fadd | Fsub | Fmul | Fdiv | Fcvt | Fselect -> false

let location_to_string = function
  | Array a -> a
  | Spill n -> Printf.sprintf "spill.%d" n

let to_string = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fcvt -> "fcvt"
  | Fselect -> "fsel"
  | Load loc -> Printf.sprintf "load %s" (location_to_string loc)
  | Store loc -> Printf.sprintf "store %s" (location_to_string loc)
