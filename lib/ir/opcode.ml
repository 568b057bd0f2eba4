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
let is_memory op = is_load op || is_store op
let produces_value op = not (is_store op)

let is_spill_load = function
  | Load (Spill _) -> true
  | Load (Array _) | Store _ | Fadd | Fsub | Fmul | Fdiv | Fcvt | Fselect -> false

let is_spill_access = function
  | Load (Spill _) | Store (Spill _) -> true
  | Load (Array _) | Store (Array _) -> false
  | Fadd | Fsub | Fmul | Fdiv | Fcvt | Fselect -> false

let equal_location a b =
  match a, b with
  | Array x, Array y -> String.equal x y
  | Spill x, Spill y -> Int.equal x y
  | Array _, Spill _ | Spill _, Array _ -> false

let equal a b =
  match a, b with
  | Fadd, Fadd | Fsub, Fsub | Fmul, Fmul | Fdiv, Fdiv | Fcvt, Fcvt | Fselect, Fselect ->
    true
  | Load x, Load y | Store x, Store y -> equal_location x y
  | (Fadd | Fsub | Fmul | Fdiv | Fcvt | Fselect | Load _ | Store _), _ -> false

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

let mnemonic = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fcvt -> "fcvt"
  | Fselect -> "fsel"
  | Load loc -> Printf.sprintf "ld %s" (location_to_string loc)
  | Store loc -> Printf.sprintf "st %s" (location_to_string loc)

let pp ppf op = Format.pp_print_string ppf (to_string op)
