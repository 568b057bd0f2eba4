type t =
  | Ideal
  | Unified
  | Partitioned
  | Swapped

let all = [ Ideal; Unified; Partitioned; Swapped ]

let to_string = function
  | Ideal -> "ideal"
  | Unified -> "unified"
  | Partitioned -> "partitioned"
  | Swapped -> "swapped"

let of_string s =
  match String.lowercase_ascii s with
  | "ideal" -> Ok Ideal
  | "unified" | "consistent" -> Ok Unified
  | "partitioned" -> Ok Partitioned
  | "swapped" -> Ok Swapped
  | other ->
    Error (Printf.sprintf "unknown model %S (expected ideal|unified|partitioned|swapped)" other)
