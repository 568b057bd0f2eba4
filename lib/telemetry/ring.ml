type 'a t = {
  cap : int;
  dummy : 'a;
  mutable slots : 'a array;
  mutable added : int;
}

let create ~cap dummy = { cap = max 1 cap; dummy; slots = [||]; added = 0 }

(* Until the first wrap the items sit in slots[0..added-1] in order, so
   growing is one blit. *)
let add t x =
  let len = Array.length t.slots in
  if t.added >= len && len < t.cap then begin
    let grown = Array.make (min t.cap (max 16 (2 * len))) t.dummy in
    Array.blit t.slots 0 grown 0 len;
    t.slots <- grown
  end;
  t.slots.(t.added mod Array.length t.slots) <- x;
  t.added <- t.added + 1

let added t = t.added
let length t = min t.added (Array.length t.slots)
let dropped t = t.added - length t
let allocated t = Array.length t.slots

let to_list t =
  let len = Array.length t.slots and n = length t in
  let first = t.added - n in
  List.init n (fun i -> t.slots.((first + i) mod len))

let percentiles rings =
  let sorted =
    Array.concat (List.map (fun t -> Array.sub t.slots 0 (length t)) rings)
  in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then fun _ -> 0.0
  else fun q ->
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
