type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p25 : float;
  p50 : float;
  p75 : float;
  p90 : float;
  p99 : float;
}

let percentile q values =
  if values = [] then invalid_arg "Stats.percentile: empty series";
  if q < 0.0 || q > 100.0 then invalid_arg "Stats.percentile: q out of range";
  let sorted = List.sort compare values in
  let n = List.length sorted in
  (* Nearest-rank: smallest index r with r >= q/100 * n. *)
  let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
  let idx = max 0 (min (n - 1) (rank - 1)) in
  List.nth sorted idx

let summarize values =
  match values with
  | [] -> None
  | _ ->
    let count = List.length values in
    let sum = List.fold_left ( +. ) 0.0 values in
    Some
      {
        count;
        mean = sum /. float_of_int count;
        min = List.fold_left min infinity values;
        max = List.fold_left max neg_infinity values;
        p25 = percentile 25.0 values;
        p50 = percentile 50.0 values;
        p75 = percentile 75.0 values;
        p90 = percentile 90.0 values;
        p99 = percentile 99.0 values;
      }

let histogram ~lo ~width values =
  if width <= 0.0 then invalid_arg "Stats.histogram: width must be positive";
  match values with
  | [] -> []
  | _ ->
    let bucket v = max 0 (int_of_float (floor ((v -. lo) /. width))) in
    let top = List.fold_left (fun acc v -> max acc (bucket v)) 0 values in
    let counts = Array.make (top + 1) 0 in
    List.iter (fun v -> counts.(bucket v) <- counts.(bucket v) + 1) values;
    Array.to_list (Array.mapi (fun i c -> (lo +. (float_of_int i *. width), c)) counts)

let auto_histogram values =
  match values with
  | [] -> []
  | v :: _ ->
    let lo = List.fold_left min v values in
    let hi = List.fold_left max v values in
    if hi <= lo then [ (lo, List.length values) ]
    else histogram ~lo ~width:((hi -. lo) /. 10.0) values

let render_histogram ~label buckets =
  let peak = List.fold_left (fun acc (_, c) -> max acc c) 1 buckets in
  let line (lower, count) =
    let bar = count * 50 / peak in
    Printf.sprintf "%-12s |%s %d" (label lower) (String.make bar '#') count
  in
  String.concat "\n" (List.map line buckets) ^ "\n"

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.2f min=%.2f p25=%.2f p50=%.2f p75=%.2f p90=%.2f p99=%.2f max=%.2f"
    s.count s.mean s.min s.p25 s.p50 s.p75 s.p90 s.p99 s.max
