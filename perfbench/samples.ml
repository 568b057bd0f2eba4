(* Sample summaries and the metric list one benchmark run reports. *)

module Json = Ncdrf_telemetry.Json

let now = Ncdrf_telemetry.Telemetry.now

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, like Python's
   [statistics.quantiles(method="inclusive")]. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let fastest xs = List.fold_left Float.min infinity xs

(* p99, or the highest lower percentile that leaves at least ten
   samples beyond it, so a tail figure never rests on a handful. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.0; 95.0; 90.0; 75.0; 50.0 ]

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [repeat_for ~seconds ~min f] calls [f] until [seconds] have passed
   and at least [min] calls have been made; returns the results. *)
let repeat_for ~seconds ~min f =
  let t0 = now () in
  let rec go acc n =
    if n >= min && now () -. t0 >= seconds then List.rev acc else go (f () :: acc) (n + 1)
  in
  go [] 0

(* Host-speed calibration.  On a shared host the same pass runs up to
   twice as slow for minutes at a time, in CPU time as in wall time.  A
   fixed kernel outside the program under test (sorting and hashing
   integers in place) runs right after each timed repetition, and a
   throughput is reported at reference speed: scaled by the kernel's
   measured time over [reference_s], about its fastest time on the host
   the benchmark was built on.  The kernel allocates nothing, so the
   program's peak heap stays its own.  NOTES.md has the measurements
   behind this. *)
let reference_s = 0.18

let kernel =
  let a = Array.make 65_536 0 in
  let tbl = Hashtbl.create 4096 in
  for k = 0 to 4095 do
    Hashtbl.replace tbl k 0
  done;
  fun () ->
    let x = ref 1 in
    for _ = 1 to 8 do
      for i = 0 to Array.length a - 1 do
        x := (!x * 1103515245 + 12345) land 0x3fffffff;
        a.(i) <- !x
      done;
      Array.sort Int.compare a;
      Array.iter (fun v -> Hashtbl.replace tbl (v land 0xfff) v) a
    done

let calibrate () = snd (timed kernel)

(* A rate, or a duration, measured while the kernel took [cal] seconds,
   at reference host speed. *)
let at_reference ~rate ~cal = rate *. cal /. reference_s
let time_at_reference ~seconds ~cal = seconds *. reference_s /. cal

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  note : string;
}

let metrics : metric list ref = ref []

let add ?(samples = 1) ?(note = "") name unit_ value =
  metrics := { name; value; unit_; samples; note } :: !metrics

let addi ?note name unit_ n = add ?note name unit_ (float_of_int n)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Output checks: a failed check makes the run incorrect and names
   itself in the report. *)
let failed_checks : string list ref = ref []

let check name ok = if not ok then failed_checks := name :: !failed_checks

let print_report ~workload ~seed ~trace ~attempted ~failed =
  let ms = List.rev !metrics in
  Printf.printf "perfbench %s  seed %d  trace %d\n" workload seed trace;
  List.iter
    (fun m ->
      Printf.printf "  %-26s %16.6g %-7s n=%-6d %s\n" m.name m.value m.unit_ m.samples m.note)
    ms;
  List.iter (fun c -> Printf.printf "  CHECK FAILED: %s\n" c) (List.rev !failed_checks);
  let metric m =
    ( m.name,
      Json.Obj
        [ ("value", Json.Float m.value); ("unit", Json.String m.unit_);
          ("samples", Json.Int m.samples) ] )
  in
  print_endline
    (Json.to_compact
       (Json.Obj
          [
            ( "perfbench",
              Json.Obj
                [
                  ("workload", Json.String workload);
                  ("seed", Json.Int seed);
                  ("trace", Json.Int trace);
                  ("correct", Json.Bool (!failed_checks = []));
                  ("attempted", Json.Int attempted);
                  ("failed", Json.Int failed);
                  ("failed_checks", Json.List (List.map (fun c -> Json.String c) !failed_checks));
                  ("metrics", Json.Obj (List.map metric ms));
                ] );
          ]))
