(** Descriptive statistics for experiment series. *)

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

(** [None] on an empty series. *)
val summarize : float list -> summary option

(** Nearest-rank percentile, [q] in [0, 100].

    @raise Invalid_argument on an empty list or out-of-range [q]. *)
val percentile : float -> float list -> float

(** Fixed-width histogram: buckets from [lo] (inclusive) in steps of
    [width]; returns [(bucket lower bound, count)] for every non-empty
    range up to the maximum value.  Values below [lo] land in the first
    bucket. *)
val histogram : lo:float -> width:float -> float list -> (float * int) list

(** Histogram with automatically chosen bounds: 10 equal-width buckets
    spanning the series' min..max (the maximum
    value lands in one extra top bucket; a constant series collapses to
    a single bucket).  [[]] on an empty series. *)
val auto_histogram : float list -> (float * int) list

(** ASCII bar chart of a histogram, one bucket per line, the fullest
    bucket's bar 50 characters long. *)
val render_histogram : label:(float -> string) -> (float * int) list -> string

val pp_summary : Format.formatter -> summary -> unit
