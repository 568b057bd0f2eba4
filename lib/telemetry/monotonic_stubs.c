/* Monotonic clock for telemetry spans.  CLOCK_MONOTONIC is immune to
   wall-clock adjustments, which matters for long benchmark runs.  The
   nanosecond count fits an OCaml int (2^62 ns is 146 years), so native
   code gets it untagged and allocates nothing; bytecode tags it. */

#include <caml/mlvalues.h>
#include <time.h>

intnat ncdrf_monotonic_ns_untagged(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

CAMLprim value ncdrf_monotonic_ns(value unit)
{
  return Val_long(ncdrf_monotonic_ns_untagged(unit));
}
