#!/bin/sh
# Tier-1 gate: build everything, run the full test suite, then smoke the
# user-facing entry points — the quickstart example and `ncdrf bench` runs
# with metrics, checking that the compile cache actually engaged.
# Any failure here blocks a merge.
set -eu
cd "$(dirname "$0")/.."

# Every file this script writes lives in one scratch directory, removed
# on exit together with any daemon a failed step left running.
tmp=$(mktemp -d /tmp/ncdrf-check.XXXXXX)
serv_a= serv_b= serv_c= log_reader=
cleanup() {
  for p in $serv_a $serv_b $serv_c $log_reader; do kill -TERM "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

dune build
dune runtest

# Int-only kernels: the compiled scheduling, allocation and swap paths,
# the schedule's int arrays and the compile cache's lookups call no
# polymorphic comparison.  Without flambda, [max]/[min] on ints
# compile to calls of [Stdlib.max]/[min], which compare through
# [caml_greaterequal]; a stray [compare] or [=] on a boxed type calls
# the C comparison directly.  Scans each module's native object.
poly=$tmp/polycompare.txt
: > "$poly"
for m in sched/Mii sched/Modulo sched/Dep_graph sched/Schedule core/Requirements \
    regalloc/Alloc regalloc/Conflict regalloc/Lifetime core/Swap spill/Spiller \
    core/Pipeline core/Artifact cache/Cache; do
  dir=${m%/*} mod=${m#*/}
  obj=_build/default/lib/$dir/.ncdrf_$dir.objs/native/ncdrf_${dir}__$mod.o
  if [ ! -f "$obj" ]; then
    echo "check.sh: missing native object $obj" >&2
    exit 1
  fi
  objdump -dr "$obj" \
    | grep -oE 'camlStdlib\.(max|min)_[0-9]+|caml_(compare|equal|notequal|greaterequal|greaterthan|lessequal|lessthan)([^A-Za-z0-9_]|$)' \
    | sed "s|^|$mod: |" >> "$poly" || true
done
if [ -s "$poly" ]; then
  echo "check.sh: polymorphic comparison in an int-only kernel:" >&2
  sort "$poly" | uniq -c >&2
  exit 1
fi

# Every exported value of lib/ has a caller outside its module, or is a
# reviewed test hook (scripts/test_hooks.txt).
scripts/exports.sh > "$tmp/exports.txt" || { cat "$tmp/exports.txt" >&2; exit 1; }

# Allocator equivalence: the conflict-engine suite must actually run
# against the Alloc_reference oracle — a skipped test would silently
# void the byte-identity guarantee the rewrite rests on.
equiv_out=$tmp/conflict-suite.txt
dune exec test/test_main.exe -- test conflict > "$equiv_out" 2>&1 || {
  cat "$equiv_out" >&2; exit 1; }
ok=$(grep -c 'OK.*conflict' "$equiv_out" || true)
if [ "${ok:-0}" -lt 6 ]; then
  echo "check.sh: expected 6 conflict tests (incl. equivalence) to run, got $ok" >&2
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$equiv_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'conflict'; then
  echo "check.sh: conflict equivalence tests were skipped" >&2
  exit 1
fi

# Spiller equivalence: same deal for the spill suite, which pins the
# rewritten spill loop to the verbatim Spiller_reference oracle (qcheck
# byte-identity with the II floor off, plus equivalence on the kernel
# zoo at the default floor-on loop) and the array-built spill rewrite
# to the Builder copy (Transform_reference).  A skip here would void
# that guarantee too.
spill_out=$tmp/spill-suite.txt
dune exec test/test_main.exe -- test spill > "$spill_out" 2>&1 || {
  cat "$spill_out" >&2; exit 1; }
ok=$(grep -c 'OK.*spill' "$spill_out" || true)
if [ "${ok:-0}" -lt 27 ]; then
  echo "check.sh: expected 27 spill tests (incl. reference equivalence) to run, got $ok" >&2
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$spill_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'spill'; then
  echo "check.sh: spill equivalence tests were skipped" >&2
  exit 1
fi

# Swap equivalence: the swap suite pins the incremental swap pass to
# the full-recompute Swap_reference oracle (qcheck on random graphs plus
# the scheduled suite at k = 2, 3, 4 and the example machine).  It must
# run in full and must not be skipped.
swap_out=$tmp/swap-suite.txt
dune exec test/test_main.exe -- test swap > "$swap_out" 2>&1 || {
  cat "$swap_out" >&2; exit 1; }
ok=$(grep -c 'OK.*swap' "$swap_out" || true)
if [ "${ok:-0}" -lt 6 ]; then
  echo "check.sh: expected 6 swap equivalence tests to run, got $ok" >&2
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$swap_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'swap'; then
  echo "check.sh: swap equivalence tests were skipped" >&2
  exit 1
fi

# Scheduler equivalence: the sched suite pins the flat-array scheduler
# and MII bound to the verbatim Modulo_reference oracle (qcheck over
# random loops and machines, the whole default suite at L3 and L6),
# the flat push-late pass to the verbatim Adjust_reference,
# the binary-search RecMII to circuit enumeration, the cycle-slot
# probes to the full-edge Bellman-Ford oracle and the flat SCC
# partition to Graph_algos.scc.  It must run in full, unskipped.
sched_out=$tmp/sched-suite.txt
dune exec test/test_main.exe -- test sched > "$sched_out" 2>&1 || {
  cat "$sched_out" >&2; exit 1; }
ok=$(grep -c 'OK.*sched' "$sched_out" || true)
if [ "${ok:-0}" -lt 29 ]; then
  echo "check.sh: expected 29 sched tests (incl. reference equivalence) to run, got $ok" >&2
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$sched_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'sched'; then
  echo "check.sh: sched equivalence tests were skipped" >&2
  exit 1
fi

# Requirement equivalence: the reqs suite pins Requirements (shared
# conflict tables, counting-sort start order, the shared occupancy's
# bounds) to the Requirements_reference oracle, and checks that the
# executor's allocation counts its probes.  It must run in full,
# unskipped.
reqs_out=$tmp/reqs-suite.txt
dune exec test/test_main.exe -- test reqs > "$reqs_out" 2>&1 || {
  cat "$reqs_out" >&2; exit 1; }
ok=$(grep -c 'OK.*reqs' "$reqs_out" || true)
if [ "${ok:-0}" -lt 7 ]; then
  echo "check.sh: expected 7 reqs tests to run, got $ok" >&2
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$reqs_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'reqs'; then
  echo "check.sh: reqs equivalence tests were skipped" >&2
  exit 1
fi

# The quickstart example must keep running end to end.
dune exec examples/quickstart.exe > /dev/null

# Bench smoke: fig6 with metrics. The JSON must exist and show the
# artifact cache doing work (a run that never misses never computed,
# which would mean the telemetry or the cache wiring is broken).
metrics=$tmp/metrics.json
dune exec bin/ncdrf.exe -- bench fig6 --quick --jobs 1 --metrics "$metrics" > /dev/null
test -s "$metrics" || { echo "check.sh: metrics JSON missing or empty" >&2; exit 1; }
misses=$(grep -o '"cache.misses": *[0-9]*' "$metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${misses:-}" ] || [ "$misses" -eq 0 ]; then
  echo "check.sh: cache.misses missing or zero in $metrics" >&2
  exit 1
fi

# The allocator's conflict tables must be reused across capacity probes
# and strategies — a reuse count of zero means every allocation rebuilt
# its table, i.e. the conflict engine is disconnected.
reuse=$(grep -o '"alloc.table_reuse": *[0-9]*' "$metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${reuse:-}" ] || [ "$reuse" -eq 0 ]; then
  echo "check.sh: alloc.table_reuse missing or zero in $metrics" >&2
  exit 1
fi

# Spill-path smoke: fig6 never spills (its capacity grid sits at or
# above every loop's requirement), so this gate runs on the fig8
# performance sweep instead, which drives the spill loop hard.  Every
# spill round schedules once, so spill.full_reschedules must be
# positive; zero would mean fig8 no longer reaches the spill loop.
spill_metrics=$tmp/spillrun.json
fig8_out=$tmp/fig8.txt
fig8_pinned=$tmp/fig8-pinned.txt
dune exec bin/ncdrf.exe -- bench fig8 --quick --jobs 1 --metrics "$spill_metrics" > "$fig8_out"
counter() {
  grep -o "\"$1\": *[0-9]*" "$2" | head -n1 | grep -o '[0-9]*$' || true
}
fulls=$(counter spill.full_reschedules "$spill_metrics")
if [ -z "${fulls:-}" ] || [ "$fulls" -eq 0 ]; then
  echo "check.sh: spill.full_reschedules missing or zero in $spill_metrics" >&2
  exit 1
fi

# Byte identity: the fig8 --quick table and its deterministic work
# counters must equal the committed golden file exactly.  A change that
# claims identical output (a performance rewrite, a refactor) keeps
# this green; a change that means to move results regenerates the
# golden file and says why.
{
  grep -v '^\[metrics: ' "$fig8_out"
  for c in alloc.probes spill.full_reschedules spill.lb_pruned cache.misses pipeline.spilled; do
    echo "$c $(counter "$c" "$spill_metrics")"
  done
} > "$fig8_pinned"
if ! cmp -s "$fig8_pinned" scripts/fig8_quick.golden; then
  echo "check.sh: fig8 --quick output or counters differ from scripts/fig8_quick.golden" >&2
  diff scripts/fig8_quick.golden "$fig8_pinned" >&2 || true
  exit 1
fi

# The same byte identity for the suite path: the default `ncdrf suite`
# table and its allocator, cache and loop counters must equal
# scripts/suite.golden exactly.
suite_out=$tmp/suite.txt
suite_metrics=$tmp/suite.json
suite_pinned=$tmp/suite-pinned.txt
dune exec bin/ncdrf.exe -- suite --jobs 1 --metrics "$suite_metrics" > "$suite_out"
{
  grep -v '^\[metrics: ' "$suite_out"
  for c in alloc.probes alloc.pairs cache.misses pipeline.loops; do
    echo "$c $(counter "$c" "$suite_metrics")"
  done
} > "$suite_pinned"
if ! cmp -s "$suite_pinned" scripts/suite.golden; then
  echo "check.sh: suite output or counters differ from scripts/suite.golden" >&2
  diff scripts/suite.golden "$suite_pinned" >&2 || true
  exit 1
fi

# The same at four clusters with port caps, where values consumed by a
# proper subset of the clusters (the Shared class) are replicated only
# in those subfiles: scripts/suite_k4.golden pins that path end to end.
suite_out=$tmp/suite-k4.txt
suite_metrics=$tmp/suite-k4.json
suite_pinned=$tmp/suite-k4-pinned.txt
dune exec bin/ncdrf.exe -- suite --jobs 1 --clusters 4 --read-ports 4 --write-ports 2 \
  --metrics "$suite_metrics" > "$suite_out"
{
  grep -v '^\[metrics: ' "$suite_out"
  for c in alloc.probes cache.misses pipeline.loops; do
    echo "$c $(counter "$c" "$suite_metrics")"
  done
} > "$suite_pinned"
if ! cmp -s "$suite_pinned" scripts/suite_k4.golden; then
  echo "check.sh: k = 4 suite output or counters differ from scripts/suite_k4.golden" >&2
  diff scripts/suite_k4.golden "$suite_pinned" >&2 || true
  exit 1
fi

# The full paper sweep: all 16 experiments of `ncdrf bench` at full
# size must print scripts/bench_full.golden exactly, serially and on a
# two-job pool, so each published table guards the parallel = serial
# invariant too.
for jobs in 1 2; do
  bench_out=$tmp/bench-full-j$jobs.txt
  dune exec bin/ncdrf.exe -- bench --jobs "$jobs" > "$bench_out"
  if ! cmp -s "$bench_out" scripts/bench_full.golden; then
    echo "check.sh: full bench at --jobs $jobs differs from scripts/bench_full.golden" >&2
    diff scripts/bench_full.golden "$bench_out" >&2 || true
    exit 1
  fi
done

# The run ledger's bytes: a small fig8 sweep with injected spill faults
# (failed points, spilled points, ok points) must write, once timing
# fields are stripped, scripts/fig8_ledger.golden exactly, serially and
# on a two-job pool.
for jobs in 1 2; do
  ledger_raw=$tmp/fig8-ledger-j$jobs.jsonl
  ledger_pinned=$tmp/fig8-ledger-j$jobs.stripped.jsonl
  dune exec bin/ncdrf.exe -- bench fig8 --size 12 --inject 'stage=spill,every=5' \
    --jobs "$jobs" --ledger "$ledger_raw" > /dev/null
  dune exec bin/ncdrf.exe -- merge --strip-timing --ledger "$ledger_pinned" \
    "$ledger_raw" > /dev/null
  if ! cmp -s "$ledger_pinned" scripts/fig8_ledger.golden; then
    echo "check.sh: fig8 ledger at --jobs $jobs differs from scripts/fig8_ledger.golden" >&2
    diff scripts/fig8_ledger.golden "$ledger_pinned" >&2 || true
    exit 1
  fi
done

# EXPERIMENTS.md's fenced tables are copies of that output: a fenced
# block whose first two words start a line of scripts/bench_full.golden
# (a table header) must appear there verbatim, line for line, and
# exactly five blocks (table1, fig8, fig9, cost, cluster-sweep) must be
# headed so, or a drifted header would drop its table from the check.
awk -v golden=scripts/bench_full.golden -v want=5 '
  function head(s,   w) { split(s, w, " "); return w[1] " " w[2] }
  function matches(   i, j) {
    for (i = 1; i <= n; i++) {
      if (head(g[i]) != head(b[1])) continue
      seen = 1
      for (j = 1; j <= m && g[i + j - 1] == b[j]; j++) ;
      if (j > m) return 1
    }
    return 0
  }
  BEGIN { while ((getline line < golden) > 0) g[++n] = line }
  /^```/ {
    if (inside && m > 0) {
      seen = 0
      if (!matches() && seen) {
        printf "check.sh: EXPERIMENTS.md table at line %d differs from %s\n", start, golden > "/dev/stderr"
        bad = 1
      }
      tables += seen
    }
    inside = !inside; m = 0; start = NR + 1
    next
  }
  inside { b[++m] = $0 }
  END {
    if (tables != want) {
      printf "check.sh: EXPERIMENTS.md has %d tables headed as in %s, expected %d\n", tables, golden, want > "/dev/stderr"
      bad = 1
    }
    exit bad
  }
' EXPERIMENTS.md

# Bad machine flags and unknown experiments are usage errors (exit 2),
# never an uncaught exception.
for args in "suite --clusters 0" "suite --latency 0" "bench nosuch" \
    "bench fig8 --quick --clusters 63" "kernels --latency 0" "suite --size 0" \
    "bench fig8 --size 0"; do
  code=0
  # shellcheck disable=SC2086
  dune exec bin/ncdrf.exe -- $args > /dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "check.sh: 'ncdrf $args' exited $code, expected 2" >&2
    exit 1
  fi
done

# Fault-isolation smoke: an injected keep-going suite run must succeed,
# report the injected points in the metrics, and still print its table.
inj_metrics=$tmp/inject.json
inj_out=$tmp/inject.txt
dune exec bin/ncdrf.exe -- suite --size 60 --jobs 1 \
  --inject stage=schedule,every=7 --metrics "$inj_metrics" > "$inj_out"
injected=$(grep -o '"errors.injected": *[0-9]*' "$inj_metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${injected:-}" ] || [ "$injected" -eq 0 ]; then
  echo "check.sh: injected faults not reported in $inj_metrics" >&2
  exit 1
fi
grep -q 'model' "$inj_out" || { echo "check.sh: faulted suite produced no table" >&2; exit 1; }

# The same injection under --fail-fast must abort with a non-zero exit.
if dune exec bin/ncdrf.exe -- suite --size 60 --jobs 1 \
     --inject stage=schedule,every=7 --fail-fast > /dev/null 2>&1; then
  echo "check.sh: --fail-fast did not fail on an injected fault" >&2
  exit 1
fi

# k-cluster smoke: a four-cluster suite run must flow end to end and
# actually build four-subfile machines — the cluster.subfiles counter
# is bumped by the cluster count per point, so 4x the loop count proves
# the flag reached the machine model rather than silently defaulting.
k4_metrics=$tmp/k4.json
dune exec bin/ncdrf.exe -- suite --size 60 --jobs 1 --clusters 4 \
  --metrics "$k4_metrics" > /dev/null
subfiles=$(grep -o '"cluster.subfiles": *[0-9]*' "$k4_metrics" | head -n1 | grep -o '[0-9]*$' || true)
loops=$(grep -o '"pipeline.loops": *[0-9]*' "$k4_metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${subfiles:-}" ] || [ -z "${loops:-}" ] || [ "$loops" -eq 0 ] \
    || [ "$subfiles" -ne $((4 * loops)) ]; then
  echo "check.sh: --clusters 4 not reflected in cluster.subfiles ($subfiles vs 4*$loops)" >&2
  exit 1
fi

# Port-budget smoke: a port-capped run must tag every point as capped —
# zero ports.capped_points would mean the caps were dropped on the way
# into the config (and the executor would never see them either).
ports_metrics=$tmp/ports.json
dune exec bin/ncdrf.exe -- suite --size 60 --jobs 1 --read-ports 4 --write-ports 2 \
  --metrics "$ports_metrics" > /dev/null
capped=$(grep -o '"ports.capped_points": *[0-9]*' "$ports_metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${capped:-}" ] || [ "$capped" -eq 0 ]; then
  echo "check.sh: ports.capped_points missing or zero in $ports_metrics" >&2
  exit 1
fi

# Observability smoke: the same quick fig6 with --trace and --ledger must
# produce a trace with real begin/end events and a ledger whose records
# carry per-stage durations, and the profile analyzer must read it back.
trace=$tmp/trace.json
ledger=$tmp/ledger.jsonl
profile_out=$tmp/profile.txt
dune exec bin/ncdrf.exe -- bench fig6 --quick --jobs 1 \
  --trace "$trace" --ledger "$ledger" > /dev/null
events=$(grep -c '"ph": *"[BE]"' "$trace" || true)
if [ "${events:-0}" -eq 0 ]; then
  echo "check.sh: trace $trace has no begin/end events" >&2
  exit 1
fi
test -s "$ledger" || { echo "check.sh: ledger missing or empty" >&2; exit 1; }
grep -q '"schedule":' "$ledger" || {
  echo "check.sh: ledger records carry no stage durations" >&2; exit 1; }
dune exec bin/ncdrf.exe -- profile "$ledger" > "$profile_out"
grep -q 'slowest points' "$profile_out" || {
  echo "check.sh: ncdrf profile printed no slowest-points section" >&2; exit 1; }

# Serving soak: a clean daemon must serve a suite byte-identical to the
# batch CLI and drain to exit 0 on SIGTERM; a faulted, queue-bounded
# daemon under concurrent clients must shed overload with a typed
# response (client exit 3), contain injected failures, keep answering
# health, and still drain cleanly — publishing metrics that show both
# error classes.
NCDRF=./_build/default/bin/ncdrf.exe
dune build bin/ncdrf.exe
sock_a=$tmp/serve-a.sock
sock_b=$tmp/serve-b.sock
serve_metrics=$tmp/serve.json
client_suite=$tmp/client-suite.txt
batch_suite=$tmp/batch-suite.txt
shed_dir=$tmp/shed
mkdir "$shed_dir"
deadline_metrics=$tmp/deadline.json

"$NCDRF" serve --socket "$sock_a" --jobs 1 > /dev/null 2>&1 &
serv_a=$!
"$NCDRF" client suite --socket "$sock_a" --size 60 > "$client_suite"
"$NCDRF" suite --size 60 --jobs 1 > "$batch_suite"
cmp -s "$client_suite" "$batch_suite" || {
  echo "check.sh: client suite output differs from batch suite" >&2; exit 1; }
# The same holds for `client schedule` against `ncdrf schedule`, loop
# file by loop file, and a --loop that matches nothing fails both ways
# alike: exit 1 with the same one-line diagnosis.
for f in loops/*.loop; do
  b=$(basename "$f" .loop)
  "$NCDRF" client schedule --socket "$sock_a" "$f" -k -r 16 > "$tmp/client-$b.txt"
  "$NCDRF" schedule "$f" -k -r 16 > "$tmp/batch-$b.txt"
  cmp -s "$tmp/client-$b.txt" "$tmp/batch-$b.txt" || {
    echo "check.sh: client schedule output differs from batch schedule on $f" >&2; exit 1; }
done
for how in client batch; do
  c=0
  if [ "$how" = client ]; then
    "$NCDRF" client schedule --socket "$sock_a" loops/conditionals.loop --loop no-such-loop \
      > "$tmp/nomatch-$how.out" 2> "$tmp/nomatch-$how.err" || c=$?
  else
    "$NCDRF" schedule loops/conditionals.loop --loop no-such-loop \
      > "$tmp/nomatch-$how.out" 2> "$tmp/nomatch-$how.err" || c=$?
  fi
  if [ "$c" -ne 1 ] || [ -s "$tmp/nomatch-$how.out" ] \
      || [ "$(cat "$tmp/nomatch-$how.err")" != "no matching loops" ]; then
    echo "check.sh: $how schedule of an unmatched --loop: exit $c, expected 1 and 'no matching loops'" >&2
    exit 1
  fi
done
kill -TERM "$serv_a"
wait "$serv_a" || {
  echo "check.sh: clean daemon did not exit 0 on SIGTERM" >&2; exit 1; }
serv_a=
[ ! -e "$sock_a" ] || {
  echo "check.sh: daemon left its socket behind after drain" >&2; exit 1; }

# The soak fills the daemon before the last client arrives: five
# clients, each on its own machine config so that none is answered from
# another's cache, take the four execution slots and the one queue
# place (polled through `client stats`), and the sixth is shed by
# construction.  The daemon's debug log goes into a FIFO that nothing
# reads until the shed is over.  Each held request logs one line per
# scheduled loop, about 140 KB for a 3000-loop suite: more than a pipe
# holds (64 KiB), so no held request can finish, and no slot or queue
# place can free, before the reader starts.  Admission, `client stats`
# and the shed itself log nothing, so they go on meanwhile.
serve_log=$tmp/serve-b.log
mkfifo "$serve_log"
# This shell holds the FIFO open without reading it, so the daemon can
# open it for writing; no child inherits that descriptor, so if this
# script dies the daemon's writes fail instead of blocking forever.
exec 3<> "$serve_log"
"$NCDRF" serve -v --socket "$sock_b" --jobs 1 --queue 1 \
  --inject stage=schedule,every=7 --metrics "$serve_metrics" > /dev/null 2> "$serve_log" 3<&- &
serv_b=$!
client_pids=
soak_client() {  # index latency clusters
  { c=0; "$NCDRF" client suite --socket "$sock_b" --size 3000 --retries 0 \
      --latency "$2" --clusters "$3" > "$shed_dir/out.$1" 2>&1 || c=$?
    echo "$c" > "$shed_dir/code.$1"; } 3<&- &
  client_pids="$client_pids $!"
}
soak_client 1 3 2; soak_client 2 6 2; soak_client 3 3 3; soak_client 4 6 3
soak_client 5 3 4
polls=0
until "$NCDRF" client stats --socket "$sock_b" 2>/dev/null | grep -q ' 4 active, 1 queued '; do
  polls=$((polls + 1))
  if [ "$polls" -ge 300 ]; then
    echo "check.sh: overload soak never filled the 4 slots and the queue place" >&2
    exit 1
  fi
  sleep 0.1
done
soak_client 6 6 4
polls=0
until [ -e "$shed_dir/code.6" ]; do
  polls=$((polls + 1))
  if [ "$polls" -ge 300 ]; then
    echo "check.sh: the sixth soak client got no answer while the daemon was full" >&2
    exit 1
  fi
  sleep 0.1
done
cat "$serve_log" > /dev/null 3<&- &
log_reader=$!
for p in $client_pids; do wait "$p" || true; done
served_clients=0; shed_clients=0
for i in 1 2 3 4 5 6; do
  code=$(cat "$shed_dir/code.$i")
  [ "$code" -eq 0 ] && served_clients=$((served_clients + 1))
  [ "$code" -eq 3 ] && shed_clients=$((shed_clients + 1))
done
if [ "$served_clients" -lt 1 ] || [ "$shed_clients" -lt 1 ]; then
  echo "check.sh: overload soak expected >=1 served and >=1 shed client, got served=$served_clients shed=$shed_clients" >&2
  exit 1
fi
"$NCDRF" client health --socket "$sock_b" > /dev/null || {
  echo "check.sh: daemon stopped answering health after overload + faults" >&2
  exit 1
}
kill -TERM "$serv_b"
wait "$serv_b" || {
  echo "check.sh: faulted daemon did not exit 0 on SIGTERM" >&2; exit 1; }
serv_b=
kill "$log_reader" 2>/dev/null || true
log_reader=
exec 3<&-
srv_injected=$(grep -o '"errors.injected": *[0-9]*' "$serve_metrics" | head -n1 | grep -o '[0-9]*$' || true)
srv_overloaded=$(grep -o '"errors.overloaded": *[0-9]*' "$serve_metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${srv_injected:-}" ] || [ "$srv_injected" -eq 0 ]; then
  echo "check.sh: serve metrics missing errors.injected > 0" >&2; exit 1
fi
if [ -z "${srv_overloaded:-}" ] || [ "$srv_overloaded" -eq 0 ]; then
  echo "check.sh: serve metrics missing errors.overloaded > 0" >&2; exit 1
fi

# Concurrent-serving gate: a daemon with 4 execution slots under 4
# concurrent clients must serve every request byte-identical to the
# batch run, publish metrics carrying the admission gauges, per-kind
# counters and latency percentiles, and its trace — run through
# `ncdrf merge --trace` — must load with events attributed to every
# request id.  (No requests/s assertion here: on a single-core box the
# concurrency win is bounded by protocol/compute overlap.)
sock_c=$tmp/serve-c.sock
conc_dir=$tmp/conc
mkdir "$conc_dir"
"$NCDRF" serve --socket "$sock_c" --jobs 1 --max-inflight 4 \
  --metrics "$conc_dir/metrics.json" --trace "$conc_dir/trace.json" \
  --ledger "$conc_dir/ledger.jsonl" > /dev/null 2>&1 &
serv_c=$!
conc_pids=
for i in 1 2 3 4; do
  "$NCDRF" client suite --socket "$sock_c" --size 60 > "$conc_dir/out.$i" &
  conc_pids="$conc_pids $!"
done
conc_failed=0
for p in $conc_pids; do wait "$p" || conc_failed=1; done
[ "$conc_failed" -eq 0 ] || {
  echo "check.sh: a concurrent client against --max-inflight 4 failed" >&2; exit 1; }
for i in 1 2 3 4; do
  cmp -s "$conc_dir/out.$i" "$batch_suite" || {
    echo "check.sh: concurrent client $i output differs from batch suite" >&2; exit 1; }
done
kill -TERM "$serv_c"
wait "$serv_c" || {
  echo "check.sh: concurrent daemon did not exit 0 on SIGTERM" >&2; exit 1; }
serv_c=
for key in '"max_inflight"' '"requests.inflight"' '"requests.queued"' \
    '"requests.by_kind"' '"p50_s"' '"p90_s"' '"p99_s"'; do
  grep -q "$key" "$conc_dir/metrics.json" || {
    echo "check.sh: concurrent serve metrics missing $key" >&2; exit 1; }
done
"$NCDRF" merge "$conc_dir/trace.json" --trace "$conc_dir/merged-trace.json" > /dev/null
req_ids=$(grep -o '"request": *"[^"]*"' "$conc_dir/merged-trace.json" | sort -u | wc -l)
if [ "${req_ids:-0}" -lt 4 ]; then
  echo "check.sh: merged concurrent trace carries $req_ids request id(s), expected >= 4" >&2
  exit 1
fi

# Deadline smoke: a zero budget must fail every point with the typed
# deadline category, reported in the metrics, without crashing the run —
# serially and with pool workers, which inherit the point's token.
for jobs in 1 2; do
  "$NCDRF" suite --size 10 --jobs "$jobs" --timeout 0 --metrics "$deadline_metrics" > /dev/null
  dl=$(grep -o '"errors.deadline_exceeded": *[0-9]*' "$deadline_metrics" | head -n1 | grep -o '[0-9]*$' || true)
  dl_points=$(grep -o '"pipeline.loops": *[0-9]*' "$deadline_metrics" | head -n1 | grep -o '[0-9]*$' || true)
  if [ -z "${dl_points:-}" ] || [ "$dl_points" -eq 0 ] || [ "${dl:-0}" -ne "$dl_points" ]; then
    echo "check.sh: --timeout 0 suite at --jobs $jobs: ${dl:-0} deadline_exceeded of ${dl_points:-0} points" >&2
    exit 1
  fi
done

# Persistent-store gate: a second process over the same --cache-dir must
# replay the whole fig8-quick sweep from disk (every entry the cold run
# wrote is a disk hit, and nothing misses), print a byte-identical
# table, and cut the wall clock at least in half — anything less means
# the disk tier is disconnected, not trusted, or keyed on something that
# is not reproducible across processes.
store_dir=$tmp/store
mkdir "$store_dir"
cold_m=$tmp/cold.json
warm_m=$tmp/warm.json
cold_out=$tmp/cold.txt
warm_out=$tmp/warm.txt
dune exec bin/ncdrf.exe -- bench fig8 --quick --jobs 1 \
  --cache-dir "$store_dir" --metrics "$cold_m" > "$cold_out"
dune exec bin/ncdrf.exe -- bench fig8 --quick --jobs 1 \
  --cache-dir "$store_dir" --metrics "$warm_m" > "$warm_out"
disk_hits=$(grep -o '"cache.disk_hits": *[0-9]*' "$warm_m" | head -n1 | grep -o '[0-9]*$' || true)
disk_writes=$(grep -o '"cache.disk_writes": *[0-9]*' "$cold_m" | head -n1 | grep -o '[0-9]*$' || true)
warm_disk_misses=$(grep -o '"cache.disk_misses": *[0-9]*' "$warm_m" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${disk_hits:-}" ] || [ -z "${disk_writes:-}" ] || [ "$disk_writes" -eq 0 ] \
   || [ "$disk_hits" -ne "$disk_writes" ] || [ "${warm_disk_misses:-0}" -ne 0 ]; then
  echo "check.sh: disk-warm rerun must hit every entry the cold run wrote (cold cache.disk_writes=${disk_writes:-none}, warm cache.disk_hits=${disk_hits:-none}, warm cache.disk_misses=${warm_disk_misses:-0})" >&2
  exit 1
fi
# The [metrics: <path>] footer names a different temp file per run; the
# table above it is the contract.
if ! { grep -v '^\[metrics' "$cold_out" > "$cold_out.f"; \
       grep -v '^\[metrics' "$warm_out" > "$warm_out.f"; \
       cmp -s "$cold_out.f" "$warm_out.f"; }; then
  echo "check.sh: disk-warm rerun output differs from the cold run" >&2
  exit 1
fi
cold_wall=$(grep -o '"total_wall_s": *[0-9.]*' "$cold_m" | head -n1 | grep -o '[0-9.]*$' || true)
warm_wall=$(grep -o '"total_wall_s": *[0-9.]*' "$warm_m" | head -n1 | grep -o '[0-9.]*$' || true)
if ! awk -v c="${cold_wall:-0}" -v w="${warm_wall:-1}" 'BEGIN { exit !(w * 2 <= c) }'; then
  echo "check.sh: disk-warm rerun not 2x faster (cold=${cold_wall}s warm=${warm_wall}s)" >&2
  exit 1
fi

# Shard-merge gate: two half-suite shards merged with `ncdrf merge` must
# equal the unsharded run byte-for-byte once timing fields are
# normalized — both for the metrics JSON and the ledger.  The unsharded
# files go through a single-input merge, which is the identity modulo
# the same normalization.
shard_dir=$tmp/shards
mkdir "$shard_dir"
"$NCDRF" suite --size 60 --jobs 1 \
  --metrics "$shard_dir/m0.json" --ledger "$shard_dir/l0.jsonl" > /dev/null
"$NCDRF" suite --size 60 --jobs 1 --shard 0/2 \
  --metrics "$shard_dir/m1.json" --ledger "$shard_dir/l1.jsonl" > /dev/null
"$NCDRF" suite --size 60 --jobs 1 --shard 1/2 \
  --metrics "$shard_dir/m2.json" --ledger "$shard_dir/l2.jsonl" > /dev/null
"$NCDRF" merge --strip-timing --metrics "$shard_dir/merged.json" \
  --ledger "$shard_dir/merged.jsonl" \
  "$shard_dir/m1.json" "$shard_dir/m2.json" \
  "$shard_dir/l1.jsonl" "$shard_dir/l2.jsonl" > /dev/null
"$NCDRF" merge --strip-timing --metrics "$shard_dir/whole.json" \
  --ledger "$shard_dir/whole.jsonl" \
  "$shard_dir/m0.json" "$shard_dir/l0.jsonl" > /dev/null
cmp -s "$shard_dir/merged.json" "$shard_dir/whole.json" || {
  echo "check.sh: merged 2-shard metrics differ from the unsharded run" >&2; exit 1; }
cmp -s "$shard_dir/merged.jsonl" "$shard_dir/whole.jsonl" || {
  echo "check.sh: merged 2-shard ledger differs from the unsharded run" >&2; exit 1; }
# The allocator counters must survive the merge as numbers: a cross-loop
# cache would make them partition-dependent, and nulling them would hide
# that from the comparison above.
for counter in alloc.pairs alloc.table_reuse; do
  grep -q "\"$counter\": *[0-9]" "$shard_dir/merged.json" || {
    echo "check.sh: $counter is null or missing in the merged 2-shard metrics" >&2
    exit 1; }
done
shard_points=$("$NCDRF" profile "$shard_dir/l1.jsonl" "$shard_dir/l2.jsonl" \
  | grep -c 'point(s)' || true)
if [ "${shard_points:-0}" -lt 2 ]; then
  echo "check.sh: ncdrf profile did not report per-shard point counts" >&2
  exit 1
fi

# `ncdrf merge` pairs each input kind with its --OUT flag, and checks
# all three pairings and computes every merge before writing anything:
# each of the six mismatches, and a trace input that cannot merge, exits
# 1 with its message and leaves no output file, even when another
# pairing in the same call is valid.
merge_out=$tmp/merge-out
m0=$shard_dir/m0.json l0=$shard_dir/l0.jsonl bad_trace=$tmp/bad-trace.json
echo '{"traceEvents": 5}' > "$bad_trace"
while IFS='|' read -r args message; do
  rm -rf "$merge_out"
  mkdir "$merge_out"
  code=0
  # shellcheck disable=SC2086
  "$NCDRF" merge $args > "$tmp/merge.stdout" 2> "$tmp/merge.stderr" || code=$?
  if [ "$code" -ne 1 ] || [ "$(cat "$tmp/merge.stderr")" != "$message" ] \
      || [ -n "$(ls -A "$merge_out")" ]; then
    echo "check.sh: 'ncdrf merge $args' exited $code, printed '$(cat "$tmp/merge.stderr")', left '$(ls -A "$merge_out")'" >&2
    exit 1
  fi
done <<MISMATCHES
--metrics $merge_out/m --ledger $merge_out/l $l0|merge: --metrics given but no metrics inputs
--ledger $merge_out/l $m0 $l0|merge: metrics inputs given but no --metrics OUT
--metrics $merge_out/m --ledger $merge_out/l $m0|merge: --ledger given but no ledger inputs
--metrics $merge_out/m $m0 $l0|merge: ledger inputs given but no --ledger OUT
--metrics $merge_out/m --trace $merge_out/t $m0|merge: --trace given but no trace inputs
--metrics $merge_out/m $m0 $trace|merge: trace inputs given but no --trace OUT
--metrics $merge_out/m --trace $merge_out/t $m0 $bad_trace|merge: trace document has no "traceEvents" list
MISMATCHES

echo "check.sh: OK (cache.misses=$misses, alloc.table_reuse=$reuse, spill.full_reschedules=$fulls, errors.injected=$injected, cluster.subfiles=$subfiles, ports.capped_points=$capped, trace_events=$events, serve: served=$served_clients shed=$shed_clients injected=$srv_injected overloaded=$srv_overloaded deadline=$dl, concurrent serve: 4 clients byte-identical request_ids=$req_ids, store: disk_hits=$disk_hits cold=${cold_wall}s warm=${warm_wall}s, shard merge OK, fig8 ledger golden OK, 7 bad merges write nothing)"
