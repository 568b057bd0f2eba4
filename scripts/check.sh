#!/bin/sh
# Tier-1 gate: build everything, run the full test suite, then smoke the
# user-facing entry points — the quickstart example and a bench run with
# metrics, checking that the compile cache actually engaged.
# Any failure here blocks a merge.
set -eu
cd "$(dirname "$0")/.."
dune build
dune runtest

# Allocator equivalence: the conflict-engine suite must actually run
# against the Alloc_reference oracle — a skipped test would silently
# void the byte-identity guarantee the rewrite rests on.
equiv_out=$(mktemp /tmp/ncdrf-equiv.XXXXXX.txt)
dune exec test/test_main.exe -- test conflict > "$equiv_out" 2>&1 || {
  cat "$equiv_out" >&2; rm -f "$equiv_out"; exit 1; }
ok=$(grep -c 'OK.*conflict' "$equiv_out" || true)
if [ "${ok:-0}" -lt 4 ]; then
  echo "check.sh: expected 4 conflict equivalence tests to run, got $ok" >&2
  rm -f "$equiv_out"
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$equiv_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'conflict'; then
  echo "check.sh: conflict equivalence tests were skipped" >&2
  rm -f "$equiv_out"
  exit 1
fi
rm -f "$equiv_out"

# Spiller equivalence: same deal for the spill suite, which pins the
# rewritten spill loop to the verbatim Spiller_reference oracle (qcheck
# byte-identity at the default policy plus a fixed-seed digest of the
# opt-in incremental mode).  A skip here would void that guarantee too.
spill_out=$(mktemp /tmp/ncdrf-spill-suite.XXXXXX.txt)
dune exec test/test_main.exe -- test spill > "$spill_out" 2>&1 || {
  cat "$spill_out" >&2; rm -f "$spill_out"; exit 1; }
ok=$(grep -c 'OK.*spill' "$spill_out" || true)
if [ "${ok:-0}" -lt 29 ]; then
  echo "check.sh: expected 29 spill tests (incl. reference equivalence) to run, got $ok" >&2
  rm -f "$spill_out"
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$spill_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'spill'; then
  echo "check.sh: spill equivalence tests were skipped" >&2
  rm -f "$spill_out"
  exit 1
fi
rm -f "$spill_out"

# Swap equivalence: the swap suite pins the incremental swap pass to
# the full-recompute Swap_reference oracle (qcheck on random graphs plus
# the scheduled suite at k = 2, 3, 4 and the example machine).  It must
# run in full and must not be skipped.
swap_out=$(mktemp /tmp/ncdrf-swap.XXXXXX.txt)
dune exec test/test_main.exe -- test swap > "$swap_out" 2>&1 || {
  cat "$swap_out" >&2; rm -f "$swap_out"; exit 1; }
ok=$(grep -c 'OK.*swap' "$swap_out" || true)
if [ "${ok:-0}" -lt 6 ]; then
  echo "check.sh: expected 6 swap equivalence tests to run, got $ok" >&2
  rm -f "$swap_out"
  exit 1
fi
if sed 's/.\[[0-9;]*m//g' "$swap_out" | grep '\[SKIP\]' | awk '{print $2}' \
    | grep -qx 'swap'; then
  echo "check.sh: swap equivalence tests were skipped" >&2
  rm -f "$swap_out"
  exit 1
fi
rm -f "$swap_out"

# The quickstart example must keep running end to end.
dune exec examples/quickstart.exe > /dev/null

# Bench smoke: fig6 with metrics. The JSON must exist and show the
# artifact cache doing work (a run that never misses never computed,
# which would mean the telemetry or the cache wiring is broken).
metrics=$(mktemp /tmp/ncdrf-metrics.XXXXXX.json)
trap 'rm -f "$metrics"' EXIT
dune exec bench/main.exe -- fig6 --quick --jobs 1 --metrics "$metrics" > /dev/null
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
# above every loop's requirement), so the incremental-reschedule gate
# runs on the fig8 performance sweep instead, which drives the spill
# loop hard.  With --spill-incremental the seeded rescheduler must
# engage at least once; zero would mean the incremental path is
# disconnected from the spill loop (every round silently falling back
# to the full II search).
spill_metrics=$(mktemp /tmp/ncdrf-spillrun.XXXXXX.json)
trap 'rm -f "$metrics" "$spill_metrics"' EXIT
dune exec bench/main.exe -- fig8 --quick --jobs 1 --spill-incremental \
  --metrics "$spill_metrics" > /dev/null
incs=$(grep -o '"spill.incremental_reschedules": *[0-9]*' "$spill_metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${incs:-}" ] || [ "$incs" -eq 0 ]; then
  echo "check.sh: spill.incremental_reschedules missing or zero in $spill_metrics" >&2
  exit 1
fi

# Fault-isolation smoke: an injected keep-going suite run must succeed,
# report the injected points in the metrics, and still print its table.
inj_metrics=$(mktemp /tmp/ncdrf-inject.XXXXXX.json)
inj_out=$(mktemp /tmp/ncdrf-inject.XXXXXX.txt)
trap 'rm -f "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out"' EXIT
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
k4_metrics=$(mktemp /tmp/ncdrf-k4.XXXXXX.json)
trap 'rm -f "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out" "$k4_metrics"' EXIT
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
ports_metrics=$(mktemp /tmp/ncdrf-ports.XXXXXX.json)
trap 'rm -f "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out" "$k4_metrics" "$ports_metrics"' EXIT
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
trace=$(mktemp /tmp/ncdrf-trace.XXXXXX.json)
ledger=$(mktemp /tmp/ncdrf-ledger.XXXXXX.jsonl)
profile_out=$(mktemp /tmp/ncdrf-profile.XXXXXX.txt)
trap 'rm -f "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out" "$k4_metrics" "$ports_metrics" "$trace" "$ledger" "$profile_out"' EXIT
dune exec bench/main.exe -- fig6 --quick --jobs 1 \
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
sock_a="/tmp/ncdrf-serve-a.$$.sock"
sock_b="/tmp/ncdrf-serve-b.$$.sock"
serve_metrics=$(mktemp /tmp/ncdrf-serve.XXXXXX.json)
client_suite=$(mktemp /tmp/ncdrf-client-suite.XXXXXX.txt)
batch_suite=$(mktemp /tmp/ncdrf-batch-suite.XXXXXX.txt)
shed_dir=$(mktemp -d /tmp/ncdrf-shed.XXXXXX)
deadline_metrics=$(mktemp /tmp/ncdrf-deadline.XXXXXX.json)
trap 'rm -rf "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out" "$k4_metrics" "$ports_metrics" "$trace" "$ledger" "$profile_out" "$serve_metrics" "$client_suite" "$batch_suite" "$shed_dir" "$deadline_metrics" "$sock_a" "$sock_b"' EXIT

"$NCDRF" serve --socket "$sock_a" --jobs 1 > /dev/null 2>&1 &
serv_a=$!
"$NCDRF" client suite --socket "$sock_a" --size 60 > "$client_suite"
"$NCDRF" suite --size 60 --jobs 1 > "$batch_suite"
cmp -s "$client_suite" "$batch_suite" || {
  echo "check.sh: client suite output differs from batch suite" >&2; exit 1; }
kill -TERM "$serv_a"
wait "$serv_a" || {
  echo "check.sh: clean daemon did not exit 0 on SIGTERM" >&2; exit 1; }
[ ! -e "$sock_a" ] || {
  echo "check.sh: daemon left its socket behind after drain" >&2; exit 1; }

"$NCDRF" serve --socket "$sock_b" --jobs 1 --queue 1 \
  --inject stage=schedule,every=7 --metrics "$serve_metrics" > /dev/null 2>&1 &
serv_b=$!
client_pids=
for i in 1 2 3 4 5 6; do
  { c=0; "$NCDRF" client suite --socket "$sock_b" --size 3000 --retries 0 \
      > "$shed_dir/out.$i" 2>&1 || c=$?; echo "$c" > "$shed_dir/code.$i"; } &
  client_pids="$client_pids $!"
done
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
sock_c="/tmp/ncdrf-serve-c.$$.sock"
conc_dir=$(mktemp -d /tmp/ncdrf-conc.XXXXXX)
trap 'rm -rf "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out" "$k4_metrics" "$ports_metrics" "$trace" "$ledger" "$profile_out" "$serve_metrics" "$client_suite" "$batch_suite" "$shed_dir" "$deadline_metrics" "$sock_a" "$sock_b" "$sock_c" "$conc_dir"' EXIT
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
# deadline category, reported in the metrics, without crashing the run.
"$NCDRF" suite --size 10 --jobs 1 --timeout 0 --metrics "$deadline_metrics" > /dev/null
dl=$(grep -o '"errors.deadline_exceeded": *[0-9]*' "$deadline_metrics" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${dl:-}" ] || [ "$dl" -eq 0 ]; then
  echo "check.sh: --timeout 0 suite reported no deadline_exceeded errors" >&2
  exit 1
fi

# Persistent-store gate: a second process over the same --cache-dir must
# replay the whole fig8-quick sweep from disk (disk_hits > 0), print a
# byte-identical table, and cut the wall clock at least in half —
# anything less means the disk tier is disconnected or not trusted.
store_dir=$(mktemp -d /tmp/ncdrf-store.XXXXXX)
cold_m=$(mktemp /tmp/ncdrf-cold.XXXXXX.json)
warm_m=$(mktemp /tmp/ncdrf-warm.XXXXXX.json)
cold_out=$(mktemp /tmp/ncdrf-cold.XXXXXX.txt)
warm_out=$(mktemp /tmp/ncdrf-warm.XXXXXX.txt)
trap 'rm -rf "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out" "$k4_metrics" "$ports_metrics" "$trace" "$ledger" "$profile_out" "$serve_metrics" "$client_suite" "$batch_suite" "$shed_dir" "$deadline_metrics" "$sock_a" "$sock_b" "$sock_c" "$conc_dir" "$store_dir" "$cold_m" "$warm_m" "$cold_out" "$warm_out"' EXIT
dune exec bench/main.exe -- fig8 --quick --jobs 1 \
  --cache-dir "$store_dir" --metrics "$cold_m" > "$cold_out"
dune exec bench/main.exe -- fig8 --quick --jobs 1 \
  --cache-dir "$store_dir" --metrics "$warm_m" > "$warm_out"
disk_hits=$(grep -o '"cache.disk_hits": *[0-9]*' "$warm_m" | head -n1 | grep -o '[0-9]*$' || true)
if [ -z "${disk_hits:-}" ] || [ "$disk_hits" -eq 0 ]; then
  echo "check.sh: disk-warm rerun reported no cache.disk_hits" >&2
  exit 1
fi
# The [metrics: <path>] footer names a different temp file per run; the
# table above it is the contract.
if ! { grep -v '^\[metrics' "$cold_out" > "$cold_out.f"; \
       grep -v '^\[metrics' "$warm_out" > "$warm_out.f"; \
       cmp -s "$cold_out.f" "$warm_out.f"; }; then
  rm -f "$cold_out.f" "$warm_out.f"
  echo "check.sh: disk-warm rerun output differs from the cold run" >&2
  exit 1
fi
rm -f "$cold_out.f" "$warm_out.f"
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
shard_dir=$(mktemp -d /tmp/ncdrf-shards.XXXXXX)
trap 'rm -rf "$metrics" "$spill_metrics" "$inj_metrics" "$inj_out" "$k4_metrics" "$ports_metrics" "$trace" "$ledger" "$profile_out" "$serve_metrics" "$client_suite" "$batch_suite" "$shed_dir" "$deadline_metrics" "$sock_a" "$sock_b" "$sock_c" "$conc_dir" "$store_dir" "$cold_m" "$warm_m" "$cold_out" "$warm_out" "$shard_dir"' EXIT
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

echo "check.sh: OK (cache.misses=$misses, alloc.table_reuse=$reuse, spill.incremental_reschedules=$incs, errors.injected=$injected, cluster.subfiles=$subfiles, ports.capped_points=$capped, trace_events=$events, serve: served=$served_clients shed=$shed_clients injected=$srv_injected overloaded=$srv_overloaded deadline=$dl, concurrent serve: 4 clients byte-identical request_ids=$req_ids, store: disk_hits=$disk_hits cold=${cold_wall}s warm=${warm_wall}s, shard merge OK)"
