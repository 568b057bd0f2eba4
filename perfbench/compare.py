#!/usr/bin/env python3
"""Compare two perfbench result sets.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

A result set is a directory of saved run.py outputs, one file per run,
for example

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload grid --seed $s --seconds 20 \
          --trace 0 > old/grid-$s.txt
    done

For each workload and metric, prints both sides' median and quartiles
and the change of the median.  Metrics with a bound in BENCHMARK.json
get a verdict: improved, no worse, worse or unresolved.  Per-layer
metrics (runs with --trace 1) get their deltas.
"""

import json
import os
import statistics
import sys

# Direction of the end-to-end metrics a run reports beyond the bound
# ones of BENCHMARK.json.
REPORTED = {
    "raw_setup_s": "lower", "raw_points_per_s": "higher", "cold_points_per_s": "higher", "warm_points_per_s": "higher",
    "requests_per_s": "higher", "request_p50_ms": "lower", "request_p99_ms": "lower",
    "suite_request_p50_ms": "lower", "spills_total": "lower", "relative_perf": "higher",
    "wrong_output_share": "lower", "failed_share": "lower",
}


def load(directory):
    """{(workload, trace): {metric: {seed: value}}} and units."""
    runs, units = {}, {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            for line in f:
                if not line.startswith('{"perfbench"'):
                    continue
                r = json.loads(line)["perfbench"]
                by_metric = runs.setdefault((r["workload"], r["trace"]), {})
                for m, v in r["metrics"].items():
                    by_metric.setdefault(m, {})[r["seed"]] = v["value"]
                    units[m] = v["unit"]
    return runs, units


def summary(values):
    vs = sorted(values)
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return med, q1, q3


def gain(old, new, better):
    """Relative change of the median, positive when better."""
    if old == 0:
        return 0.0 if new == 0 else (1.0 if (new > old) == (better == "higher") else -1.0)
    change = (new - old) / abs(old)
    return change if better == "higher" else -change


def verdict(old, new, better, bound):
    """The rules of the benchmark notes: a gain needs 9 of 10 pairs and a
    median move beyond the parent's own spread; a spread wider than the
    bound leaves the metric unresolved unless every new run is better."""
    om, oq1, oq3 = summary(old.values())
    nm, nq1, nq3 = summary(new.values())
    g = gain(om, nm, better)
    seeds = sorted(set(old) & set(new))
    pairs = [(old[s], new[s]) for s in seeds] or list(zip(old.values(), new.values()))
    wins = sum(1 for o, n in pairs if gain(o, n, better) > 0) / max(1, len(pairs))
    spread_old = (oq3 - oq1) / abs(om) if om else 0.0
    spread_new = (nq3 - nq1) / abs(nm) if nm else 0.0
    best_old = max(old.values()) if better == "higher" else min(old.values())
    all_better = all(gain(best_old, n, better) > 0 for n in new.values())
    improved = g > spread_old and wins >= 0.9
    if all_better and improved:
        return "improved"
    if max(spread_old, spread_new) > bound:
        return "unresolved"
    if g < -bound:
        return "worse"
    return "improved" if improved else "no worse"


def fmt(x):
    return f"{x:.5g}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    old, units = load(sys.argv[1])
    new, new_units = load(sys.argv[2])
    units.update(new_units)
    try:
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}
    except OSError:
        bounds = {}
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        o, n = old[key], new[key]
        print(f"\n== {workload} (trace {trace}): "
              f"{len(next(iter(o.values())))} old runs, {len(next(iter(n.values())))} new runs")
        print(f"  {'metric':26} {'unit':6} {'old median':>11} {'[q1, q3]':>23} "
              f"{'new median':>11} {'[q1, q3]':>23} {'delta':>8}  verdict")
        for m in sorted(set(o) & set(n)):
            om, oq1, oq3 = summary(o[m].values())
            nm, nq1, nq3 = summary(n[m].values())
            delta = f"{100 * (nm - om) / abs(om):+.1f}%" if om else "-"
            v = ""
            if trace == 0 and m in bounds:
                v = verdict(o[m], n[m], *bounds[m])
            elif trace == 0 and m in REPORTED:
                widest = max((b for _, b in bounds.values()), default=0.25)
                v = verdict(o[m], n[m], REPORTED[m], widest) + " (no bound)"
            print(f"  {m:26} {units.get(m, ''):6} {fmt(om):>11} {'[' + fmt(oq1) + ', ' + fmt(oq3) + ']':>23} "
                  f"{fmt(nm):>11} {'[' + fmt(nq1) + ', ' + fmt(nq3) + ']':>23} {delta:>8}  {v}")


if __name__ == "__main__":
    main()
