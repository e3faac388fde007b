#!/usr/bin/env python3
"""A/B comparison of two sets of benchmark runs.

    python3 benchmark/compare.py A.jsonl B.jsonl

Each file holds the records `benchmark/run.py --out FILE` appended, one
JSON line per invocation: A from the parent commit, B from the change,
made with the same seeds and --seconds, alternating which side runs
first. Run i of A is paired with run i of B.

For every workload and end-to-end metric it prints each side's median
and quartiles, the share of pairs B won (ties count for neither), the
metric's bound from BENCHMARK.json, and a verdict:

  gain        B won >= 9/10 of the pairs and the medians differ by more
              than A's own quartile spread
  regression  B's median is worse than A's by more than the bound
  unresolved  a side's spread (IQR / median) is wider than the bound,
              unless every B run beats every A run
  unchanged   none of the above

Counts (units count, cycles, bytes) must repeat exactly between paired
runs of the same seed, and are compared exactly; per-layer timings are
printed for attribution only. Exits 1 when any metric regressed or a
count differs.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "cycles", "bytes"}
GAIN_SHARE = 0.9


def load(path):
    text = Path(path).read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def values(runs, workload, trace, metric):
    out = []
    for run in runs:
        res = run["workloads"].get(workload, {}).get(f"trace{trace}")
        if res and metric in res["metrics"]:
            out.append(res["metrics"][metric]["value"])
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def better(a, b, direction):
    """True when b is better than a."""
    return b < a if direction == "lower" else b > a


def verdict(a, b, metric):
    qa, qb = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    won = sum(better(x, y, metric["better"]) for x, y in pairs)
    share = won / len(pairs) if pairs else 0.0
    bound = metric["bound"]
    med_a, med_b = qa[1], qb[1]
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    spread = max((qa[2] - qa[0]) / med_a if med_a else 0.0,
                 (qb[2] - qb[0]) / med_b if med_b else 0.0)
    if worse > bound:
        v = "regression"
    elif share >= GAIN_SHARE and abs(med_b - med_a) > qa[2] - qa[0] and \
            better(med_a, med_b, metric["better"]):
        v = "gain"
    elif spread > bound and not all(
            better(x, y, metric["better"]) for x in a for y in b):
        v = "unresolved"
    else:
        v = "unchanged"
    return qa, qb, share, worse, v


def report_detail(runs, key):
    """A deterministic report-quick detail value of every untraced run."""
    return [r["workloads"]["report-quick"]["trace0"]["detail"][key]
            for r in runs
            if "trace0" in r["workloads"].get("report-quick", {})]


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0

    print(f"A: {len(a_runs)} runs ({argv[0]})   B: {len(b_runs)} runs "
          f"({argv[1]})")
    print(f"{'workload':<13} {'metric':<10} {'A median [q1, q3]':<30} "
          f"{'B median [q1, q3]':<30} {'worse':>7} {'B won':>6} "
          f"{'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            a = values(a_runs, w, 0, m["name"])
            b = values(b_runs, w, 0, m["name"])
            if not a or not b:
                continue
            qa, qb, share, worse, v = verdict(a, b, m)
            bad += v == "regression"
            print(f"{w:<13} {m['name']:<10} {fmt(qa):<30} {fmt(qb):<30} "
                  f"{worse:>+7.1%} {share:>6.0%} {m['bound']:>6.0%}  {v}")

    same_seeds = all(x["seed"] == y["seed"] for x, y in zip(a_runs, b_runs))
    for key in ("paper_rel_err", "paper_checked"):
        a, b = report_detail(a_runs, key), report_detail(b_runs, key)
        if a and b:
            same = len(set(a + b)) == 1
            bad += not same
            print(f"report-quick  {key}: A {a[0]!r}  B {b[0]!r}  "
                  f"{'equal' if same else 'DIFFERS'}")

    print("\nper-layer (attribution only; counts compared exactly):")
    for w in workloads:
        for m in spec["per_layer"]:
            a = values(a_runs, w, 1, m["name"])
            b = values(b_runs, w, 1, m["name"])
            if not a or not b:
                continue
            if m["unit"] in EXACT_UNITS:
                if not same_seeds:
                    note = "seeds differ; not compared"
                elif all(x == y for x, y in zip(a, b)):
                    note = "equal"
                else:
                    note = "DIFFERS"
                    bad += 1
                print(f"  {w:<13} {m['name']:<28} {a[0]:>14.6g} "
                      f"{b[0]:>14.6g}  {note}")
            else:
                qa, qb = quartiles(a), quartiles(b)
                delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                print(f"  {w:<13} {m['name']:<28} {qa[1]:>14.6g} "
                      f"{qb[1]:>14.6g}  {delta:+.1%}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
