"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are directories (or single files) of result files written by
bench/run.py to .bench_out/results/.  For each workload and end-to-end metric
it prints each side's median and quartiles, the paired wins of NEW over BASE
(runs paired by seed, else in run order; ties count for neither side) and a
verdict, using the bounds in BENCHMARK.json:

  unresolved   either side's spread (quartile distance / median) exceeds the
               bound, and not every NEW run beats every BASE run
  REGRESSION   NEW's median is worse than BASE's by more than the bound
  gain         NEW wins at least 9 of 10 pairs and the medians differ by more
               than BASE's quartile distance
  within bound otherwise

Below each workload's end-to-end rows it prints the median per-layer metrics
of the traced runs of both sides with their change.  Exits 1 if any metric
regressed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        glob.glob(os.path.join(path, "*.json")))
    out = []
    for name in files:
        if name.endswith(".spans.json"):
            continue
        with open(name) as fh:
            doc = json.load(fh)
        if "result" in doc and "workload" in doc:
            out.append(doc)
    out.sort(key=lambda d: d["utc"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    """(base value, new value) pairs: same seed first, the rest in run order."""
    by_seed = {}
    for seed, value in base:
        by_seed.setdefault(seed, []).append(value)
    out, rest_new = [], []
    for seed, value in new:
        if by_seed.get(seed):
            out.append((by_seed[seed].pop(0), value))
        else:
            rest_new.append(value)
    rest_base = [v for values in by_seed.values() for v in values]
    out.extend(zip(rest_base, rest_new))
    return out


def verdict(metric, base, new):
    """Row of numbers and the verdict for one metric on one workload."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    b_vals, n_vals = [v for _, v in base], [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b_vals)
    nq1, nmed, nq3 = quartiles(n_vals)
    worse = sign * (nmed - bmed) / bmed
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    paired = pairs(base, new)
    wins = sum(sign * (n - b) < 0 for b, n in paired)
    all_better = all(sign * (n - b) < 0 for b in b_vals for n in n_vals)
    if spread > bound and not all_better:
        call = "unresolved"
    elif worse > bound:
        call = "REGRESSION"
    elif (paired and wins >= 0.9 * len(paired) and worse < 0
          and abs(nmed - bmed) > bq3 - bq1):
        call = "gain"
    else:
        call = "within bound"
    row = {"base": (bmed, bq1, bq3, len(b_vals)), "new": (nmed, nq1, nq3, len(n_vals)),
           "change": (nmed - bmed) / bmed, "spread": spread, "wins": wins,
           "pairs": len(paired)}
    return call, row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("no result files in %s" % (args.base if not base else args.new),
              file=sys.stderr)
        return 2
    for side, docs in (("base", base), ("new", new)):
        shas = sorted({d["provenance"]["git_sha"][:12] for d in docs})
        prov = docs[0]["provenance"]
        print("%-4s %d results  git %s  python %s  numpy %s  nproc %s"
              % (side, len(docs), ",".join(shas), prov["python"], prov["numpy"],
                 prov["nproc"]))

    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        print("\n%s" % workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [(d["seed"], d["result"]["metrics"][name]["value"]) for d in base
                 if d["workload"] == workload and d["trace"] == 0]
            n = [(d["seed"], d["result"]["metrics"][name]["value"]) for d in new
                 if d["workload"] == workload and d["trace"] == 0]
            if not b or not n:
                print("  %-14s missing on %s" % (name, "base" if not b else "new"))
                continue
            call, r = verdict(metric, b, n)
            regressed |= call == "REGRESSION"
            print("  %-14s %11.5g [%.5g..%.5g] n=%d -> %11.5g [%.5g..%.5g] n=%d"
                  "  %+6.1f%%  spread %.1f%% (bound %.0f%%)  wins %d/%d  %s"
                  % ((name,) + r["base"] + r["new"]
                     + (100 * r["change"], 100 * r["spread"], 100 * metric["bound"],
                        r["wins"], r["pairs"], call)))
        layer_rows(spec, workload, base, new)
    return 1 if regressed else 0


def layer_rows(spec, workload, base, new):
    sides = []
    for docs in (base, new):
        runs = [d["result"]["metrics"] for d in docs
                if d["workload"] == workload and d["trace"] == 1]
        sides.append(runs)
    if not sides[0] or not sides[1]:
        return
    print("  per layer (median of %d vs %d traced runs)"
          % (len(sides[0]), len(sides[1])))
    for metric in spec["per_layer"]:
        name = metric["name"]
        b = statistics.median(r[name]["value"] for r in sides[0])
        n = statistics.median(r[name]["value"] for r in sides[1])
        if b == 0 and n == 0:
            continue
        change = "%+.1f%%" % (100.0 * (n - b) / b) if b else "new"
        print("    %-36s %12.6g -> %12.6g %s  %s"
              % (name, b, n, metric["unit"], change))


if __name__ == "__main__":
    sys.exit(main())
