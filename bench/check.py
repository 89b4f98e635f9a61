"""Correctness gate for the benchmark's ops.

An op passes when it exits 0, writes exactly the files its command promises,
those files satisfy the invariants below, and -- when a reference recorded
from the same config exists -- they match it:

* discrete values (ints, bools, strings: counts, verdicts, cluster ids,
  `converged`, `t_stop`) exactly;
* floats within FLOAT_RTOL relative or FLOAT_ATOL absolute;
* trajectory CSVs on their header lines, row count and `updated` column
  exactly, and on every float column at REF_ROWS evenly spaced rows plus the
  last row within the same tolerance.

Configs of other seeds have no reference; their outputs are checked on the
invariants only: schema id, config hash and master seed, counts not above
their totals, and CSV row count equal to the horizon.  A reference recorded
from another config than the op's fails the op.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
REF_ROWS = 100
SCHEMA = "beliefplay/report-v1"

OK, FAILED = "ok", "failed"


class Mismatch(Exception):
    pass


def config_hash(config):
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def expected_files(op):
    if op.command == "stability":
        return ["stability_report.json"]
    if op.command == "fixed-points":
        return ["fixed_points.json"]
    seeds = op.seeds
    if len(seeds) == 1:
        return ["summary.json", "trajectory.csv"]
    return sorted(name % s for s in seeds
                  for name in ("summary_%d.json", "trajectory_%d.csv"))


def verify(op, out_dir, exit_code, stderr, reference):
    """(status, message) for one op run; reference is the op's recorded
    entry or None."""
    if exit_code != 0:
        return FAILED, "exit %s: %s" % (exit_code, stderr.strip()[-300:])
    try:
        docs = _check_outputs(op, out_dir)
        if reference is not None:
            if reference["config_hash"] != config_hash(op.config):
                raise Mismatch("%s: config differs from the one the reference "
                               "was recorded from" % op.name)
            _compare(reference["files"], {k: digest(k, v) for k, v in docs.items()},
                     op.name)
    except Mismatch as exc:
        return FAILED, str(exc)
    return OK, ""


def _load(out_dir, name):
    path = os.path.join(out_dir, name)
    if name.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    with open(path, newline="") as fh:
        return fh.read().split("\n")


def _check_outputs(op, out_dir):
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    want = expected_files(op)
    if names != sorted(want):
        raise Mismatch("%s: wrote %s, expected %s" % (op.name, names, want))
    docs = {name: _load(out_dir, name) for name in names}
    cfg_hash = config_hash(op.config)
    master = op.seeds[0]
    for name, doc in docs.items():
        if name.endswith(".json"):
            _expect(doc.get("schema") == SCHEMA, op, name,
                    "schema %r" % doc.get("schema"))
            _expect(doc.get("config_hash") == cfg_hash, op, name, "config hash")
            _expect(doc.get("master_seed") == master, op, name, "master seed")
    if op.command == "stability":
        _check_stability(op, docs["stability_report.json"])
    elif op.command == "fixed-points":
        _check_fixed_points(op, docs["fixed_points.json"])
    else:
        multi = len(op.seeds) > 1
        for seed in op.seeds:
            suffix = "_%d" % seed if multi else ""
            _check_run(op, docs["summary%s.json" % suffix],
                       docs["trajectory%s.csv" % suffix], seed, cfg_hash)
    return docs


def _expect(cond, op, name, what):
    if not cond:
        raise Mismatch("%s/%s: invariant failed: %s" % (op.name, name, what))


def _check_stability(op, doc):
    spec = op.config["analysis"]["stability"]
    rep = doc["report"]
    name = "stability_report.json"
    _expect(doc["cluster"] == spec["cluster"], op, name, "cluster id")
    _expect(rep["n_runs"] == spec["n_runs"], op, name, "n_runs")
    _expect(0 <= rep["n_stayed"] <= rep["n_runs"], op, name, "n_stayed <= n_runs")
    _expect(0.0 <= rep["ci_low"] <= rep["ci_high"] <= 1.0, op, name, "CI order")
    _expect(rep["verdict"] in ("locally_stable_evidence", "unstable_evidence",
                               "inconclusive"), op, name, "verdict")
    for key in ("A2b", "A2c"):
        part = rep["assumption2"][key]
        _expect(0 <= part["violations"] <= part["n_probe"], op, name,
                "%s violations <= n_probe" % key)


def _check_fixed_points(op, doc):
    name = "fixed_points.json"
    _expect(len(doc["clusters"]) >= 1, op, name, "at least one cluster")
    ids = [c["cluster_id"] for c in doc["clusters"]]
    _expect(len(set(ids)) == len(ids), op, name, "distinct cluster ids")
    _expect(all(c["n_members"] >= 1 for c in doc["clusters"]), op, name,
            "non-empty clusters")
    glob = doc.get("global_stability")
    if glob is not None:
        _expect(glob["verdict"] in ("globally_stable", "not_globally_stable",
                                    "inconclusive"), op, name, "verdict")
        if glob["n_converged"] is not None:
            _expect(0 <= glob["n_converged"] <= glob["n_runs"], op, name,
                    "n_converged <= n_runs")


def _check_run(op, summary, lines, seed, cfg_hash):
    horizon = op.config["horizon"]
    name = "summary(seed %d)" % seed
    _expect(summary["seed"] == seed, op, name, "seed")
    _expect(1 <= summary["t_stop"] <= horizon, op, name, "t_stop <= horizon")
    _expect(len(summary["update_stages"]) <= horizon, op, name,
            "updates <= horizon")
    _expect(abs(sum(summary["final_theta"]) - 1.0) <= 1e-9, op, name,
            "final belief sums to 1")
    name = "trajectory(seed %d)" % seed
    _expect(lines[0] == "# config_hash=%s master_seed=%s" % (cfg_hash, op.seeds[0]),
            op, name, "metadata header")
    _expect(lines[-1] == "", op, name, "trailing newline")
    rows = list(csv.reader(lines[2:-1]))
    _expect(len(rows) == horizon, op, name, "rows %d != horizon %d"
            % (len(rows), horizon))
    _expect([r[0] for r in rows] == [str(t) for t in range(1, horizon + 1)],
            op, name, "t column is 1..horizon")
    updated = [r[-1] for r in rows]
    _expect(set(updated) <= {"0", "1"}, op, name, "updated is 0/1")
    _expect(updated.count("1") == len(summary["update_stages"]), op, name,
            "updated rows == update stages")


# ---------------------------------------------------------------------------
# Reference digests and comparison


def digest(name, doc):
    """What the reference keeps of one output file."""
    if name.endswith(".json"):
        return doc
    rows = list(csv.reader(doc[2:-1]))
    step = max(1, len(rows) // REF_ROWS)
    picks = sorted(set(range(0, len(rows), step)) | {len(rows) - 1})
    return {
        "header": doc[:2],
        "rows": len(rows),
        "updated_sha256": hashlib.sha256(
            "".join(r[-1] for r in rows).encode()).hexdigest(),
        "sampled": {str(i): [float(x) for x in rows[i][1:-1]] for i in picks},
    }


def _compare(ref, got, path):
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            raise Mismatch("%s: keys differ: %s" % (path, sorted(set(ref) ^ set(got))))
        for key in ref:
            _compare(ref[key], got[key], "%s/%s" % (path, key))
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            raise Mismatch("%s: length %d != reference %d" % (path, len(got), len(ref)))
        for i, (a, b) in enumerate(zip(ref, got)):
            _compare(a, b, "%s[%d]" % (path, i))
    elif (isinstance(ref, float) or isinstance(got, float)) and not (
            isinstance(ref, bool) or isinstance(got, bool)):
        if not (isinstance(ref, (int, float)) and isinstance(got, (int, float))
                and _close(float(ref), float(got))):
            raise Mismatch("%s: %r != reference %r" % (path, got, ref))
    elif type(ref) is not type(got) or ref != got:
        raise Mismatch("%s: %r != reference %r" % (path, got, ref))


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)


def reference_entry(op, out_dir):
    """Reference record of one successful op run (used when recording)."""
    docs = _check_outputs(op, out_dir)
    return {"config_hash": config_hash(op.config),
            "files": {k: digest(k, v) for k, v in docs.items()}}
