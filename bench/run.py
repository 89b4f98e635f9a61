"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload stability_mc --seed 0 --seconds 38 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

Each workload (see workloads.py) is a fixed set of `beliefplay` CLI ops that
are run in this process, one after another, with `--threads 1`, on config
files generated from --seed.  One pass over the set is a rep; reps repeat
until the next one would end after --seconds (at least one rep).  Every op
of every rep is checked by check.py outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      set-up time (importing beliefplay and writing the configs)
               at a fixed machine speed: before every rep, PROBES_PER_REP
               fresh interpreters each set up and then time
               reference_loop(); setup_s is REFERENCE_S times the median over
               these probes of set-up time / reference time, so that drift
               in the machine's speed cancels; the probes' seconds are
               printed and stored
  wall_ref     median over reps of the rep time (the sum of the ops'
               cli.main() durations) divided by the mean time of
               reference_loop() run before every op and after the last, so
               that drift in the machine's speed cancels; the rep times
               themselves are printed and stored as wall_s
  peak_rss_mb  peak resident memory of this process
  ok_ratio     ops that succeeded / ops attempted (1 - failed_ratio; the
               failed_ratio itself is printed and stored, but it is 0 when
               every op succeeds, and an end-to-end metric must never be 0)

--trace 1 alternates untraced and traced reps (tracer.py) and reports the
per-layer metrics of BENCHMARK.json as low medians over the traced reps,
plus trace.overhead_ratio = median traced rep / median untraced rep.  A
traced run that finds an expected import site without calls exits 3 without
a result.

Results, with provenance, go to .bench_out/results/ (spans of traced runs
beside them); compare two sets of them with bench/compare.py.  The last line
of stdout is the result object; `failed` counts every op that failed.
--record-reference rewrites the reference outputs in bench/reference/ from
seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import check
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "bench")
OUT = os.path.join(ROOT, ".bench_out")
PROBES_PER_REP = 3
PROBE_TIMEOUT_S = 60
# reference_loop() time in a fresh interpreter in the fast phase of the
# 2-core machine the baseline in bench/README.md was measured on; setup_s is
# set-up time at that speed
REFERENCE_S = 0.055


def _fail(message, code=2):
    print("bench: %s" % message, file=sys.stderr)
    return code


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def setup(workload, seed, work_dir):
    """Import beliefplay from this checkout and write the configs."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import beliefplay
    from beliefplay import cli

    ops = workloads.build(workload, seed, os.path.join(work_dir, "configs"))
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(beliefplay.__file__).startswith(SRC + os.sep):
        raise RuntimeError("imported beliefplay from %s, not from %s"
                           % (beliefplay.__file__, SRC))
    return elapsed, beliefplay, cli, ops


def probe_setup(workload, seed):
    """(set-up time, reference_loop() time right after it), measured in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    setup_s, ref_s = proc.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(ref_s)


def _dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def reference_loop():
    """Time of a fixed mix of the two kinds of code the program spends its
    time in, to gauge the machine's speed at the moment; it does not touch
    beliefplay."""
    import numpy as np  # not at the top: set-up time includes importing it

    rng = np.random.default_rng(1)
    x = np.array([0.3, 0.7])
    thetas, qs = rng.random((4000, 3)), rng.random((4000, 2))
    acc = 0.0
    t0 = time.perf_counter()
    # per-stage loops: tiny numpy calls and interpreted arithmetic
    for k in range(4000):
        z = rng.standard_normal(2)
        acc += float(np.exp(-0.5 * (x - z) ** 2).sum()) / (1 + k % 7)
        acc -= {"k": k, "acc": acc}["acc"] * 1e-9
    # fixed-point linking: one row against all later rows of two arrays
    for a in range(0, 4000, 20):
        close = ((np.max(np.abs(thetas[a + 1:] - thetas[a]), axis=1) <= 0.05)
                 & (np.max(np.abs(qs[a + 1:] - qs[a]), axis=1) <= 0.1))
        for off in np.nonzero(close)[0]:
            acc += int(off) * 1e-12
    return time.perf_counter() - t0


def run_rep(cli, ops, out_root, reference, tracer=None, gauge=False):
    """One pass over the workload's ops; returns the rep record.  With
    `gauge`, reference_loop() runs before every op and after the last."""
    rep = {"wall_s": 0.0, "ref_s": [], "ops": []}
    for op, config_path in ops:
        if gauge:
            rep["ref_s"].append(reference_loop())
        out_dir = os.path.join(out_root, op.name)
        shutil.rmtree(out_dir, ignore_errors=True)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.begin_op(op.name)
            t0 = time.perf_counter()
            try:
                code = cli.main(op.argv(config_path, out_dir))
            except Exception as exc:  # cli.main reports errors as exit codes
                code = None
                err.write("uncaught %s: %s" % (type(exc).__name__, exc))
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op(ops=1, exit_nonzero=int(code != 0),
                              write_bytes=_dir_bytes(out_dir),
                              ball_shrinks=sum("shrinking the radius" in str(w.message)
                                               for w in caught))
        status, message = check.verify(op, out_dir, code, err.getvalue(),
                                       reference.get(op.name))
        rep["wall_s"] += elapsed
        rep["ops"].append({"op": op.name, "seconds": elapsed, "exit": code,
                           "status": status, "message": message})
    if gauge:
        rep["ref_s"].append(reference_loop())
    return rep


def run_reps(cli, ops, out_root, reference, seconds, probe):
    """Reps until the next one would end after `seconds`, each preceded by
    PROBES_PER_REP calls of `probe`; returns (reps, probe results)."""
    started = time.perf_counter()
    reps, probes = [], []
    while True:
        t0 = time.perf_counter()
        probes += [probe() for _ in range(PROBES_PER_REP)]
        reps.append(run_rep(cli, ops, out_root, reference, gauge=True))
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            return reps, probes


# ---------------------------------------------------------------------------
# Provenance


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    import numpy

    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# Reporting


def record_reference(cli, ops, out_root):
    rep = run_rep(cli, ops, out_root, {})
    entries = {}
    for (op, _), result in zip(ops, rep["ops"]):
        if result["status"] != check.OK:
            raise RuntimeError("%s failed: %s" % (op.name, result["message"]))
        entries[op.name] = check.reference_entry(op, os.path.join(out_root, op.name))
    return {"recorded_with": provenance(), "tolerance": {
        "rtol": check.FLOAT_RTOL, "atol": check.FLOAT_ATOL}, "ops": entries}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "beliefplay", "cli.py")):
        return _fail("no beliefplay sources under %s" % SRC)
    if args.workload == "all":
        return _run_all(args)
    work = os.path.join(OUT, "work", "%d" % os.getpid())
    try:
        return _main(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_all(args):
    """Every workload in its own interpreter, one after another."""
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
    if args.record_reference:
        flags.append("--record-reference")
    codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                             "--workload", name] + flags).returncode
             for name in workloads.WORKLOADS]
    return max(codes)


def _main(args, work):
    if args.setup_probe:
        elapsed = setup(args.workload, args.seed, work)[0]
        print("%.9f %.9f" % (elapsed, reference_loop()))
        return 0
    spec = _spec()
    _, package, cli, ops = setup(args.workload, args.seed, work)
    out_root = os.path.join(work, "out")
    ref_path = os.path.join(BENCH_DIR, "reference", args.workload + ".json")

    if args.record_reference:
        if args.seed != 0:
            return _fail("references are recorded at seed 0")
        doc = record_reference(cli, ops, out_root)
        with open(ref_path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
        print("wrote %s (%d ops)" % (ref_path, len(doc["ops"])))
        return 0

    reference = {}
    if args.seed == 0:  # the configs the reference was recorded from
        with open(ref_path) as fh:
            reference = json.load(fh)["ops"]
        missing = [op.name for op, _ in ops if op.name not in reference]
        if missing:
            return _fail("%s has no reference for %s; record it with "
                         "--record-reference" % (ref_path, missing))
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(),
              "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
                  timespec="seconds"),
              "ops": [{"name": op.name, "command": op.command, "config": op.config}
                      for op, _ in ops]}
    if args.trace:
        metrics, reps, spans = _traced(args, package, cli, ops, out_root, reference)
        if metrics is None:
            return 3
        wanted = spec["per_layer"]
    else:
        reps, probes = run_reps(cli, ops, out_root, reference, args.seconds,
                                lambda: probe_setup(args.workload, args.seed))
        walls = [r["wall_s"] for r in reps]
        refs = [statistics.mean(r["ref_s"]) for r in reps]
        metrics = {
            "setup_s": REFERENCE_S * statistics.median(s / r for s, r in probes),
            "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["setup_probes"] = probes
        wanted = spec["end_to_end"]
        spans = None

    statuses = [o["status"] for r in reps for o in r["ops"]]
    attempted = len(statuses)
    failed = statuses.count(check.FAILED)
    failed_ratio = failed / attempted
    if not args.trace:
        metrics["ok_ratio"] = 1.0 - failed_ratio
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        return _fail("metrics %s do not match BENCHMARK.json %s"
                     % (sorted(metrics), sorted(units)), 4)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    result.update(reps=reps, failed_ratio=failed_ratio, result=line)

    print("workload %s  seed %d  trace %d  reps %d  ops/rep %d"
          % (args.workload, args.seed, args.trace, len(reps), len(ops)))
    for name in units:
        print("  %-36s %14.6g %s" % (name, metrics[name], units[name]))
    print("  %-36s %14.6g ratio  (%d of %d ops failed)"
          % ("failed_ratio", failed_ratio, failed, attempted))
    if args.trace:
        print("  traced rep less tracer overhead / untraced rep: %.4f "
              "(wrapper residual %.3f us per call)"
              % (spans["corrected_ratio"], spans["reps"][0]["residual_us"]))
    else:
        print("  wall_s per rep: %s" % " ".join("%.4f" % w for w in walls))
        print("  reference_loop s per rep: %s" % " ".join("%.4f" % r for r in refs))
        print("  setup s per probe: %s" % " ".join("%.4f" % s for s, _ in probes))
        print("  reference_loop s per probe: %s"
              % " ".join("%.4f" % r for _, r in probes))
    for r in reps:
        for o in r["ops"]:
            if o["status"] == check.FAILED:
                print("  FAILED %s: %s" % (o["op"], o["message"]), file=sys.stderr)

    _write_result(result, spans)
    print(json.dumps(line, sort_keys=True))
    return 0


def _traced(args, package, cli, ops, out_root, reference):
    """Untraced and traced reps in turn, so that both see the same machine
    load; returns (metrics, all reps, spans) or Nones if a site was missed."""
    started = time.perf_counter()
    tracer = tracing.Tracer(package)
    untraced, traced = [], []
    while True:
        t0 = time.perf_counter()
        if len(untraced) <= len(traced):
            untraced.append(run_rep(cli, ops, out_root, reference))
        else:
            tracer.install()
            try:
                traced.append(run_rep(cli, ops, out_root, reference, tracer))
            finally:
                tracer.uninstall()
            traced[-1]["trace"] = tracer.take()
        last = time.perf_counter() - t0
        if traced and time.perf_counter() - started + last > args.seconds:
            break
    missing = tracer.unreached(workloads.SITES[args.workload])
    if missing or tracer.hook_errors:
        _fail("traced run incomplete: sites without calls %s, hook errors %s"
              % (missing, dict(tracer.hook_errors)))
        return None, None, None
    per_rep = [tracing.layer_metrics(r["trace"]) for r in traced]
    metrics = {k: statistics.median_low(m[k] for m in per_rep) for k in per_rep[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced))
    # the tracer's own cost is taken out of every span; what it leaves of a
    # traced rep should be close to an untraced rep
    corrected = [sum(s[6] for s in r["trace"]["spans"] if s[1].startswith("op."))
                 for r in traced]
    spans = {"site_calls": {k: v[0] for k, v in sorted(tracer.site_calls.items())},
             "corrected_ratio": statistics.median(corrected)
             / statistics.median(r["wall_s"] for r in untraced),
             "reps": [r.pop("trace") for r in traced]}
    return metrics, untraced + traced, spans


def _write_result(result, spans):
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    stem = os.path.join(results, "%s-seed%d-trace%d-%s-%d" % (
        result["workload"], result["seed"], result["trace"], stamp, os.getpid()))
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())
