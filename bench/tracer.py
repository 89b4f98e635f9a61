"""Spans around the calls into each beliefplay layer, recorded from outside
the package.

Every public function of `param_belief`, `games`, `dynamics`, `analysis` and
`cli` is rebound at each import site (including a module's own globals, so
intra-module calls are seen too), plus `GameModel.channel_means`.  Each site
gets its own wrapper and call counter; all wrappers of one function share a
span name such as `games.best_response`.

Coarse calls (the CLI layer and the analysis/dynamics entry points, at most a
few hundred per op) become full spans: id, name, start, end, parent span id,
op id, inclusive time and self time.  Hot calls (per stage or per
certificate, up to a million per run) are folded into aggregates keyed by
(name, parent name, nearest full ancestor span): count, inclusive time and
self time.

The wrappers cost time of their own, a few microseconds per call, which
would otherwise be charged to whichever span encloses them.  Each wrapper
therefore times its own bookkeeping and adds it, plus a per-call residual
calibrated on a wrapped no-op at install time, to its parent's tracer
overhead.  A span's inclusive time is its measured duration minus the tracer
overhead of all wrapped calls below it; its self time is its inclusive time
minus the inclusive times of its wrapped children.  Start and end stamps are
left as measured.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time

LAYERS = ("param_belief", "games", "dynamics", "analysis", "cli")

COARSE = {
    "dynamics.run", "dynamics.run_two_timescale", "dynamics.trajectory_to_csv",
    "analysis.enumerate_fixed_points", "analysis.check_all_fixed_points_complete",
    "analysis.check_complete_info_equilibrium_conditions",
    "analysis.check_assumption2", "analysis.monte_carlo_local_stability",
    "analysis.check_global_stability", "analysis.nearest_fixed_point",
    "analysis.stability_thresholds", "analysis.estimate_convergence_rate",
    "analysis.martingale_diagnostic",
}

CHANNEL_MEANS = "games.GameModel.channel_means"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Counters read from arguments and results; keyed by span name.
def _on_batch_loglik(c, args, kwargs, result):
    c["records"] += len(_arg(args, kwargs, 1, "batch"))


def _on_run(c, args, kwargs, result):
    horizon = int(_arg(args, kwargs, 4, "horizon"))
    c["horizon_sum"] += horizon
    c["stages"] += result.horizon
    c["early_stops"] += int(result.horizon < horizon)


def _on_csv(c, args, kwargs, result):
    c["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _on_best_response(c, args, kwargs, result):
    game = _arg(args, kwargs, 0, "game")
    if game.analytic_br is None and game.kind == "continuous":
        c["br_numeric"] += 1


def _on_equilibrium_set(c, args, kwargs, result):
    if _arg(args, kwargs, 0, "game").analytic_eq is None:
        c["eq_numeric"] += 1


def _on_certify(c, args, kwargs, result):
    c["cert_valid"] += int(bool(result.valid))


def _on_monte_carlo(c, args, kwargs, result):
    c["mc_replicas"] += int(result.n_runs)


HOOKS = {
    "param_belief.batch_log_likelihoods": _on_batch_loglik,
    "dynamics.run": _on_run,
    "dynamics.trajectory_to_csv": _on_csv,
    "games.best_response": _on_best_response,
    "games.equilibrium_set": _on_equilibrium_set,
    "analysis.certify_fixed_point": _on_certify,
    "analysis.monte_carlo_local_stability": _on_monte_carlo,
}


class Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Installs the wrappers on `install()`, removes them on `uninstall()`.

    Call `begin_op`/`end_op` around each op; `take()` returns and clears
    everything recorded since the previous `take()`.
    """

    def __init__(self, package):
        self.package = package
        self.site_calls = {}  # "module:attr" -> [calls]
        self.hook_errors = Counts()
        self._patched = []  # (owner, attr, original)
        # [name, children's inclusive time, anchor id, tracer overhead below]
        self._stack = [["<root>", 0.0, 0, 0.0]]
        self._next_id = 0
        self._solver_error = getattr(package.games, "SolverError", None)
        self._base = time.perf_counter()
        self.residual = 0.0  # per-call wrapper cost outside its own timing
        self._reset()

    def _reset(self):
        self.spans = []  # (id, name, start, end, parent id, op, incl, self)
        self.aggregates = {}  # op -> {(name, parent name, anchor): [n, incl, self]}
        self.counts = {}  # op -> Counts
        self.op = None
        self._agg = {}
        self._counts = Counts()

    # -- installation -----------------------------------------------------
    def install(self):
        modules = {name: getattr(self.package, name) for name in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[obj] = "%s.%s" % (layer, attr)
        owners = dict(modules, beliefplay=self.package)
        for owner_name, owner in owners.items():
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in originals:
                    site = "%s:%s" % (owner_name, attr)
                    self._patch(owner, attr, self._wrap(originals[obj], obj, site))
        model = self.package.games.GameModel
        self._patch(model, "channel_means",
                    self._wrap(CHANNEL_MEANS, model.channel_means,
                               "games:GameModel.channel_means"))
        self.residual = self._calibrate()

    def _calibrate(self, calls=5000, batches=9):
        """Per-call cost of a wrapper that its own timing does not see: the
        median over batches of (wrapped no-op loop - bare no-op loop) / calls
        minus the wrapper's self-timed overhead."""
        def noop():
            return None

        wrapped = self._wrap("trace.calibrate", noop, None)
        perf = time.perf_counter
        saved, self._agg, self.residual = self._agg, {}, 0.0
        frame = ["trace.calibrate", 0.0, 0, 0.0]
        self._stack.append(frame)
        residuals = []
        try:
            for _ in range(batches):
                t0 = perf()
                for _ in range(calls):
                    noop()
                bare = perf() - t0
                frame[3] = 0.0
                t0 = perf()
                for _ in range(calls):
                    wrapped()
                traced = perf() - t0
                residuals.append((traced - bare - frame[3]) / calls)
        finally:
            self._stack.pop()
            self._agg = saved
        return max(0.0, statistics.median(residuals))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- recording --------------------------------------------------------
    def _wrap(self, name, fn, site):
        calls = self.site_calls.setdefault(site, [0]) if site else [0]
        coarse = name in COARSE or name.startswith("cli.")
        hook = HOOKS.get(name)
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = perf()
            calls[0] += 1
            parent = stack[-1]
            if coarse:
                tracer._next_id += 1
                frame = [name, 0.0, tracer._next_id, 0.0]
            else:
                frame = [name, 0.0, parent[2], 0.0]
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as exc:
                tracer._on_error(exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                incl = t1 - t0 - frame[3]
                parent[1] += incl
                if coarse:
                    tracer.spans.append((frame[2], name, t0 - tracer._base,
                                         t1 - tracer._base, parent[2],
                                         tracer.op, incl, incl - frame[1]))
                else:
                    key = (name, parent[0], frame[2])
                    agg = tracer._agg.get(key)
                    if agg is None:
                        tracer._agg[key] = [1, incl, incl - frame[1]]
                    else:
                        agg[0] += 1
                        agg[1] += incl
                        agg[2] += incl - frame[1]
                if ok and hook is not None:
                    try:
                        hook(tracer._counts, args, kwargs, result)
                    except Exception:  # signature drift: reported, never fatal
                        tracer.hook_errors[name] += 1
                parent[3] += (frame[3] + tracer.residual
                              + perf() - t_in - (t1 - t0))
            return result

        return wrapper

    def _on_error(self, exc):
        if (self._solver_error is not None and isinstance(exc, self._solver_error)
                and not getattr(exc, "_bench_counted", False)):
            exc._bench_counted = True
            self._counts["solver_errors"] += 1

    def begin_op(self, op):
        self.op = op
        self._agg = self.aggregates.setdefault(op, {})
        self._counts = self.counts.setdefault(op, Counts())
        self._next_id += 1
        self._stack.append(["op." + op, 0.0, self._next_id, 0.0])
        self._op_start = time.perf_counter()

    def end_op(self, **extra):
        end = time.perf_counter()
        frame = self._stack.pop()
        incl = end - self._op_start - frame[3]
        self.spans.append((frame[2], frame[0], self._op_start - self._base,
                           end - self._base, 0, self.op, incl, incl - frame[1]))
        for key, value in extra.items():
            self._counts[key] += value
        self.op = None

    def take(self):
        """Everything recorded since the last take(), as JSON-ready lists."""
        out = {
            "residual_us": self.residual * 1e6,
            "spans_fields": ["id", "name", "start_s", "end_s", "parent", "op",
                             "incl_s", "self_s"],
            "spans": self.spans,
            "aggregates_fields": ["name", "parent_name", "anchor_span", "op",
                                  "count", "incl_s", "self_s"],
            "aggregates": [list(key) + [op] + agg
                           for op, aggs in self.aggregates.items()
                           for key, agg in aggs.items()],
            "counts": self.counts,
        }
        self._reset()
        return out

    def unreached(self, sites):
        """Expected sites that do not exist or recorded no call."""
        return [s for s in sites if self.site_calls.get(s, [0])[0] == 0]


# ---------------------------------------------------------------------------
# Per-layer metrics from one rep's record


def layer_metrics(record):
    """Per-layer metrics of one rep's record from `Tracer.take()`."""
    n, incl, self_t = Counts(), Counts(), Counts()
    loglik_outer = 0.0
    for _sid, name, _start, _end, _parent, _op, inc, slf in record["spans"]:
        n[name] += 1
        incl[name] += inc
        self_t[name] += slf
    for name, parent, _anchor, _op, cnt, inc, slf in record["aggregates"]:
        n[name] += cnt
        incl[name] += inc
        self_t[name] += slf
        if (name == "param_belief.log_likelihood"
                and parent != "param_belief.batch_log_likelihoods"):
            loglik_outer += inc
    c = Counts()
    for counts in record["counts"].values():
        for key, value in counts.items():
            c[key] += value

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    updates = n["param_belief.batch_log_likelihoods"]
    loglik_s = incl["param_belief.batch_log_likelihoods"] + loglik_outer
    run_s = incl["dynamics.run"]
    certify = n["analysis.certify_fixed_point"]
    return {
        "param_belief.updates": updates,
        "param_belief.records": c["records"],
        "param_belief.records_per_update": per(c["records"], updates),
        "param_belief.loglik_s": loglik_s,
        "param_belief.loglik_us_per_record": per(loglik_s, c["records"], 1e6),
        "param_belief.schedule_draws": n["param_belief.next_update_stage"],
        "games.br_calls": n["games.best_response"],
        "games.br_s": incl["games.best_response"],
        "games.br_us_per_call": per(incl["games.best_response"],
                                    n["games.best_response"], 1e6),
        "games.br_numeric_calls": c["br_numeric"],
        "games.sample_calls": n["games.sample_payoffs"],
        "games.sample_s": incl["games.sample_payoffs"],
        "games.eq_set_calls": n["games.equilibrium_set"],
        "games.eq_set_numeric_calls": c["eq_numeric"],
        "games.eq_set_s": incl["games.equilibrium_set"],
        "games.channel_mean_calls": n[CHANNEL_MEANS],
        "games.solver_errors": c["solver_errors"],
        "dynamics.runs": n["dynamics.run"],
        "dynamics.stages": c["stages"],
        "dynamics.run_s": run_s,
        "dynamics.self_s": sum(v for k, v in self_t.items()
                               if k.startswith("dynamics.")
                               and k != "dynamics.trajectory_to_csv"),
        "dynamics.us_per_stage": per(run_s, c["stages"], 1e6),
        "dynamics.early_stops": c["early_stops"],
        "dynamics.stage_budget_ratio": per(c["stages"], c["horizon_sum"]),
        "dynamics.csv_s": incl["dynamics.trajectory_to_csv"],
        "dynamics.csv_bytes": c["csv_bytes"],
        "analysis.enumerate_calls": n["analysis.enumerate_fixed_points"],
        "analysis.enumerate_s": incl["analysis.enumerate_fixed_points"],
        "analysis.enumerate_self_s": self_t["analysis.enumerate_fixed_points"],
        "analysis.certify_calls": certify,
        "analysis.certify_s": incl["analysis.certify_fixed_point"],
        "analysis.cert_valid_ratio": per(c["cert_valid"], certify),
        "analysis.kl_calls": n["analysis.kl_divergence"],
        "analysis.kl_s": incl["analysis.kl_divergence"],
        "analysis.nearest_fp_s": incl["analysis.nearest_fixed_point"],
        "analysis.mc_replicas": c["mc_replicas"],
        "analysis.assumption2_s": incl["analysis.check_assumption2"],
        "analysis.global_s": incl["analysis.check_global_stability"],
        "analysis.ball_shrinks": c["ball_shrinks"],
        "cli.ops": c["ops"],
        "cli.parse_s": incl["cli.parse_config"],
        "cli.self_s": sum(v for k, v in self_t.items() if k.startswith("cli.")),
        "cli.write_bytes": c["write_bytes"],
        "cli.exit_nonzero": c["exit_nonzero"],
    }

