"""Config-driven experiment runner.

One JSON config document drives everything (see docs/config_schema.md);
subcommands: run, fixed-points, stability, rate.  Exit codes: 0 success,
1 usage/config error, 2 run or analysis error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, games
from .dynamics import (UpdateRule, _map_replicas, run, run_two_timescale,
                       trajectory_to_csv)
from .param_belief import Belief, UpdateSchedule, ols_solve

RULE_KINDS = ("simultaneous", "sequential", "linear", "fictitious_play")
SCHEDULE_KINDS = ("every_stage", "fixed_batch", "geometric", "two_timescale")
ESTIMATORS = ("bayes", "map", "ols")

TOP_KEYS = {"game", "rule", "schedule", "estimator", "init", "horizon",
            "seed", "seeds", "analysis", "output_dir"}

# analysis.stability fields by type; every one is optional.  Each number
# field maps to its range: the radii are >= 0, the threshold inputs eps_hat
# > 0 and gamma in (0, 1).
STABILITY_INTS = ("n_probe", "n_runs")
_RADIUS = (">= 0", lambda x: x >= 0.0)
STABILITY_FLOATS = {
    "eps": _RADIUS, "delta": _RADIUS, "eps1": _RADIUS, "delta1": _RADIUS,
    "eps_bar": _RADIUS, "eps_x": _RADIUS,
    "eps_hat": ("> 0", lambda x: x > 0.0),
    "gamma": ("in (0, 1)", lambda x: 0.0 < x < 1.0),
}
STABILITY_KEYS = STABILITY_INTS + tuple(STABILITY_FLOATS) + ("cluster",)


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    raw: dict
    game_id: str
    game: object
    rule: UpdateRule
    schedule: UpdateSchedule
    estimator: str
    theta1: np.ndarray
    q1: np.ndarray
    horizon: int
    seeds: list
    analysis: dict
    output_dir: str
    belief_grid: int
    config_hash: str = ""

    @property
    def master_seed(self):
        return self.seeds[0]

    @property
    def respond_to(self):
        """What the strategies respond to: the MAP estimate or the posterior."""
        return "map" if self.estimator == "map" else "posterior"


def _number_array(value):
    """A JSON list of numbers as a float array; None for anything else."""
    if not isinstance(value, list) or not all(map(_is_number, value)):
        return None
    return np.asarray(value, dtype=float)


def _floats(values):
    return tuple(float(x) for x in values)


def _as_given(value):
    """No conversion: the factory checks the JSON value itself."""
    return value


# id -> (factory, {override key: converter}, defaults for keys not given)
GAMES = {
    "cournot": (games.cournot, {"sigma": float}, {}),
    "zerosum": (games.zerosum_example, {"sigma": float}, {}),
    "investment": (games.investment, {"sigmas": _floats}, {}),
    "coordination_penalty": (games.coordination_penalty, {"sigma": float}, {}),
    "two_route_congestion": (games.two_route_congestion,
                             {"n_players": _as_given, "sigma": float}, {}),
    "affine": (games.affine_game, {"alpha": np.asarray, "beta": np.asarray,
                                   "sigma": float},
               {"alpha": [[-2.0, 1.0], [1.0, -2.0]], "beta": [1.0, 1.0],
                "sigma": 0.5}),
}
GAME_IDS = tuple(GAMES)


def _unknown_keys(spec, allowed, where, errors, noun="key(s)"):
    """Append one config error naming the keys of ``spec`` outside
    ``allowed``; true when there are any."""
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        errors.append("unknown %s %s %s; allowed: %s"
                      % (noun, ", ".join(map(repr, unknown)), where,
                         ", ".join(sorted(allowed))))
    return bool(unknown)


def _is_number(value):
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


def _build_game(game_id, overrides, errors):
    factory, converters, defaults = GAMES[game_id]
    if _unknown_keys(overrides, converters, "for game %r" % game_id, errors,
                     "override(s)"):
        return None
    try:
        kw = dict(defaults)
        kw.update((k, converters[k](v)) for k, v in overrides.items())
        return factory(**kw)
    except Exception as exc:  # bad override values
        errors.append("game overrides invalid: %s" % exc)
    return None


def _parse_rule(spec, errors):
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        errors.append("rule must be a kind string or an object")
        return UpdateRule.simultaneous()
    _unknown_keys(spec, ("kind", "alpha"), "in rule", errors)
    kind = spec.get("kind")
    if kind not in RULE_KINDS:
        errors.append("unknown rule kind %r" % kind)
        return UpdateRule.simultaneous()
    if kind == "linear":
        alpha = spec.get("alpha", "1/t")
        if alpha == "1/t":
            return UpdateRule.linear()
        if not _is_number(alpha):
            errors.append("linear alpha must be '1/t' or a constant in [0,1]")
            return UpdateRule.linear()
        if not 0.0 <= alpha <= 1.0:
            errors.append("linear alpha must lie in [0,1]")
            return UpdateRule.linear()
        a = float(alpha)
        return UpdateRule.linear(lambda t, _a=a: _a)
    return UpdateRule(kind)


def _parse_schedule(spec, errors):
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        errors.append("schedule must be a kind string or an object")
        return UpdateSchedule.every_stage()
    _unknown_keys(spec, ("kind", "batch", "p", "gap"), "in schedule",
                  errors)
    kind = spec.get("kind")
    if kind not in SCHEDULE_KINDS:
        errors.append("unknown schedule kind %r" % kind)
    elif kind == "fixed_batch":
        batch = spec.get("batch")
        if type(batch) is int and batch >= 1:
            return UpdateSchedule.fixed_batch(batch)
        errors.append("schedule.batch must be an integer >= 1")
    elif kind == "geometric":
        p = spec.get("p")
        if _is_number(p) and 0.0 < p <= 1.0:
            return UpdateSchedule.geometric(p)
        errors.append("schedule.p must be a number in (0, 1]")
    elif kind == "two_timescale":
        gap_fn = _gap_fn(spec.get("gap", "10t"))
        if gap_fn is not None:
            return UpdateSchedule.two_timescale(gap_fn)
        errors.append("schedule.gap must be an integer >= 1 or '<c>t' with "
                      "an integer c >= 1")
    return UpdateSchedule.every_stage()


def _gap_fn(gap):
    """The two_timescale gap t -> gap for an integer gap >= 1, or t -> c*t
    for "<c>t" with an integer c >= 1 ("t" is "1t"); None otherwise."""
    if type(gap) is int and gap >= 1:
        return lambda t, _g=gap: _g
    if isinstance(gap, str) and gap.endswith("t"):
        coef = gap[:-1] or "1"
        if coef.isascii() and coef.isdigit() and int(coef) >= 1:
            return lambda t, _c=int(coef): _c * t
    return None


def _check_stability(spec, errors):
    """Validate analysis.stability: counts >= 1, finite numbers in their
    ranges (STABILITY_FLOATS), a string cluster id and no unknown keys
    (bools are not numbers here)."""
    if not isinstance(spec, dict):
        errors.append("analysis.stability must be an object")
        return
    _unknown_keys(spec, STABILITY_KEYS, "in analysis.stability", errors)
    for key in STABILITY_INTS:
        value = spec.get(key, 1)
        if type(value) is not int or value < 1:
            errors.append("analysis.stability.%s must be an integer >= 1" % key)
    for key, (bound, holds) in STABILITY_FLOATS.items():
        if key not in spec:
            continue
        value = spec[key]
        if not (_is_number(value) and math.isfinite(value) and holds(value)):
            errors.append("analysis.stability.%s must be a finite number %s"
                          % (key, bound))
    if not isinstance(spec.get("cluster", ""), str):
        errors.append("analysis.stability.cluster must be a string")


def _check_rate(spec, game, errors):
    """Validate analysis.rate: an integer parameter index in [0, |S|) and
    an integer burn-in >= 0, both optional, and no other keys."""
    if not isinstance(spec, dict):
        errors.append("analysis.rate must be an object")
        return
    _unknown_keys(spec, ("burn_in", "param"), "in analysis.rate", errors)
    param = spec.get("param", 0)
    if type(param) is not int or param < 0 or (
            game is not None and param >= len(game.space)):
        n = "|S|" if game is None else len(game.space)
        errors.append("analysis.rate.param must be an integer in [0, %s)" % n)
    burn_in = spec.get("burn_in", 0)
    if type(burn_in) is not int or burn_in < 0:
        errors.append("analysis.rate.burn_in must be an integer >= 0")


def parse_config(text):
    """Parse and validate a config document; raises ConfigError listing every
    validation problem found (not just the first)."""
    errors = []
    try:
        raw = json.loads(text) if isinstance(text, str) else dict(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(["config is not valid JSON: %s" % exc])
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object, got %s"
                           % type(raw).__name__])
    unknown = set(raw) - TOP_KEYS
    for key in sorted(unknown):
        errors.append("unknown key %r" % key)

    game_spec = raw.get("game")
    if isinstance(game_spec, str):
        game_spec = {"id": game_spec}
    game = game_id = None
    if not isinstance(game_spec, dict):
        errors.append("game must be an id string or an object")
    elif game_spec.get("id") not in GAME_IDS:
        errors.append("unknown game id %r" % game_spec.get("id"))
    else:
        game_spec = dict(game_spec)
        game_id = game_spec.pop("id")
        game = _build_game(game_id, game_spec, errors)

    rule = _parse_rule(raw.get("rule", "simultaneous"), errors)
    schedule = _parse_schedule(raw.get("schedule", "every_stage"), errors)

    estimator = raw.get("estimator", "bayes")
    if estimator not in ESTIMATORS:
        errors.append("unknown estimator %r" % estimator)
    if estimator == "ols" and game_id != "affine":
        errors.append("estimator 'ols' requires the affine payoff game")
    if rule.kind == "fictitious_play" and game is not None \
            and game.kind != "finite":
        errors.append("fictitious_play requires a finite game")

    horizon = raw.get("horizon")
    if type(horizon) is not int or horizon < 1:
        errors.append("horizon must be a positive integer")
        horizon = 1

    if "seed" in raw and "seeds" in raw:
        errors.append("give either 'seed' or 'seeds', not both")
    seeds = []
    if "seeds" in raw:
        spec = raw["seeds"]
        if not isinstance(spec, dict) or not {"start", "count"} <= set(spec):
            errors.append("seeds must be {'start': int, 'count': int}")
        elif not _unknown_keys(spec, ("start", "count"), "in seeds", errors):
            start, count = spec["start"], spec["count"]
            start_ok = type(start) is int
            count_ok = type(count) is int and count >= 1
            if not start_ok:
                errors.append("seeds.start must be an integer")
            if not count_ok:
                errors.append("seeds.count must be an integer >= 1")
            if start_ok and count_ok:
                seeds = [start + k for k in range(count)]
    else:
        seed = raw.get("seed", 0)
        if type(seed) is not int:
            errors.append("seed must be an integer")
            seed = 0
        seeds = [seed]

    theta1 = q1 = None
    init = raw.get("init", {})
    if not isinstance(init, dict):
        errors.append("init must be an object")
        init = {}
    _unknown_keys(init, ("theta", "q"), "in init", errors)
    if game is not None:
        n = len(game.space)
        if "theta" in init:
            theta1 = _number_array(init["theta"])
            if theta1 is None:
                errors.append("init.theta must be a list of numbers")
            elif theta1.size != n:
                errors.append("initial belief has wrong length")
            elif not np.all(np.isfinite(theta1)):
                errors.append("initial belief entries must be finite")
            elif np.any(theta1 <= 0.0):
                errors.append(
                    "initial belief must have full support "
                    "(every entry strictly positive)"
                )
            elif abs(theta1.sum() - 1.0) > 1e-9:
                errors.append("initial belief must sum to 1")
        else:
            theta1 = np.full(n, 1.0 / n)
        if "q" in init:
            q1 = _number_array(init["q"])
            if q1 is None:
                errors.append("init.q must be a list of numbers")
            elif q1.size != game.q_dim:
                errors.append("initial strategy has wrong length")
            elif not np.all(np.isfinite(q1)):
                errors.append("initial strategy entries must be finite")
            elif not game.feasible(q1):
                errors.append("initial strategy outside the strategy set")
        else:
            q1 = game.box_center()

    analysis_spec = raw.get("analysis", {})
    if not isinstance(analysis_spec, dict):
        errors.append("analysis must be an object")
        analysis_spec = {}
    _unknown_keys(analysis_spec, ("fixed_points", "rate", "stability"),
                  "in analysis", errors)
    fixed_points_spec = analysis_spec.get("fixed_points", {})
    if not isinstance(fixed_points_spec, dict):
        errors.append("analysis.fixed_points must be an object")
        fixed_points_spec = {}
    _unknown_keys(fixed_points_spec, ("belief_grid",),
                  "in analysis.fixed_points", errors)
    belief_grid = fixed_points_spec.get("belief_grid", 51)
    if type(belief_grid) is not int or belief_grid < 2:
        errors.append("analysis.fixed_points.belief_grid must be an integer "
                      ">= 2")
    _check_stability(analysis_spec.get("stability", {}), errors)
    _check_rate(analysis_spec.get("rate", {}), game, errors)

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str) or not output_dir:
        errors.append("output_dir must be a non-empty string")

    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(
        raw=raw, game_id=game_id, game=game, rule=rule, schedule=schedule,
        estimator=estimator, theta1=theta1, q1=q1, horizon=horizon,
        seeds=seeds, analysis=analysis_spec, output_dir=output_dir,
        belief_grid=belief_grid,
    )
    cfg.config_hash = hashlib.sha256(
        json.dumps(raw, sort_keys=True).encode()
    ).hexdigest()
    return cfg


# ---------------------------------------------------------------------------
# Output helpers


def _write_json(path, payload, cfg):
    doc = analysis.report_document(payload)
    doc["config_hash"] = cfg.config_hash
    doc["master_seed"] = cfg.master_seed
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _clusters(cfg):
    return analysis.enumerate_fixed_points(cfg.game, cfg.belief_grid)


# ---------------------------------------------------------------------------
# Subcommands


def _configured_run(cfg, seed):
    """One run of the configured dynamics: rule, schedule and the estimator
    the strategies respond to."""
    init = (Belief.from_probs(cfg.theta1), cfg.q1)
    if cfg.schedule.kind == "two_timescale":
        return run_two_timescale(cfg.game, cfg.rule, cfg.schedule.gap_fn, init,
                                 cfg.horizon, seed, respond_to=cfg.respond_to)
    return run(cfg.game, cfg.rule, cfg.schedule, init, cfg.horizon, seed,
               respond_to=cfg.respond_to)


def _run_one_seed(cfg, seed, clusters):
    traj = _configured_run(cfg, seed)
    near = analysis.nearest_fixed_point(
        cfg.game, np.asarray(traj.summary["final_theta"]),
        np.asarray(traj.summary["final_q"]), clusters,
    )
    if near is not None:
        tag, dist, cert = near
        traj.summary["nearest_fixed_point"] = tag
        traj.summary["nearest_fixed_point_distance"] = dist
        if cert.is_complete_info:
            traj.summary["nearest_fixed_point"] = "complete_info"
    return traj


def _ols_experiment(cfg, seed):
    """OLS recovery on the affine game: sample payoffs at spread-out probe
    strategies under the truth, then solve for the coefficient vectors."""
    game = cfg.game
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = game.box_lo(), game.box_hi()
    # probes must span the strategy space affinely, else the design is
    # rank deficient (all-equal coordinates collapse the slope columns)
    probes = [lo, hi, 0.5 * (lo + hi)]
    for i in range(lo.size):
        corner = lo.copy()
        corner[i] = hi[i]
        probes.append(corner)
    s_star = game.space.true_index
    design = np.ones((cfg.horizon, game.q_dim + 1))
    responses = np.empty((cfg.horizon, game.n_players))
    for t in range(cfg.horizon):
        q = probes[t % len(probes)]
        design[t, :-1] = q
        responses[t] = games.sample_payoffs(game, s_star, q, rng)
    est = ols_solve(design, responses)
    # the parameter vector is [alpha.ravel(), beta]; per-player rows (a_i, b_i)
    vec = np.asarray(game.space.params[s_star])
    n, d = est.shape
    truth = np.hstack([vec[: n * (d - 1)].reshape(n, d - 1),
                       vec[n * (d - 1):][:, None]])
    return {
        "estimates": est.tolist(),
        "truth": truth.tolist(),
        "max_abs_error": float(np.max(np.abs(est - truth))),
        "n_records": cfg.horizon,
        "seed": seed,
    }


def cmd_run(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.estimator == "ols":
        results = [_ols_experiment(cfg, s) for s in cfg.seeds]
        _write_json(os.path.join(cfg.output_dir, "summary.json"),
                    {"ols_runs": results}, cfg)
        return 0
    clusters = _clusters(cfg) if cfg.game.analytic_eq is not None else []
    multi = len(cfg.seeds) > 1

    def write_seed(k):
        seed = cfg.seeds[k]
        traj = _run_one_seed(cfg, seed, clusters)
        suffix = "_%d" % seed if multi else ""
        trajectory_to_csv(
            traj, os.path.join(cfg.output_dir, "trajectory%s.csv" % suffix),
            config_hash=cfg.config_hash, master_seed=cfg.master_seed,
        )
        _write_json(os.path.join(cfg.output_dir, "summary%s.json" % suffix),
                    traj.summary, cfg)

    _map_replicas(write_seed, len(cfg.seeds))
    return 0


def cmd_fixed_points(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    clusters = _clusters(cfg)
    payload = {"clusters": [analysis.to_jsonable(c) for c in clusters]}
    if cfg.game.analytic_eq is not None:
        complete, counterexample = analysis.check_all_fixed_points_complete(
            cfg.game, seed=cfg.master_seed
        )
        payload["all_fixed_points_complete"] = complete
        payload["counterexample"] = counterexample
        payload["global_stability"] = analysis.check_global_stability(
            cfg.game, clusters, seed=cfg.master_seed,
            horizon=min(cfg.horizon, 20000),
        )
    _write_json(os.path.join(cfg.output_dir, "fixed_points.json"),
                payload, cfg)
    return 0


def cmd_stability(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    spec = cfg.analysis.get("stability", {})
    cluster_id = spec.get("cluster", "complete_info")
    # the probes and replicas sample the strategy box, which a finite game
    # lacks: box_lo() raises before the enumeration does any work
    cfg.game.box_lo()
    clusters = _clusters(cfg)
    match = [c for c in clusters if c.cluster_id == cluster_id]
    if not match:
        print("unknown cluster id %r; available: %s"
              % (cluster_id, [c.cluster_id for c in clusters]),
              file=sys.stderr)
        return 2
    cert = match[0].representative
    eps = float(spec.get("eps", 1.0 / 3.0))
    delta = float(spec.get("delta", 1.0))
    a2 = analysis.check_assumption2(
        cfg.game, cert, eps, delta,
        n_probe=int(spec.get("n_probe", 1000)), seed=cfg.master_seed,
    )
    thresholds = analysis.stability_thresholds(
        np.asarray(cert.belief), float(spec.get("eps_hat", 0.3)),
        float(spec.get("gamma", 0.9)),
    )
    report = analysis.monte_carlo_local_stability(
        cfg.game, cert,
        eps1=float(spec.get("eps1", 0.02)),
        delta1=float(spec.get("delta1", 0.02)),
        eps_bar=float(spec.get("eps_bar", 0.1)),
        eps_x=float(spec.get("eps_x", 0.1)),
        n_runs=int(spec.get("n_runs", 200)),
        horizon=cfg.horizon, seed=cfg.master_seed,
        rule=cfg.rule, schedule=cfg.schedule, respond_to=cfg.respond_to,
    )
    report.assumption2 = a2
    report.thresholds = thresholds
    payload = {"cluster": cluster_id, "report": analysis.to_jsonable(report)}
    _write_json(os.path.join(cfg.output_dir, "stability_report.json"),
                payload, cfg)
    return 0


def cmd_rate(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    spec = cfg.analysis.get("rate", {})
    s = spec.get("param", 0)
    burn_in = spec.get("burn_in", cfg.horizon // 10)

    def fit_seed(k):
        traj = _configured_run(cfg, cfg.seeds[k])
        slope, r2 = analysis.estimate_convergence_rate(traj, s, burn_in)
        return slope, r2, traj.summary["final_q"]

    fits = _map_replicas(fit_seed, len(cfg.seeds))
    slopes = [{"seed": seed, "slope": slope, "r2": r2}
              for seed, (slope, r2, _) in zip(cfg.seeds, fits)]
    q_limit = np.mean(np.asarray([final_q for _, _, final_q in fits]), axis=0)
    predicted = analysis.kl_divergence(
        cfg.game, cfg.game.space.true_index, s, q_limit
    )
    pooled = float(np.mean([x["slope"] for x in slopes]))
    payload = {
        "param": s,
        "per_seed": slopes,
        "pooled_slope": pooled,
        "limit_strategy": q_limit.tolist(),
        "predicted_minus_kl": -predicted if math.isfinite(predicted) else None,
    }
    if predicted <= 1e-6:
        payload["note"] = "equivalent-at-limit"
        payload["relative_error"] = None
    else:
        payload["relative_error"] = abs(pooled + predicted) / predicted
    _write_json(os.path.join(cfg.output_dir, "rate.json"), payload, cfg)
    return 0


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="beliefplay",
        description="Learning-dynamics experiment runner (config driven)",
    )
    parser.add_argument("command",
                        choices=["run", "fixed-points", "stability", "rate"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threads", type=int, help="accepted and ignored")
    parser.add_argument("--seed-override", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print("cannot read config: %s" % exc, file=sys.stderr)
        return 3

    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for err in exc.errors:
            print("config error: %s" % err, file=sys.stderr)
        return 1

    if cfg.estimator == "ols" and args.command in ("rate", "stability"):
        print("config error: estimator 'ols' is only supported by run, not "
              "by %s" % args.command, file=sys.stderr)
        return 1
    if args.out:
        cfg.output_dir = args.out
    if args.seed_override is not None:
        cfg.seeds = [args.seed_override]

    try:
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "fixed-points":
            return cmd_fixed_points(cfg)
        if args.command == "stability":
            return cmd_stability(cfg)
        return cmd_rate(cfg)
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # run/analysis failure
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
