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
from .dynamics import (RULE_KINDS, UpdateRule, _map_replicas, run,
                       trajectory_to_csv)
from .param_belief import SCHEDULE_KINDS, UpdateSchedule, ols_solve

ESTIMATORS = ("bayes", "map", "ols")

_BAD = object()  # what a field's reader returns for an invalid value
_REQUIRED = object()  # the default of a field that must be given


@dataclass(frozen=True)
class _Field:
    """One config field.  ``read`` maps its JSON value to the resolved value,
    or to _BAD; the error then reads "<label> must be <phrase>"."""
    read: object
    phrase: str
    default: object = _REQUIRED
    kind: str = None  # the rule or schedule kind that reads the field
    label: str = None  # default: the field's dotted path


def _is_number(value):
    """A JSON number: an int or a float, not a bool."""
    return type(value) in (int, float)


def _as_float(number):
    """A JSON number as a float; an int beyond the float range is +-inf."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def _integer(lo, hi=math.inf):
    """Reads an int in [lo, hi]; a bool or a float is not one."""
    return lambda value: (value if type(value) is int and lo <= value <= hi
                          else _BAD)


# a horizon or a seed count no machine can run: range() and array lengths
# stop at sys.maxsize
_COUNT = (_integer(1, sys.maxsize), "an integer in [1, %d]" % sys.maxsize)


def _finite(holds):
    """Reads a finite JSON number for which ``holds`` is true, as a float."""
    def read(value):
        x = _as_float(value) if _is_number(value) else math.nan
        return x if math.isfinite(x) and holds(x) else _BAD
    return read


def _radius(default):
    return _Field(_finite(lambda x: x >= 0.0), "a finite number >= 0", default)


# Every config field that holds one value, by block ("" is the top level).
# docs/config_schema.md tabulates the same fields.
FIELDS = {
    "": {
        "horizon": _Field(*_COUNT),
        "seed": _Field(_integer(0), "an integer >= 0", 0),
        "output_dir": _Field(
            lambda v: v if isinstance(v, str) and v else _BAD,
            "a non-empty string", "."),
    },
    "seeds": {
        "start": _Field(_integer(0), "an integer >= 0"),
        "count": _Field(*_COUNT),
    },
    "rule": {
        # [0,1] is checked by parse_config, whose error says "must lie in"
        "alpha": _Field(lambda v: v if v == "1/t" or _is_number(v) else _BAD,
                        "'1/t' or a constant in [0,1]", "1/t", kind="linear",
                        label="linear alpha"),
    },
    "schedule": {
        "batch": _Field(_integer(1), "an integer >= 1", kind="fixed_batch"),
        "p": _Field(_finite(lambda x: 0.0 < x <= 1.0), "a number in (0, 1]",
                    kind="geometric"),
        "gap": _Field(lambda v: _BAD if _gap_fn(v) is None else v,
                      "an integer >= 1 or '<c>t' with an integer c >= 1",
                      "10t", kind="two_timescale"),
    },
    "analysis.fixed_points": {
        "belief_grid": _Field(_integer(2), "an integer >= 2", 51),
    },
    "analysis.stability": {
        "cluster": _Field(lambda v: v if isinstance(v, str) else _BAD,
                          "a string", "complete_info"),
        # fewer than 8 probes leave an A2a radius bin empty
        "n_probe": _Field(_integer(8), "an integer >= 8", 1000),
        "n_runs": _Field(_integer(1), "an integer >= 1", 200),
        "eps": _radius(1.0 / 3.0),
        "delta": _radius(1.0),
        "eps1": _radius(0.02),
        "delta1": _radius(0.02),
        "eps_bar": _radius(0.1),
        "eps_x": _radius(0.1),
        "eps_hat": _Field(_finite(lambda x: x > 0.0), "a finite number > 0",
                          0.3),
        "gamma": _Field(_finite(lambda x: 0.0 < x < 1.0),
                        "a finite number in (0, 1)", 0.9),
    },
    "analysis.rate": {
        # parse_config checks param < |S| and turns burn_in None into
        # horizon // 10
        "param": _Field(_integer(0), "an integer in [0, {n_params})", 0),
        "burn_in": _Field(_integer(0), "an integer >= 0", None),
    },
}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    game: object
    rule: UpdateRule
    schedule: UpdateSchedule
    estimator: str
    theta1: np.ndarray
    q1: list  # init.q, or the box center, as floats
    horizon: int
    seeds: object  # [seed], or the range a seeds block gives
    analysis: dict  # the fixed_points, stability and rate blocks, resolved
    output_dir: str
    config_hash: str = ""

    @property
    def master_seed(self):
        return self.seeds[0]

    @property
    def respond_to(self):
        """What the strategies respond to: the MAP estimate or the posterior."""
        return "map" if self.estimator == "map" else "posterior"


def _numbers(value):
    return isinstance(value, list) and all(map(_is_number, value))


def _number_array(value):
    """A JSON list of numbers as a float array; None for anything else."""
    return np.asarray(list(map(_as_float, value))) if _numbers(value) else None


# The JSON type of a game override: what its error says it must be, and the
# check.  The factories check the ranges.
_NUMBER = ("a number", _is_number)
_NUMBERS = ("a list of numbers", _numbers)
_ROWS = ("a list of lists of numbers",
         lambda v: isinstance(v, list) and all(map(_numbers, v)))
_AS_GIVEN = ("anything", lambda v: True)  # the factory checks n_players

# id -> (factory, {override key: JSON type}, defaults for keys not given)
GAMES = {
    "cournot": (games.cournot, {"sigma": _NUMBER}, {}),
    "zerosum": (games.zerosum_example, {"sigma": _NUMBER}, {}),
    "investment": (games.investment, {"sigmas": _NUMBERS}, {}),
    "coordination_penalty": (games.coordination_penalty, {"sigma": _NUMBER},
                             {}),
    "two_route_congestion": (games.two_route_congestion,
                             {"n_players": _AS_GIVEN, "sigma": _NUMBER}, {}),
    "affine": (games.affine_game,
               {"alpha": _ROWS, "beta": _NUMBERS, "sigma": _NUMBER},
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


def _read_block(spec, path, errors, kind=None, extra=(), **context):
    """The config block at ``path`` with every FIELDS entry of that block
    (those of the rule or schedule ``kind``) checked when given and
    defaulted when not.  The ``extra`` keys are allowed and returned as
    given; any other key is an error.  A block that is not an object is an
    error and reads as {}.  ``context`` fills the phrases.  An invalid field
    reads as its default (None when required), so that the caller can go on
    collecting errors."""
    if not isinstance(spec, dict):
        errors.append("%s must be an object" % path)
        spec = {}
    fields = {key: field for key, field in FIELDS.get(path, {}).items()
              if field.kind in (None, kind)}
    if path:
        _unknown_keys(spec, set(fields).union(extra), "in " + path, errors)
    else:
        errors.extend("unknown key %r" % key for key in sorted(
            set(spec) - set(fields) - set(extra)))
    block = {key: spec[key] for key in extra if key in spec}
    for key, field in fields.items():
        value = field.read(spec[key]) if key in spec else field.default
        if value is _BAD or value is _REQUIRED:
            errors.append(_field_error(path, key, **context))
            value = None if field.default is _REQUIRED else field.default
        block[key] = value
    return block


def _field_error(path, key, **context):
    """The error of an invalid FIELDS entry: "<label> must be <phrase>"."""
    field = FIELDS[path][key]
    label = field.label or ("%s.%s" % (path, key) if path else key)
    return "%s must be %s" % (label, field.phrase.format(**context))


def _read_kind_block(spec, path, kinds, errors):
    """The rule or schedule block: a kind string, or an object whose kind
    selects the fields it reads.  None when it is neither."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        errors.append("%s must be a kind string or an object" % path)
        return None
    if spec.get("kind") not in kinds:
        errors.append("unknown %s kind %r" % (path, spec.get("kind")))
        return None
    return _read_block(spec, path, errors, kind=spec["kind"], extra=("kind",))


def _build_game(game_id, overrides, errors):
    factory, types, defaults = GAMES[game_id]
    if _unknown_keys(overrides, types, "for game %r" % game_id, errors,
                     "override(s)"):
        return None
    bad = ["game overrides invalid: %s must be %s" % (key, types[key][0])
           for key in sorted(overrides) if not types[key][1](overrides[key])]
    if bad:
        errors.extend(bad)
        return None
    try:
        return factory(**dict(defaults, **overrides))
    except Exception as exc:  # bad override values
        errors.append("game overrides invalid: %s" % exc)
    return None


def _gap_fn(gap):
    """The two_timescale gap t -> gap for an integer gap >= 1, or t -> c*t
    for "<c>t" with an integer c >= 1 ("t" is "1t"); None otherwise."""
    if type(gap) is int and gap >= 1:
        return lambda t, _g=gap: _g
    if isinstance(gap, str) and gap.endswith("t"):
        coef = gap[:-1] or "1"
        try:
            c = int(coef) if coef.isascii() and coef.isdigit() else 0
        except ValueError:  # more digits than int() converts
            c = 0
        if c >= 1:
            return lambda t, _c=c: _c * t
    return None


def parse_config(text):
    """Parse and validate a config document; raises ConfigError listing every
    validation problem found (not just the first)."""
    errors = []
    try:
        raw = json.loads(text) if isinstance(text, str) else dict(text)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ConfigError(["config is not valid JSON: %s" % exc])
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object, got %s"
                           % type(raw).__name__])
    top = _read_block(raw, "", errors, extra=(
        "game", "rule", "schedule", "estimator", "init", "seeds", "analysis"))

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

    rule = _read_kind_block(raw.get("rule", "simultaneous"), "rule",
                            RULE_KINDS, errors)
    if rule is not None and _is_number(rule.get("alpha")) \
            and not 0.0 <= rule["alpha"] <= 1.0:
        errors.append("linear alpha must lie in [0,1]")
    schedule = _read_kind_block(raw.get("schedule", "every_stage"),
                                "schedule", SCHEDULE_KINDS, errors)

    estimator = raw.get("estimator", "bayes")
    if estimator not in ESTIMATORS:
        errors.append("unknown estimator %r" % estimator)
    if estimator == "ols" and game_id != "affine":
        errors.append("estimator 'ols' requires the affine payoff game")
    if rule is not None and rule["kind"] == "fictitious_play" \
            and game is not None and game.kind != "finite":
        errors.append("fictitious_play requires a finite game")

    if "seed" in raw and "seeds" in raw:
        errors.append("give either 'seed' or 'seeds', not both")
    seeds = None
    if "seeds" in raw:
        spec = raw["seeds"]
        if not isinstance(spec, dict) or not {"start", "count"} <= set(spec):
            errors.append("seeds must be {'start': int, 'count': int}")
        else:
            seeds = _read_block(spec, "seeds", errors)

    theta1 = q1 = None
    init = _read_block(raw.get("init", {}), "init", errors,
                       extra=("theta", "q"))
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
                q1 = q1.tolist()
        else:
            q1 = game.box_center()

    names = ("fixed_points", "stability", "rate")
    blocks = _read_block(raw.get("analysis", {}), "analysis", errors, extra=names)
    n_params = "|S|" if game is None else len(game.space)
    analysis_spec = {
        name: _read_block(blocks.get(name, {}), "analysis." + name, errors,
                          n_params=n_params)
        for name in names}
    rate = analysis_spec["rate"]
    if game is not None and rate["param"] >= n_params:
        errors.append(_field_error("analysis.rate", "param",
                                   n_params=n_params))

    if errors:
        raise ConfigError(errors)
    if rate["burn_in"] is None:
        rate["burn_in"] = top["horizon"] // 10
    alpha = rule.get("alpha")
    cfg = ExperimentConfig(
        game=game,
        rule=UpdateRule(rule["kind"], None if alpha in (None, "1/t")
                        else lambda t, _a=float(alpha): _a),
        schedule=UpdateSchedule(
            schedule["kind"], batch_size=schedule.get("batch"),
            p=schedule.get("p"), gap_fn=_gap_fn(schedule.get("gap"))),
        estimator=estimator, theta1=theta1, q1=q1, horizon=top["horizon"],
        seeds=[top["seed"]] if seeds is None else
        range(seeds["start"], seeds["start"] + seeds["count"]),
        analysis=analysis_spec, output_dir=top["output_dir"],
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
    return analysis.enumerate_fixed_points(
        cfg.game, cfg.analysis["fixed_points"]["belief_grid"])


# ---------------------------------------------------------------------------
# Subcommands


def _configured_run(cfg, seed):
    """One run of the configured dynamics: rule, schedule and the estimator
    the strategies respond to."""
    return run(cfg.game, cfg.rule, cfg.schedule, (cfg.theta1, cfg.q1),
               cfg.horizon, seed, respond_to=cfg.respond_to)


def _ols_experiment(cfg, seed):
    """OLS recovery on the affine game: sample payoffs at spread-out probe
    strategies under the truth, then solve for the coefficient vectors."""
    game = cfg.game
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = game.box_lo(), game.box_hi()
    # probes must span the strategy space affinely, else the design is
    # rank deficient (all-equal coordinates collapse the slope columns)
    probes = [lo, hi, game.box_center()] + [
        lo[:i] + hi[i:i + 1] + lo[i + 1:] for i in range(len(lo))]
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
        traj = _configured_run(cfg, seed)
        summary = traj.summary
        if cfg.schedule.kind == "two_timescale":
            summary["eq_distance_at_updates"] = (
                analysis.eq_distances_at_updates(cfg.game, traj))
        near = analysis.nearest_fixed_point(
            cfg.game, summary["final_theta"], summary["final_q"], clusters)
        if near is not None:
            tag, dist, cert = near
            summary["nearest_fixed_point"] = (
                "complete_info" if cert.is_complete_info else tag)
            summary["nearest_fixed_point_distance"] = dist
        suffix = "_%d" % seed if multi else ""
        trajectory_to_csv(
            traj, os.path.join(cfg.output_dir, "trajectory%s.csv" % suffix),
            config_hash=cfg.config_hash, master_seed=cfg.master_seed,
        )
        _write_json(os.path.join(cfg.output_dir, "summary%s.json" % suffix),
                    summary, cfg)

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
            cfg.game, clusters, counterexample, seed=cfg.master_seed,
            horizon=min(cfg.horizon, 20000),
        )
    _write_json(os.path.join(cfg.output_dir, "fixed_points.json"),
                payload, cfg)
    return 0


def cmd_stability(cfg):
    spec = cfg.analysis["stability"]
    cluster_id = spec["cluster"]
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
    # a threshold error (eps_hat too large) comes before the costly work
    thresholds = analysis.stability_thresholds(
        np.asarray(cert.belief), spec["eps_hat"], spec["gamma"])
    # a failed check above leaves no directory behind; an unwritable one
    # still fails before the probes and the Monte Carlo
    os.makedirs(cfg.output_dir, exist_ok=True)
    a2 = analysis.check_assumption2(
        cfg.game, cert, spec["eps"], spec["delta"], n_probe=spec["n_probe"],
        seed=cfg.master_seed,
    )
    report = analysis.monte_carlo_local_stability(
        cfg.game, cert, eps1=spec["eps1"], delta1=spec["delta1"],
        eps_bar=spec["eps_bar"], eps_x=spec["eps_x"], n_runs=spec["n_runs"],
        horizon=cfg.horizon, seed=cfg.master_seed,
        rule=cfg.rule, schedule=cfg.schedule, respond_to=cfg.respond_to,
    )
    report.assumption2 = a2
    report.thresholds = thresholds
    payload = {"cluster": cluster_id, "report": analysis.to_jsonable(report)}
    _write_json(os.path.join(cfg.output_dir, "stability_report.json"),
                payload, cfg)
    return 0


def _path_mean_kl(game, traj, s, burn_in):
    """The mean of KL(s* || s) over the stages t > burn_in, each at its
    profile: the row q^t on a continuous game, the realized one-hot action
    profile on a finite one."""
    if traj.actions is None:
        profiles = traj.qs[burn_in:].tolist()
    else:
        profiles = []
        for actions in traj.actions[burn_in:].tolist():
            profile = [0.0] * game.q_dim
            for sl, a in zip(game.slices, actions):
                profile[sl.start + a] = 1.0
            profiles.append(profile)
    s_star = game.space.true_index
    return math.fsum(analysis.kl_divergence(game, s_star, s, profile)
                     for profile in profiles) / len(profiles)


def cmd_rate(cfg):
    s, burn_in = cfg.analysis["rate"]["param"], cfg.analysis["rate"]["burn_in"]

    def fit_seed(k):
        traj = _configured_run(cfg, cfg.seeds[k])
        slope, r2 = analysis.estimate_convergence_rate(traj, s, burn_in)
        return (slope, r2, traj.summary["final_q"],
                _path_mean_kl(cfg.game, traj, s, burn_in))

    fits = _map_replicas(fit_seed, len(cfg.seeds))
    slopes = [{"seed": seed, "slope": slope, "r2": r2}
              for seed, (slope, r2, _, _) in zip(cfg.seeds, fits)]
    q_limit = np.mean(np.asarray([fit[2] for fit in fits]), axis=0)
    # every seed runs the whole horizon, so the mean of the per-seed means
    # is the mean over all fitted stages
    predicted = float(np.mean([fit[3] for fit in fits]))
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
    os.makedirs(cfg.output_dir, exist_ok=True)
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
    burn_in = cfg.analysis["rate"]["burn_in"]
    if args.command == "rate" and burn_in > cfg.horizon - 2:
        # the fit needs at least 2 stages after the burn-in
        print("config error: analysis.rate.burn_in must be at most horizon - "
              "2 (%d at horizon %d) for rate, got %d"
              % (cfg.horizon - 2, cfg.horizon, burn_in), file=sys.stderr)
        return 1
    if args.out:
        cfg.output_dir = args.out

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
