"""Tests for the config-driven command line: validation (all errors at once),
defaults, reproducible outputs, exit codes, and agreement with the library."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefplay
from beliefplay import analysis, dynamics, games
from beliefplay.cli import FIELDS, ConfigError, main, parse_config
from beliefplay.dynamics import UpdateRule, run
from beliefplay.param_belief import UpdateSchedule


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {"game": "cournot", "horizon": 200, "seed": 3,
        "init": {"theta": [0.8, 0.2], "q": [1.0, 1.0]}}
NO_SEED = {k: v for k, v in BASE.items() if k != "seed"}
BAD_GAP = ("schedule.gap must be an integer >= 1 or '<c>t' with an integer "
           "c >= 1")


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_defaults():
    cfg = parse_config(json.dumps({"game": "investment", "horizon": 10}))
    assert cfg.rule.kind == "simultaneous"
    assert cfg.schedule.kind == "every_stage"
    assert cfg.estimator == "bayes"
    assert np.allclose(cfg.theta1, 1.0 / 3.0)
    assert np.array_equal(cfg.q1, [0.5, 0.5])
    assert cfg.seeds == [0]
    assert len(cfg.config_hash) == 64


def test_parse_collects_every_error():
    doc = {"game": "nonesuch", "rule": "warp", "schedule": {"kind": "odd"},
           "estimator": "mle", "horizon": -5, "seed": 1,
           "seeds": {"start": 0, "count": 2}, "typo_key": 1}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    text = "; ".join(err.value.errors)
    assert "unknown key 'typo_key'" in text
    assert "unknown game id" in text
    assert "unknown rule kind" in text
    assert "unknown schedule kind" in text
    assert "unknown estimator" in text
    assert "horizon must be an integer in [1, %d]" % sys.maxsize in text
    assert "either 'seed' or 'seeds'" in text
    assert len(err.value.errors) >= 7


def test_parse_rejects_boundary_belief():
    doc = {"game": "investment", "horizon": 10,
           "init": {"theta": [1.0, 0.0, 0.0]}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert any("full support" in e for e in err.value.errors)


def test_parse_rejects_belief_shape_and_sum():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"game": "investment", "horizon": 10,
                                 "init": {"theta": [0.5, 0.5]}}))
    assert any("wrong length" in e for e in err.value.errors)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"game": "investment", "horizon": 10,
                                 "init": {"theta": [0.5, 0.4, 0.4]}}))
    assert any("sum to 1" in e for e in err.value.errors)


@pytest.mark.parametrize("init, message", [
    ({"theta": [float("nan"), 0.5, 0.5]}, "initial belief entries must be "
                                          "finite"),
    ({"theta": [float("inf"), 0.5, 0.5]}, "initial belief entries must be "
                                          "finite"),
    ({"q": [float("nan"), 0.5]}, "initial strategy entries must be finite"),
    ({"q": [0.5, float("-inf")]}, "initial strategy entries must be finite"),
], ids=["theta_nan", "theta_inf", "q_nan", "q_inf"])
def test_run_rejects_non_finite_init(tmp_path, capsys, init, message):
    doc = {"game": "investment", "horizon": 10, "init": init,
           "output_dir": str(tmp_path)}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    assert "config error: %s" % message in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_parse_rejects_infeasible_strategy():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"game": "cournot", "horizon": 10,
                                 "init": {"q": [4.0, 1.0]}}))
    assert any("outside the strategy set" in e for e in err.value.errors)


def test_parse_estimator_and_rule_compatibility():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"game": "cournot", "horizon": 10,
                                 "estimator": "ols"}))
    assert any("affine" in e for e in err.value.errors)
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"game": "cournot", "horizon": 10,
                                 "rule": "fictitious_play"}))
    assert any("finite game" in e for e in err.value.errors)


def test_parse_rejects_unknown_game_override(tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"game": {"id": "cournot", "sigmas": [1.0]},
                                 "horizon": 10}))
    assert err.value.errors == [
        "unknown override(s) 'sigmas' for game 'cournot'; allowed: sigma"]
    cfg = write_config(tmp_path, {"game": {"id": "affine", "gamma": 1},
                                  "horizon": 10})
    assert main(["run", "--config", cfg]) == 1
    assert "allowed: alpha, beta, sigma" in capsys.readouterr().err


def test_parse_belief_grid():
    cfg = parse_config(json.dumps({"game": "cournot", "horizon": 10}))
    assert cfg.analysis["fixed_points"] == {"belief_grid": 51}
    doc = {"game": "cournot", "horizon": 10,
           "analysis": {"fixed_points": {"belief_grid": 11}}}
    assert parse_config(json.dumps(doc)).analysis["fixed_points"] == {
        "belief_grid": 11}


@pytest.mark.parametrize("fixed_points, field", [
    ({"belief_grid": 1}, "analysis.fixed_points.belief_grid"),
    ({"belief_grid": "x"}, "analysis.fixed_points.belief_grid"),
    ({"belief_grid": 2.7}, "analysis.fixed_points.belief_grid"),
    ({"belief_grid": True}, "analysis.fixed_points.belief_grid"),
    (5, "analysis.fixed_points"),
], ids=["below_two", "string", "float", "bool", "not_an_object"])
def test_fixed_points_rejects_bad_belief_grid(tmp_path, capsys, fixed_points,
                                              field):
    doc = {"game": "cournot", "horizon": 10, "output_dir": str(tmp_path),
           "analysis": {"fixed_points": fixed_points}}
    assert main(["fixed-points", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "config error: %s must be" % field in err
    assert not (tmp_path / "fixed_points.json").exists()


@pytest.mark.parametrize("game, message", [
    ({"id": "affine", "alpha": [[1, 2, 3]]}, "n x n"),
    ({"id": "affine", "beta": [1.0]}, "beta must have length 2"),
    ({"id": "affine", "alpha": [[-2.0, float("nan")], [1.0, -2.0]]},
     "must be finite"),
    ({"id": "cournot", "sigma": -1}, "sigma must be a finite number >= 0"),
    ({"id": "affine", "sigma": -1}, "sigma must be a finite number >= 0"),
    ({"id": "investment", "sigmas": [1.0, float("inf"), 1.0]},
     "sigmas must be a finite number >= 0"),
    ({"id": "two_route_congestion", "n_players": 0},
     "n_players must be an integer >= 1"),
    ({"id": "two_route_congestion", "n_players": True},
     "n_players must be an integer >= 1"),
    ({"id": "two_route_congestion", "n_players": 2.5},
     "n_players must be an integer >= 1"),
    ({"id": "cournot", "sigma": True}, "sigma must be a number"),
    ({"id": "cournot", "sigma": "0.5"}, "sigma must be a number"),
    ({"id": "investment", "sigmas": "123"}, "sigmas must be a list of numbers"),
    ({"id": "affine", "alpha": [[True, False], [False, True]]},
     "alpha must be a list of lists of numbers"),
    ({"id": "affine", "alpha": [[1e308, 1e308], [1e308, 1e308]]},
     "channel means must stay finite on [0, 1]^n"),
], ids=["affine_alpha_shape", "affine_beta_length", "affine_nan",
        "cournot_negative_sigma", "affine_negative_sigma", "investment_inf",
        "routing_zero_players", "routing_bool_players",
        "routing_float_players", "cournot_bool_sigma", "cournot_string_sigma",
        "investment_string_sigmas", "affine_bool_alpha",
        "affine_overflowing_means"])
def test_run_rejects_bad_game_overrides(tmp_path, capsys, game, message):
    doc = {"game": game, "horizon": 10, "output_dir": str(tmp_path)}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "config error: game overrides invalid" in err and message in err
    assert not (tmp_path / "summary.json").exists()


def test_parse_accepts_every_stability_field():
    spec = {"cluster": "theta_dagger", "eps": 1, "delta": 1.0, "eps1": 0.02,
            "delta1": 0.02, "eps_bar": 0.1, "eps_x": 0.1, "eps_hat": 0.3,
            "gamma": 0.9, "n_runs": 3, "n_probe": 10}
    cfg = parse_config(json.dumps({"game": "cournot", "horizon": 10,
                                   "analysis": {"stability": spec}}))
    assert cfg.analysis["stability"] == spec
    # the radii are read as floats, so "eps": 1 is reported as 1.0
    assert {k for k, v in cfg.analysis["stability"].items()
            if type(v) is float} == set(spec) - {"cluster", "n_runs", "n_probe"}


@pytest.mark.parametrize("stability, message", [
    ({"n_probe": "x"}, "analysis.stability.n_probe must be an integer >= 8"),
    ({"n_probe": 2.5}, "analysis.stability.n_probe must be an integer >= 8"),
    # 7 probes leave the last of the 8 A2a radius bins empty
    ({"n_probe": 7}, "analysis.stability.n_probe must be an integer >= 8"),
    ({"n_runs": 0}, "analysis.stability.n_runs must be an integer >= 1"),
    ({"n_runs": True}, "analysis.stability.n_runs must be an integer >= 1"),
    ({"eps": "a"}, "analysis.stability.eps must be a finite number"),
    ({"gamma": float("nan")}, "analysis.stability.gamma must be a finite "
                              "number"),
    ({"eps_bar": float("inf")}, "analysis.stability.eps_bar must be a finite "
                                "number"),
    ({"delta1": False}, "analysis.stability.delta1 must be a finite number"),
    ({"eps1": -0.1}, "analysis.stability.eps1 must be a finite number >= 0"),
    ({"gamma": 1.5},
     "analysis.stability.gamma must be a finite number in (0, 1)"),
    ({"cluster": 3}, "analysis.stability.cluster must be a string"),
    ({"n_prob": 10}, "unknown key(s) 'n_prob' in analysis.stability; "
                     "allowed: cluster, delta, delta1, eps, eps1, eps_bar, "
                     "eps_hat, eps_x, gamma, n_probe, n_runs"),
    (5, "analysis.stability must be an object"),
], ids=["n_probe_string", "n_probe_float", "n_probe_seven", "n_runs_zero", "n_runs_bool",
        "eps_string", "gamma_nan", "eps_bar_inf", "delta1_bool",
        "eps1_negative", "gamma_above_1", "cluster_not_string", "unknown_key", "not_an_object"])
def test_stability_rejects_bad_analysis_stability(tmp_path, capsys, stability,
                                                  message):
    doc = {"game": "cournot", "horizon": 10, "output_dir": str(tmp_path),
           "analysis": {"stability": stability}}
    assert main(["stability", "--config", write_config(tmp_path, doc)]) == 1
    assert "config error: %s" % message in capsys.readouterr().err
    assert not (tmp_path / "stability_report.json").exists()


def test_parse_rule_and_schedule_options():
    cfg = parse_config(json.dumps({
        "game": "cournot", "horizon": 10,
        "rule": {"kind": "linear", "alpha": 0.25},
        "schedule": {"kind": "fixed_batch", "batch": 4},
    }))
    assert cfg.rule.kind == "linear"
    assert cfg.rule.alpha_schedule(99) == 0.25
    assert cfg.schedule.kind == "fixed_batch" and cfg.schedule.batch_size == 4
    cfg = parse_config(json.dumps({
        "game": "cournot", "horizon": 10,
        "schedule": {"kind": "two_timescale", "gap": "5t"},
    }))
    assert cfg.schedule.gap_fn(3) == 15
    for gap, stage_gap in ((3, 3), ("t", 4), ("10t", 40)):
        cfg = parse_config(json.dumps({
            "game": "cournot", "horizon": 10,
            "schedule": {"kind": "two_timescale", "gap": gap},
        }))
        assert cfg.schedule.gap_fn(4) == stage_gap
    cfg = parse_config(json.dumps({
        "game": "cournot", "horizon": 10,
        "rule": {"kind": "linear", "alpha": 0},
        "schedule": {"kind": "geometric", "p": 1},
    }))
    assert cfg.rule.alpha_schedule(5) == 0.0 and cfg.schedule.p == 1.0


def test_parse_seed_range():
    cfg = parse_config(json.dumps({"game": "cournot", "horizon": 10,
                                   "seeds": {"start": 4, "count": 3}}))
    assert list(cfg.seeds) == [4, 5, 6]
    assert cfg.master_seed == 4


@pytest.mark.parametrize("command", ["run", "rate"])
@pytest.mark.parametrize("count", [0, -2, True, 2.5, "3"],
                         ids=["zero", "negative", "bool", "float", "string"])
def test_bad_seed_count_is_a_config_error(tmp_path, capsys, command, count):
    doc = {"game": "investment", "horizon": 50, "output_dir": str(tmp_path),
           "seeds": {"start": 0, "count": count}}
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    assert "config error: seeds.count must be an integer in [1, %d]" \
        % sys.maxsize in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("command", ["run", "fixed-points"])
@pytest.mark.parametrize("doc, field", [
    ({"seeds": {"start": 0, "count": 10 ** 30}}, "seeds.count"),
    ({"horizon": 10 ** 30}, "horizon"),
    ({"seeds": {"start": 0, "count": sys.maxsize + 1}}, "seeds.count"),
    ({"horizon": sys.maxsize + 1}, "horizon"),
], ids=["count_1e30", "horizon_1e30", "count_maxsize_plus_1",
        "horizon_maxsize_plus_1"])
def test_huge_counts_are_config_errors(tmp_path, capsys, command, doc, field):
    out = tmp_path / "out"
    doc = dict({"game": "cournot", "horizon": 10, "output_dir": str(out)},
               **doc)
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: %s must be an integer in [1, %d]"
        % (field, sys.maxsize)]
    assert not out.exists()


def test_parse_accepts_counts_up_to_maxsize():
    cfg = parse_config(json.dumps({"game": "cournot", "horizon": sys.maxsize,
                                   "seeds": {"start": 0,
                                             "count": sys.maxsize}}))
    assert cfg.horizon == sys.maxsize
    assert len(cfg.seeds) == sys.maxsize


@pytest.mark.parametrize("command", ["run", "rate"])
@pytest.mark.parametrize("seeds, message", [
    ({"seeds": {"start": 2.7, "count": 2}},
     "seeds.start must be an integer >= 0"),
    ({"seeds": {"start": "5", "count": 2}},
     "seeds.start must be an integer >= 0"),
    ({"seeds": {"start": True, "count": 2}},
     "seeds.start must be an integer >= 0"),
    ({"seeds": {"start": -3, "count": 2}},
     "seeds.start must be an integer >= 0"),
    ({"seed": True}, "seed must be an integer >= 0"),
    ({"seed": -1}, "seed must be an integer >= 0"),
], ids=["start_float", "start_string", "start_bool", "start_negative",
        "seed_bool", "seed_negative"])
def test_bad_seed_is_a_config_error(tmp_path, capsys, command, seeds,
                                    message):
    doc = dict({"game": "investment", "horizon": 50,
                "output_dir": str(tmp_path)}, **seeds)
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: " + message]
    assert list(tmp_path.glob("*.json")) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("doc, message", [
    ([BASE], "config must be a JSON object, got list"),
    (dict(BASE, game=5), "game must be an id string or an object"),
    (dict(BASE, rule=5), "rule must be a kind string or an object"),
    (dict(BASE, schedule=[1]), "schedule must be a kind string or an object"),
    (dict(BASE, init={"theta": "ab"}), "init.theta must be a list of numbers"),
    (dict(BASE, init={"q": ["a", 1.0]}), "init.q must be a list of numbers"),
    (dict(BASE, horizon=True),
     "horizon must be an integer in [1, %d]" % sys.maxsize),
    (dict(NO_SEED, seeds={"start": 0, "count": 2, "extra": 1}),
     "unknown key(s) 'extra' in seeds; allowed: count, start"),
    (dict(BASE, init={"theta": [0.5, 0.5], "typo": 1}),
     "unknown key(s) 'typo' in init; allowed: q, theta"),
    (dict(BASE, init="random"), "init must be an object"),
    (dict(BASE, rule={"kind": "linear", "step": 0.5}),
     "unknown key(s) 'step' in rule; allowed: alpha, kind"),
    (dict(BASE, rule={"kind": "linear", "alpha": True}),
     "linear alpha must be '1/t' or a constant in [0,1]"),
    (dict(BASE, schedule={"kind": "fixed_batch", "batch": 2, "size": 3}),
     "unknown key(s) 'size' in schedule; allowed: batch, kind"),
    (dict(BASE, rule={"kind": "simultaneous", "alpha": "junk"}),
     "unknown key(s) 'alpha' in rule; allowed: kind"),
    (dict(BASE, schedule={"kind": "fixed_batch", "batch": 2, "p": "junk",
                          "gap": []}),
     "unknown key(s) 'gap', 'p' in schedule; allowed: batch, kind"),
    (dict(BASE, schedule={"kind": "every_stage", "batch": -4}),
     "unknown key(s) 'batch' in schedule; allowed: kind"),
    (dict(BASE, schedule={"kind": "fixed_batch", "batch": True}),
     "schedule.batch must be an integer >= 1"),
    (dict(BASE, schedule={"kind": "fixed_batch", "batch": 2.7}),
     "schedule.batch must be an integer >= 1"),
    (dict(BASE, schedule={"kind": "fixed_batch", "batch": "3"}),
     "schedule.batch must be an integer >= 1"),
    (dict(BASE, schedule={"kind": "geometric", "p": True}),
     "schedule.p must be a number in (0, 1]"),
    (dict(BASE, schedule={"kind": "two_timescale", "gap": True}), BAD_GAP),
    (dict(BASE, schedule={"kind": "two_timescale", "gap": "0t"}), BAD_GAP),
    (dict(BASE, schedule={"kind": "two_timescale", "gap": -2}), BAD_GAP),
    (dict(BASE, schedule={"kind": "two_timescale", "gap": 2.5}), BAD_GAP),
    (dict(BASE, output_dir=5), "output_dir must be a non-empty string"),
    (dict(BASE, output_dir=""), "output_dir must be a non-empty string"),
    (dict(BASE, analysis={"rate": 5}), "analysis.rate must be an object"),
    (dict(BASE, analysis={"rate": {"param": 9}}),
     "analysis.rate.param must be an integer in [0, 2)"),
    (dict(BASE, analysis={"rate": {"param": True}}),
     "analysis.rate.param must be an integer in [0, 2)"),
    (dict(BASE, analysis={"rate": {"burn_in": "x"}}),
     "analysis.rate.burn_in must be an integer >= 0"),
    (dict(BASE, analysis={"rate": {"burn_in": 10, "params": 1}}),
     "unknown key(s) 'params' in analysis.rate; allowed: burn_in, param"),
    (dict(BASE, analysis={"stabilty": {"n_runs": 0}}),
     "unknown key(s) 'stabilty' in analysis; allowed: fixed_points, rate, "
     "stability"),
    (dict(BASE, analysis={"fixed_points": {"belief_grid": 11, "grid": 5}}),
     "unknown key(s) 'grid' in analysis.fixed_points; allowed: belief_grid"),
    (dict(BASE, analysis={"stability": {"eps1": -0.1}}),
     "analysis.stability.eps1 must be a finite number >= 0"),
    (dict(BASE, analysis={"stability": {"eps": -0.1}}),
     "analysis.stability.eps must be a finite number >= 0"),
    (dict(BASE, analysis={"stability": {"eps_bar": -0.1}}),
     "analysis.stability.eps_bar must be a finite number >= 0"),
    (dict(BASE, analysis={"stability": {"delta": -1}}),
     "analysis.stability.delta must be a finite number >= 0"),
    (dict(BASE, analysis={"stability": {"delta1": -0.02}}),
     "analysis.stability.delta1 must be a finite number >= 0"),
    (dict(BASE, analysis={"stability": {"eps_x": -0.1}}),
     "analysis.stability.eps_x must be a finite number >= 0"),
    (dict(BASE, analysis={"stability": {"gamma": 1.5}}),
     "analysis.stability.gamma must be a finite number in (0, 1)"),
    (dict(BASE, analysis={"stability": {"gamma": 0}}),
     "analysis.stability.gamma must be a finite number in (0, 1)"),
    (dict(BASE, analysis={"stability": {"eps_hat": -0.3}}),
     "analysis.stability.eps_hat must be a finite number > 0"),
    (dict(BASE, analysis={"stability": {"eps_hat": 0.0}}),
     "analysis.stability.eps_hat must be a finite number > 0"),
], ids=["top_level_list", "game_number", "rule_number", "schedule_list",
        "theta_string", "q_non_numeric", "horizon_bool", "seeds_extra_key",
        "init_typo", "init_random", "rule_unknown_key", "alpha_bool",
        "schedule_unknown_key", "alpha_unread", "p_gap_unread",
        "batch_unread", "batch_bool", "batch_float", "batch_string",
        "p_bool", "gap_bool", "gap_zero_t", "gap_negative", "gap_float",
        "output_dir_number", "output_dir_empty", "rate_not_object",
        "rate_param_range", "rate_param_bool", "rate_burn_in_string",
        "rate_unknown_key", "analysis_unknown_key",
        "fixed_points_unknown_key", "eps1_negative", "eps_negative",
        "eps_bar_negative", "delta_negative", "delta1_negative", "eps_x_negative",
        "gamma_above_1", "gamma_zero", "eps_hat_negative", "eps_hat_zero"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, doc, message):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: " + message]
    assert not out.exists()


@pytest.mark.parametrize("command", ["rate", "stability"])
def test_ols_estimator_only_runs(tmp_path, capsys, command):
    doc = {"game": "affine", "estimator": "ols", "horizon": 200}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: estimator 'ols' is only supported by run, not by %s"
        % command]
    assert not out.exists()


@pytest.mark.parametrize("horizon, rate, burn_in", [
    (3000, {"burn_in": 5000}, 5000), (1, {}, 0), (50, {"burn_in": 49}, 49),
], ids=["burn_in_past_horizon", "horizon_1", "one_stage_left"])
def test_rate_burn_in_must_leave_two_stages(tmp_path, capsys, horizon, rate,
                                            burn_in):
    # the fit needs 2 stages after the burn-in: anything less is refused
    # before any run, not after every seed has run
    doc = {"game": "cournot", "horizon": horizon,
           "seeds": {"start": 0, "count": 4}, "analysis": {"rate": rate}}
    out = tmp_path / "out"
    assert main(["rate", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: analysis.rate.burn_in must be at most horizon - 2 "
        "(%d at horizon %d) for rate, got %d"
        % (horizon - 2, horizon, burn_in)]
    assert not out.exists()


def test_rate_fits_the_last_two_stages(tmp_path):
    doc = {"game": "cournot", "horizon": 50, "seed": 0,
           "analysis": {"rate": {"burn_in": 48}}}
    out = tmp_path / "out"
    assert main(["rate", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    assert (out / "rate.json").exists()


def test_rate_fits_a_belief_that_underflows_before_burn_in(tmp_path):
    # on Cournot theta(1) underflows to 0 at stage 1673 of seed 0, before
    # a burn_in of 2000; its log does not, and the fit reads the log
    doc = {"game": "cournot", "horizon": 3000, "seed": 0,
           "analysis": {"rate": {"param": 1, "burn_in": 2000}}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
    slope = json.loads((out / "rate.json").read_text())["per_seed"][0]["slope"]
    assert math.isfinite(slope) and slope < 0.0


def test_rate_on_a_noiseless_channel_is_a_run_error(tmp_path, capsys):
    # with sigma 0 one observation rules parameter 1 out: log theta(1) is
    # -inf, which has no rate
    doc = {"game": {"id": "cournot", "sigma": 0}, "horizon": 200, "seed": 0,
           "analysis": {"rate": {"param": 1}}}
    out = tmp_path / "out"
    assert main(["rate", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: log theta(1) is -inf at stage 21 of the fitted range: an "
        "observation ruled the parameter out, so its belief has no decay "
        "rate to fit"]
    assert not out.exists()


@pytest.mark.parametrize("game, param, horizon, seeds, max_error", [
    ("cournot", 1, 20000, 3, 0.05),
    ("coordination_penalty", 1, 2000, 1, 0.05),
    ("coordination_penalty", 1, 20000, 1, None),
    ("investment", 0, 20000, 1, None),
], ids=["cournot", "coordination-2000", "coordination-20000", "investment"])
def test_rate_fits_past_underflow_and_predicts_along_the_path(
        tmp_path, game, param, horizon, seeds, max_error):
    # the default burn_in (horizon // 10) lies past the stage at which
    # theta(param) underflows to 0 on each of these; coordination_penalty
    # cycles with period 2, so only the path mean of KL predicts its slope
    doc = {"game": game, "horizon": horizon,
           "seeds": {"start": 0, "count": seeds},
           "analysis": {"rate": {"param": param}}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rate", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
    report = json.loads((out / "rate.json").read_text())
    assert report["relative_error"] is not None
    if max_error is not None:
        assert report["relative_error"] <= max_error


def test_python_m_top_level_list_has_no_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(beliefplay.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "beliefplay", "run", "--config",
         write_config(tmp_path, [1])],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "config error: config must be a JSON object, got list\n"


# Every field of the table by its dotted path, and every top-level key.
FIELD_PATHS = ["%s.%s" % (block, key) if block else key
               for block, fields in FIELDS.items() for key in fields]
TOP_LEVEL = ("game", "rule", "schedule", "estimator", "init", "horizon",
             "seed", "seeds", "analysis", "output_dir")
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-1, 0, 1, 2, 10**30, -10**30, 10**400, -0.5, 0.5])
    | st.text(max_size=6)
    | st.sampled_from(["", "1/t", "t", "0t", "10t", "cournot", "linear"]))
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def doc_with(path, value):
    """A valid config with ``value`` put at ``path`` (the rule or schedule
    kind set to the one that reads the field)."""
    doc = {"game": "cournot", "horizon": 10}
    *blocks, key = path.split(".")
    node = doc
    for name in blocks:
        node = node.setdefault(name, {})
    if blocks == ["seeds"]:
        node.update(start=0, count=1)
    field = FIELDS.get(".".join(blocks), {}).get(key)
    if field is not None and field.kind is not None:
        node["kind"] = field.kind
    node[key] = value
    return doc


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FIELD_PATHS + list(TOP_LEVEL)), JSON_VALUES)
def test_any_json_value_gives_a_config_or_a_config_error(path, value):
    text = json.dumps(doc_with(path, value))
    try:
        parse_config(text)
    except ConfigError:
        pass
    else:
        return  # a valid config; nothing is run
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", "--config", config, "--out", out]) == 1
        lines = err.getvalue().splitlines()
        assert lines and all(line.startswith("config error: ")
                             for line in lines)
        assert not os.path.exists(out)


def test_schema_doc_names_every_field():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "config_schema.md")) as fh:
        doc = fh.read()
    assert [path for path in FIELD_PATHS if "`%s`" % path not in doc] == []


def test_schema_doc_names_every_summary_key(tmp_path):
    doc = {"game": "investment", "horizon": 300, "output_dir": str(tmp_path),
           "schedule": {"kind": "two_timescale", "gap": "3t"}}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {"eq_distance_at_updates", "nearest_fixed_point"} <= set(summary)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "docs", "config_schema.md")) as fh:
        text = fh.read()
    assert [key for key in summary if "`%s`" % key not in text] == []


def test_parse_invalid_json():
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert "not valid JSON" in err.value.errors[0]


def test_config_hash_tracks_content():
    a = parse_config(json.dumps({"game": "cournot", "horizon": 10}))
    b = parse_config(json.dumps({"game": "cournot", "horizon": 10}))
    c = parse_config(json.dumps({"game": "cournot", "horizon": 11}))
    assert a.config_hash == b.config_hash != c.config_hash


# ---------------------------------------------------------------------------
# Subcommands end to end


def test_run_outputs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, dict(BASE))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a_csv = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b_csv = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a_csv == b_csv
    a_sum = (tmp_path / "a" / "summary.json").read_bytes()
    b_sum = (tmp_path / "b" / "summary.json").read_bytes()
    assert a_sum == b_sum


def test_run_matches_library(tmp_path):
    cfg_path = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path)))
    assert main(["run", "--config", cfg_path]) == 0
    lib = run(parse_config(json.dumps(BASE)).game, UpdateRule.simultaneous(),
              UpdateSchedule.every_stage(),
              ([0.8, 0.2], np.asarray([1.0, 1.0])),
              BASE["horizon"], seed=3)
    rows = (tmp_path / "trajectory.csv").read_text().strip().split("\n")[2:]
    assert len(rows) == lib.horizon
    for t, row in enumerate(rows):
        cells = [float(x) for x in row.split(",")]
        assert np.array_equal(cells[1:3], lib.thetas[t])
        assert np.array_equal(cells[3:5], lib.qs[t])
        assert cells[5] == lib.cs[t][0]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == "beliefplay/report-v1"
    assert summary["final_q"] == lib.summary["final_q"]
    assert "config_hash" in summary and summary["master_seed"] == 3


def test_run_multi_seed_files(tmp_path):
    doc = dict(BASE, output_dir=str(tmp_path))
    del doc["seed"]
    doc["seeds"] = {"start": 0, "count": 2}
    doc["horizon"] = 50
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    for s in (0, 1):
        assert (tmp_path / ("trajectory_%d.csv" % s)).exists()
        assert (tmp_path / ("summary_%d.json" % s)).exists()


def test_out_flag(tmp_path):
    cfg = write_config(tmp_path, dict(BASE, horizon=50))
    out = tmp_path / "elsewhere"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == BASE["seed"]


def test_seed_override_flag_is_a_usage_error(tmp_path, capsys):
    # the config's seed is the one way to set the seed
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, BASE),
                 "--out", str(out), "--seed-override", "5"]) == 1
    assert "unrecognized arguments: --seed-override 5" \
        in capsys.readouterr().err
    assert not out.exists()


def test_fixed_points_subcommand(tmp_path):
    cfg = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path)))
    assert main(["fixed-points", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "fixed_points.json").read_text())
    ids = sorted(c["cluster_id"] for c in doc["clusters"])
    assert ids == ["complete_info", "theta_dagger"]
    assert doc["all_fixed_points_complete"] is False
    assert doc["global_stability"]["verdict"] == "not_globally_stable"
    assert doc["global_stability"]["witness"]["cluster"] is True


def test_completeness_counterexample_is_a_witness(tmp_path):
    # at an even grid the scan misses the belief-frozen point (1/2, 1/2),
    # so no cluster holds a witness; the completeness check still finds it
    doc = dict(BASE, output_dir=str(tmp_path),
               analysis={"fixed_points": {"belief_grid": 50}})
    assert main(["fixed-points", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads((tmp_path / "fixed_points.json").read_text())
    assert out["all_fixed_points_complete"] is False
    assert out["counterexample"] == [[0.5, 0.5], [0.5, 0.5]]
    glob = out["global_stability"]
    assert glob["verdict"] == "not_globally_stable"
    assert glob["witness"] == {"belief": [0.5, 0.5], "q": [0.5, 0.5],
                               "cluster": False}


def test_counterexample_witness_runs_no_random_start(tmp_path, monkeypatch):
    # the completeness counterexample decides the verdict, so none of the 50
    # random starts runs; the spy sees every run with one usable CPU
    calls = []
    real_run = analysis.run

    def spy(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", spy)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    doc = dict(BASE, output_dir=str(tmp_path),
               analysis={"fixed_points": {"belief_grid": 50}})
    assert main(["fixed-points", "--config", write_config(tmp_path, doc)]) == 0
    glob = json.loads((tmp_path / "fixed_points.json").read_text())[
        "global_stability"]
    assert glob["witness"]["cluster"] is False
    assert (glob["n_converged"], glob["n_runs"]) == (None, 0)
    assert calls == []


def test_rate_subcommand(tmp_path):
    doc = {"game": "investment", "horizon": 800,
           "seeds": {"start": 0, "count": 2},
           "analysis": {"rate": {"param": 0, "burn_in": 100}},
           "output_dir": str(tmp_path)}
    assert main(["rate", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads((tmp_path / "rate.json").read_text())
    assert out["param"] == 0
    assert len(out["per_seed"]) == 2
    assert out["pooled_slope"] < 0.0
    assert out["relative_error"] is not None


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")[2:]
    return np.asarray([[float(x) for x in line.split(",")] for line in lines])


def test_run_map_two_timescale_matches_library(tmp_path):
    doc = dict(BASE, estimator="map", output_dir=str(tmp_path),
               schedule={"kind": "two_timescale", "gap": "2t"})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    game = parse_config(json.dumps(BASE)).game
    lib = run(game, UpdateRule.simultaneous(),
              UpdateSchedule.two_timescale(lambda t: 2 * t),
              ([0.8, 0.2], np.asarray([1.0, 1.0])), BASE["horizon"], seed=3,
              respond_to="map")
    rows = read_csv_rows(tmp_path / "trajectory.csv")
    assert np.array_equal(rows[:, 1:3], lib.thetas)
    assert np.array_equal(rows[:, 3:5], lib.qs)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["eq_distance_at_updates"] == [
        list(x) for x in analysis.eq_distances_at_updates(game, lib)]


def test_rate_computes_no_equilibrium_set(tmp_path, monkeypatch):
    # the fit reads the beliefs alone, on a two-timescale schedule too; run
    # records EQ(theta) distances at the updates, so the counter is live
    calls = []

    def counted(*args):
        calls.append(args)
        return games.equilibrium_set(*args)

    for module in (dynamics, analysis):
        monkeypatch.setattr(module, "equilibrium_set", counted, raising=False)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    doc = {"game": "cournot", "horizon": 200, "output_dir": str(tmp_path),
           "seeds": {"start": 1, "count": 2},
           "schedule": {"kind": "two_timescale", "gap": "2t"}}
    cfg = write_config(tmp_path, doc)
    assert main(["rate", "--config", cfg]) == 0
    assert calls == []
    assert main(["run", "--config", cfg]) == 0
    assert calls


@pytest.mark.parametrize("game_id", ["coordination_penalty",
                                     "two_route_congestion"])
def test_rate_predicts_the_path_mean_of_kl(tmp_path, game_id):
    # the prediction is -KL(s* || s) averaged over the fitted stages and
    # the seeds, at q^t on a continuous game and at the realized one-hot
    # action profile on a finite one
    doc = {"game": game_id, "horizon": 300, "seeds": {"start": 4, "count": 2},
           "analysis": {"rate": {"param": 1, "burn_in": 30}},
           "output_dir": str(tmp_path)}
    assert main(["rate", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads((tmp_path / "rate.json").read_text())
    game = getattr(games, game_id)()
    kls = []
    for seed in (4, 5):
        traj = run(game, UpdateRule.simultaneous(),
                   UpdateSchedule.every_stage(),
                   ([1.0 / len(game.space)] * len(game.space),
                    game.box_center()), 300, seed)
        for t in range(31, 301):
            profile = traj.qs[t - 1]
            if traj.actions is not None:
                profile = np.zeros(game.q_dim)
                for sl, a in zip(game.slices, traj.actions[t - 1]):
                    profile[sl.start + a] = 1.0
            kls.append(analysis.kl_divergence(
                game, game.space.true_index, 1, profile.tolist()))
    assert math.isclose(out["predicted_minus_kl"], -float(np.mean(kls)),
                        rel_tol=1e-12)


def test_rate_map_matches_library(tmp_path):
    doc = {"game": "cournot", "horizon": 300, "estimator": "map",
           "seeds": {"start": 0, "count": 2},
           "init": {"theta": [0.6, 0.4], "q": [1.0, 1.0]},
           "analysis": {"rate": {"param": 1, "burn_in": 30}},
           "output_dir": str(tmp_path)}
    assert main(["rate", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads((tmp_path / "rate.json").read_text())
    for seed, entry in zip((0, 1), out["per_seed"]):
        lib = run(games.cournot(), UpdateRule.simultaneous(),
                  UpdateSchedule.every_stage(),
                  ([0.6, 0.4], np.asarray([1.0, 1.0])),
                  300, seed, respond_to="map")
        slope, r2 = analysis.estimate_convergence_rate(lib, 1, 30)
        assert (entry["slope"], entry["r2"]) == (slope, r2)


def test_stability_uses_configured_schedule(tmp_path):
    # with batch > horizon the belief never updates, so few replicas stay
    # within eps_bar of theta_bar; updating every stage, all of them do
    spec = {"cluster": "complete_info", "eps1": 0.05, "delta1": 0.02,
            "eps_bar": 0.01, "eps_x": 0.1, "n_runs": 6, "n_probe": 20}
    doc = {"game": "cournot", "rule": "linear", "horizon": 200, "seed": 5,
           "schedule": {"kind": "fixed_batch", "batch": 1000},
           "analysis": {"stability": spec}, "output_dir": str(tmp_path)}
    assert main(["stability", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads((tmp_path / "stability_report.json").read_text())
    game = games.cournot()
    cert = [c for c in analysis.enumerate_fixed_points(game)
            if c.cluster_id == "complete_info"][0].representative
    lib = analysis.monte_carlo_local_stability(
        game, cert, eps1=0.05, delta1=0.02, eps_bar=0.01, eps_x=0.1,
        n_runs=6, horizon=200, seed=5, rule=UpdateRule.linear(),
        schedule=UpdateSchedule.fixed_batch(1000))
    assert out["report"]["n_stayed"] == lib.n_stayed < 6


def test_run_three_player_routing(tmp_path):
    doc = {"game": {"id": "two_route_congestion", "n_players": 3},
           "horizon": 50, "seed": 0, "output_dir": str(tmp_path)}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["final_q"]) == 6
    assert "nearest_fixed_point" in summary


def test_stability_honours_map_estimator(tmp_path, monkeypatch):
    received = []
    real_run = analysis.run

    def spy(*args, **kwargs):
        received.append(kwargs.get("respond_to"))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(analysis, "run", spy)
    # the spy sees only this process's replicas, so keep them all here
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    doc = {"game": "cournot", "estimator": "map", "horizon": 50, "seed": 1,
           "analysis": {"stability": {"n_runs": 4, "n_probe": 10},
                        "fixed_points": {"belief_grid": 11}},
           "output_dir": str(tmp_path)}
    assert main(["stability", "--config", write_config(tmp_path, doc)]) == 0
    assert received == ["map"] * 4


def test_fixed_points_on_finite_game(tmp_path):
    # the global-stability random starts are mixed strategies, not box points
    doc = {"game": "two_route_congestion", "horizon": 200,
           "output_dir": str(tmp_path)}
    assert main(["fixed-points", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads((tmp_path / "fixed_points.json").read_text())
    assert out["global_stability"]["verdict"] == "globally_stable"
    assert out["global_stability"]["n_converged"] == 50


def test_stability_rejects_finite_games(tmp_path, capsys):
    doc = {"game": "two_route_congestion", "horizon": 20,
           "analysis": {"stability": {"n_runs": 2, "n_probe": 8}},
           "output_dir": str(tmp_path)}
    assert main(["stability", "--config", write_config(tmp_path, doc)]) == 2
    assert "finite games have no strategy box" in capsys.readouterr().err


def test_stability_fails_fast_on_finite_games(tmp_path, capsys, monkeypatch):
    calls = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError("%s called" % name)
        return record

    monkeypatch.setattr(analysis, "enumerate_fixed_points",
                        spy("enumerate_fixed_points"))
    monkeypatch.setattr(analysis, "check_assumption2",
                        spy("check_assumption2"))
    doc = {"game": "two_route_congestion", "horizon": 20,
           "output_dir": str(tmp_path)}
    assert main(["stability", "--config", write_config(tmp_path, doc)]) == 2
    assert "finite games have no strategy box" in capsys.readouterr().err
    assert calls == []


def test_stability_rejects_eps_hat_before_any_probe(tmp_path, capsys,
                                                    monkeypatch):
    # eps_hat 5 > |S|(E+1)/E = 4 at theta_bar (1, 0) would give rho3 = -5
    def spy(*args, **kwargs):
        raise AssertionError("check_assumption2 called")

    monkeypatch.setattr(analysis, "check_assumption2", spy)
    doc = {"game": "cournot", "horizon": 50, "seed": 0,
           "analysis": {"stability": {"cluster": "complete_info",
                                      "n_runs": 2, "n_probe": 10,
                                      "eps_hat": 5}},
           "output_dir": str(tmp_path)}
    assert main(["stability", "--config", write_config(tmp_path, doc)]) == 2
    assert "eps_hat" in capsys.readouterr().err
    assert not (tmp_path / "stability_report.json").exists()


def test_threads_flag_is_ignored(tmp_path):
    doc = {"game": "cournot", "rule": "linear", "horizon": 100,
           "seeds": {"start": 4, "count": 3},
           "analysis": {"stability": {"n_runs": 3, "n_probe": 10},
                        "fixed_points": {"belief_grid": 11}}}
    cfg = write_config(tmp_path, doc)
    for command in ("run", "stability"):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / command / threads
            assert main([command, "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outs[0] == outs[1] and outs[0]


def test_python_m_entry_point():
    src = os.path.dirname(os.path.dirname(beliefplay.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "beliefplay", "run"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "usage: beliefplay" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_ols_estimator_run(tmp_path):
    doc = {"game": "affine", "estimator": "ols", "horizon": 2000, "seed": 0,
           "output_dir": str(tmp_path)}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads((tmp_path / "summary.json").read_text())
    assert out["ols_runs"][0]["max_abs_error"] < 0.1


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_code_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"game": "nonesuch", "horizon": 10})
    assert main(["run", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_code_unknown_cluster(tmp_path, capsys):
    doc = dict(BASE, output_dir=str(tmp_path),
               analysis={"stability": {"cluster": "nonesuch"}})
    assert main(["stability", "--config", write_config(tmp_path, doc)]) == 2
    assert "unknown cluster id" in capsys.readouterr().err


@pytest.mark.parametrize("stability, message", [
    ({"cluster": "nonesuch"}, "unknown cluster id 'nonesuch'"),
    # |S|(E+1)/E = 3 * 3 / 2 = 4.5 at theta* of zerosum
    ({"eps_hat": 5}, "eps_hat"),
], ids=["unknown_cluster", "eps_hat_too_large"])
def test_failed_stability_leaves_no_output_directory(tmp_path, capsys,
                                                     stability, message):
    doc = {"game": "zerosum", "horizon": 50, "seed": 0,
           "analysis": {"stability": dict(stability, n_runs=2, n_probe=8)}}
    out = tmp_path / "out"
    assert main(["stability", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_usage_error():
    assert main(["run"]) == 1  # missing --config
