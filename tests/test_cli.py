"""Tests for the config-driven command line: validation (all errors at once),
defaults, reproducible outputs, exit codes, and agreement with the library."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import beliefplay
from beliefplay import analysis, cli, games
from beliefplay.cli import ConfigError, main, parse_config
from beliefplay.dynamics import UpdateRule, run, run_two_timescale
from beliefplay.param_belief import Belief, UpdateSchedule


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {"game": "cournot", "horizon": 200, "seed": 3,
        "init": {"theta": [0.8, 0.2], "q": [1.0, 1.0]}}


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
    assert "horizon must be a positive integer" in text
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
    assert parse_config(json.dumps({"game": "cournot", "horizon": 10})
                        ).belief_grid == 51
    doc = {"game": "cournot", "horizon": 10,
           "analysis": {"fixed_points": {"belief_grid": 11}}}
    assert parse_config(json.dumps(doc)).belief_grid == 11


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
], ids=["affine_alpha_shape", "affine_beta_length", "affine_nan",
        "cournot_negative_sigma", "affine_negative_sigma", "investment_inf",
        "routing_zero_players", "routing_bool_players",
        "routing_float_players"])
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


@pytest.mark.parametrize("stability, message", [
    ({"n_probe": "x"}, "analysis.stability.n_probe must be an integer >= 1"),
    ({"n_probe": 2.5}, "analysis.stability.n_probe must be an integer >= 1"),
    ({"n_runs": 0}, "analysis.stability.n_runs must be an integer >= 1"),
    ({"n_runs": True}, "analysis.stability.n_runs must be an integer >= 1"),
    ({"eps": "a"}, "analysis.stability.eps must be a finite number"),
    ({"gamma": float("nan")}, "analysis.stability.gamma must be a finite "
                              "number"),
    ({"eps_bar": float("inf")}, "analysis.stability.eps_bar must be a finite "
                                "number"),
    ({"delta1": False}, "analysis.stability.delta1 must be a finite number"),
    ({"cluster": 3}, "analysis.stability.cluster must be a string"),
    ({"n_prob": 10}, "unknown key(s) 'n_prob' in analysis.stability; "
                     "allowed: cluster, delta, delta1, eps, eps1, eps_bar, "
                     "eps_hat, eps_x, gamma, n_probe, n_runs"),
    (5, "analysis.stability must be an object"),
], ids=["n_probe_string", "n_probe_float", "n_runs_zero", "n_runs_bool",
        "eps_string", "gamma_nan", "eps_bar_inf", "delta1_bool",
        "cluster_not_string", "unknown_key", "not_an_object"])
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


def test_parse_seed_range():
    cfg = parse_config(json.dumps({"game": "cournot", "horizon": 10,
                                   "seeds": {"start": 4, "count": 3}}))
    assert cfg.seeds == [4, 5, 6]
    assert cfg.master_seed == 4


@pytest.mark.parametrize("command", ["run", "rate"])
@pytest.mark.parametrize("count", [0, -2, True, 2.5, "3"],
                         ids=["zero", "negative", "bool", "float", "string"])
def test_bad_seed_count_is_a_config_error(tmp_path, capsys, command, count):
    doc = {"game": "investment", "horizon": 50, "output_dir": str(tmp_path),
           "seeds": {"start": 0, "count": count}}
    assert main([command, "--config", write_config(tmp_path, doc)]) == 1
    assert "config error: seeds.count must be an integer >= 1" \
        in capsys.readouterr().err
    assert list(tmp_path.glob("*.json")) == [tmp_path / "cfg.json"]


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
              (Belief.from_probs([0.8, 0.2]), np.asarray([1.0, 1.0])),
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


def test_seed_override_and_out_flags(tmp_path):
    cfg = write_config(tmp_path, dict(BASE, horizon=50))
    out = tmp_path / "elsewhere"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--seed-override", "99"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 99


def test_fixed_points_subcommand(tmp_path):
    cfg = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path)))
    assert main(["fixed-points", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "fixed_points.json").read_text())
    ids = sorted(c["cluster_id"] for c in doc["clusters"])
    assert ids == ["complete_info", "theta_dagger"]
    assert doc["all_fixed_points_complete"] is False
    assert doc["global_stability"]["verdict"] == "not_globally_stable"


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
    lib = run_two_timescale(parse_config(json.dumps(BASE)).game,
                            UpdateRule.simultaneous(), lambda t: 2 * t,
                            (Belief.from_probs([0.8, 0.2]),
                             np.asarray([1.0, 1.0])),
                            BASE["horizon"], seed=3, respond_to="map")
    rows = read_csv_rows(tmp_path / "trajectory.csv")
    assert np.array_equal(rows[:, 1:3], lib.thetas)
    assert np.array_equal(rows[:, 3:5], lib.qs)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["eq_distance_at_updates"] == [
        list(x) for x in lib.summary["eq_distance_at_updates"]]


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
                  (Belief.from_probs([0.6, 0.4]), np.asarray([1.0, 1.0])),
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
           "analysis": {"stability": {"n_runs": 2, "n_probe": 5}},
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


def test_exit_code_usage_error():
    assert main(["run"]) == 1  # missing --config
