"""The replica helper `dynamics._map_replicas`: the same results, files and
errors at any CPU count, and no worker process left behind."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import beliefplay
from beliefplay import analysis, cli, dynamics, games
from beliefplay.cli import main
from beliefplay.param_belief import ContractViolation, UpdateSchedule

CPUS = (1, 2, 3)


@pytest.fixture
def pin_cpus(monkeypatch):
    """Pin the helper's CPU probe to a given count."""
    def pin(n):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: n)
    return pin


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("n_cpus", CPUS)
def test_jobs_return_in_order(pin_cpus, n_cpus):
    pin_cpus(n_cpus)
    offset = 10
    # a closure cannot be pickled: it reaches the workers through the fork
    out = dynamics._map_replicas(lambda k: (k + offset, os.getpid()), 7)
    assert [value for value, _ in out] == list(range(10, 17))
    for k, (_, pid) in enumerate(out):
        assert (pid == os.getpid()) == (k % n_cpus == 0)


def test_no_jobs(pin_cpus):
    pin_cpus(2)
    assert dynamics._map_replicas(lambda k: k, 0) == []


def _failing(bad):
    def job(k):
        if k in bad:
            raise ContractViolation("job %d failed" % k)
        return k
    return job


@pytest.mark.parametrize("n_cpus", CPUS)
@pytest.mark.parametrize("bad", [{1}, {4}, {1, 2}, {2, 3}, {0, 5}])
def test_lowest_failing_job_wins(pin_cpus, n_cpus, bad):
    pin_cpus(n_cpus)
    with pytest.raises(ContractViolation) as err:
        dynamics._map_replicas(_failing(bad), 6)
    assert type(err.value) is ContractViolation
    assert str(err.value) == "job %d failed" % min(bad)
    assert multiprocessing.active_children() == []


CASES = {  # id -> (command, config)
    "stability": ("stability", {
        "game": "cournot", "rule": "linear", "horizon": 300, "seed": 4,
        "analysis": {"stability": {"n_runs": 3, "n_probe": 10},
                     "fixed_points": {"belief_grid": 11}}}),
    "fixed-points": ("fixed-points",
                     {"game": "investment", "horizon": 20000, "seed": 2}),
    "run": ("run", {"game": "investment", "rule": "sequential",
                    "schedule": {"kind": "fixed_batch", "batch": 10},
                    "horizon": 300, "seeds": {"start": 5, "count": 3}}),
    # the summaries carry eq_distance_at_updates
    "run-two_timescale": ("run", {
        "game": "investment", "schedule": {"kind": "two_timescale",
                                           "gap": "3t"},
        "horizon": 300, "seeds": {"start": 5, "count": 3}}),
    "rate": ("rate", {"game": "cournot", "horizon": 400,
                      "seeds": {"start": 1, "count": 3}}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_identical_at_any_cpu_count(tmp_path, pin_cpus, case):
    command, config = CASES[case]
    cfg = write_config(tmp_path, config)
    outs = []
    for n_cpus in CPUS:
        pin_cpus(n_cpus)
        out = tmp_path / str(n_cpus)
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert multiprocessing.active_children() == []
    assert outs[0] and outs[0] == outs[1] == outs[2]
    if command == "fixed-points":
        doc = json.loads(outs[0]["fixed_points.json"])
        assert doc["global_stability"]["n_runs"] == 50
    if command == "run":
        assert len(outs[0]) == 6  # a CSV and a summary per seed
    if case == "run-two_timescale":
        doc = json.loads(outs[0]["summary_5.json"])
        assert len(doc["eq_distance_at_updates"]) >= 5


def test_global_stability_starts_do_not_depend_on_cpus(pin_cpus):
    # at this short horizon only some starts converge, so the count shows
    # whether every replica got the start the serial loop gives it
    game = games.investment()
    clusters = analysis.enumerate_fixed_points(game, 11)
    outs = []
    for n_cpus in CPUS:
        pin_cpus(n_cpus)
        outs.append(analysis.check_global_stability(
            game, clusters, None, n_random_starts=12, horizon=40, seed=3))
    assert 0 < outs[0]["n_converged"] < 12
    assert outs[0] == outs[1] == outs[2]


def test_one_schedule_serves_every_monte_carlo_replica(pin_cpus):
    # a geometric schedule draws from each replica's own stream; with no
    # clock in the schedule, sharing it across replicas changes nothing
    game = games.cournot()
    cert = analysis.certify_fixed_point(game, [1.0, 0.0], [2.0 / 3.0] * 2)
    schedule = UpdateSchedule.geometric(0.4)
    outs = []
    for n_cpus in (1, 2):
        pin_cpus(n_cpus)
        report = analysis.monte_carlo_local_stability(
            game, cert, eps1=0.05, delta1=0.05, eps_bar=0.1, eps_x=0.1,
            n_runs=6, horizon=300, seed=11, schedule=schedule)
        outs.append(json.dumps(analysis.to_jsonable(report), sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["run", "rate"])
def test_worker_error_matches_serial_loop(tmp_path, pin_cpus, monkeypatch,
                                          capsys, command):
    real_run = cli.run

    def flaky(game, rule, schedule, init, horizon, seed, **kwargs):
        if seed in (6, 7):
            raise ContractViolation("seed %d failed" % seed)
        return real_run(game, rule, schedule, init, horizon, seed, **kwargs)

    monkeypatch.setattr(cli, "run", flaky)
    # seed 6 is job 1 (a worker's at 2 and 3 CPUs); seed 7 is job 2 (this
    # process's at 2 CPUs): the lower job's error wins either way
    cfg = write_config(tmp_path, {"game": "cournot", "horizon": 50,
                                  "seeds": {"start": 5, "count": 4}})
    errs = []
    for n_cpus in CPUS:
        pin_cpus(n_cpus)
        out = tmp_path / str(n_cpus)
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        errs.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errs == ["error: seed 6 failed\n"] * 3


def test_no_pool_no_multiprocessing_import(tmp_path):
    # one seed makes no pool, so the process never imports multiprocessing
    cfg = write_config(tmp_path, {"game": "cournot", "horizon": 20})
    src = os.path.dirname(os.path.dirname(beliefplay.__file__))
    code = ("import sys; from beliefplay.cli import main; "
            "assert main(['run', '--config', %r, '--out', %r]) == 0; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))" % (cfg, str(tmp_path / "out")))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
