"""Unit tests for the coupled learning loop: update rules, schedules inside
the loop, convergence/cycle detection, determinism and CSV export."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from beliefplay import analysis, dynamics, games
from beliefplay.cli import GAMES
from beliefplay.dynamics import (
    CONV_TOL,
    CONV_WINDOW,
    Trajectory,
    UpdateRule,
    _detect_cycle,
    replica_seed,
    run,
    trajectory_to_csv,
)
from beliefplay.games import best_response, sample_payoffs, tied_actions
from beliefplay.param_belief import (
    ContractViolation,
    UpdateSchedule,
    _normalize,
    _shift_exp,
    batch_log_likelihoods,
    bayes_update,
    log_belief,
    next_update_stage,
)
from oracles import log_normalize


def test_run_is_deterministic_given_seed(investment_game):
    init = ([1 / 3] * 3, np.asarray([0.5, 0.5]))
    a = run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), init, 300, seed=42)
    b = run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), init, 300, seed=42)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.qs, b.qs)
    assert np.array_equal(a.cs, b.cs)
    c = run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), init, 300, seed=43)
    assert not np.array_equal(a.cs, c.cs)


def test_run_fixed_point_invariance(zerosum_game):
    # at q = (0, 1) every parameter produces the same payoff distribution, so
    # the belief posterior is exactly the prior and the canonical best
    # response keeps the current strategy: the state is invariant
    traj = run(zerosum_game, UpdateRule.simultaneous(),
               UpdateSchedule.every_stage(),
               ([1 / 3] * 3, np.asarray([0.0, 1.0])), 25, seed=0)
    assert traj.horizon == 25 and traj.updated.all()
    for t in range(traj.horizon):
        assert np.array_equal(traj.qs[t], [0.0, 1.0])
        assert np.allclose(traj.thetas[t], 1.0 / 3.0, atol=1e-12)


@pytest.mark.parametrize("schedule", [UpdateSchedule.every_stage(),
                                      UpdateSchedule.fixed_batch(5)],
                         ids=["every_stage", "fixed_batch"])
@pytest.mark.parametrize("maker, theta1, q1", [
    (games.cournot, [0.7, 0.3], [1.0, 1.0]),
    (games.investment, [0.2, 0.5, 0.3], [0.1, 0.9]),
    (games.zerosum_example, [0.3, 0.3, 0.4], [1.0, 2.0]),
], ids=["cournot", "investment", "zerosum"])
def test_bayes_update_chain_matches_run_exactly(maker, theta1, q1, schedule):
    game = maker()
    traj = run(game, UpdateRule.simultaneous(), schedule,
               (theta1, np.asarray(q1)), 200, seed=11)
    log_probs = log_belief(theta1)
    batch = []
    for t in range(traj.horizon - 1):
        batch.append((traj.qs[t], traj.cs[t]))
        if traj.updated[t]:
            log_probs = bayes_update(log_probs, batch, game)
            batch = []
        assert np.array_equal(np.exp(log_probs), traj.thetas[t + 1])


def test_sequential_rule_moves_one_player_per_stage(investment_game):
    traj = run(investment_game, UpdateRule.sequential(),
               UpdateSchedule.every_stage(),
               ([1 / 3] * 3, np.asarray([0.9, 0.1])), 12, seed=0)
    for t in range(traj.horizon - 1):
        mover = t % 2  # stage t+1 updates player ((t+1)-1) mod 2
        frozen = 1 - mover
        assert traj.qs[t + 1][frozen] == traj.qs[t][frozen]


def test_linear_rule_with_unit_step_matches_simultaneous(cournot_game):
    init = ([0.5, 0.5], np.asarray([1.5, 1.5]))
    sim = run(cournot_game, UpdateRule.simultaneous(),
              UpdateSchedule.every_stage(), init, 100, seed=3)
    lin = run(cournot_game, UpdateRule.linear(lambda t: 1.0),
              UpdateSchedule.every_stage(), init, 100, seed=3)
    assert np.array_equal(sim.qs, lin.qs)
    assert np.array_equal(sim.thetas, lin.thetas)


def test_linear_rule_default_stepsize_interpolates(investment_game):
    traj = run(investment_game, UpdateRule.linear(),
               UpdateSchedule.every_stage(),
               ([1 / 3] * 3, np.asarray([0.0, 0.0])), 5, seed=1)
    # stage 1 has alpha = 1/1 = 1: the strategy jumps straight to the best
    # response under the stage-2 belief; later stages move fractionally
    for t in range(1, traj.horizon - 1):
        step_len = np.max(np.abs(traj.qs[t + 1] - traj.qs[t]))
        assert step_len <= 1.0 / (t + 1) + 1e-12


def test_linear_rule_rejects_bad_stepsize(investment_game):
    with pytest.raises(ContractViolation):
        run(investment_game, UpdateRule.linear(lambda t: 1.5),
            UpdateSchedule.every_stage(),
            ([1 / 3] * 3, np.asarray([0.0, 0.0])), 3, seed=0)


def test_fictitious_play_tracks_action_frequencies(routing_game):
    horizon = 60
    q0 = np.asarray([0.5, 0.5, 0.5, 0.5])
    traj = run(routing_game, UpdateRule.fictitious_play(),
               UpdateSchedule.every_stage(), ([0.5, 0.5], q0), horizon,
               seed=11)
    # exact rational bookkeeping: q^{t+1} = (q^1 + sum of one-hots) / (t + 1)
    counts = [[Fraction(1, 2), Fraction(1, 2)] for _ in range(2)]
    for t in range(horizon - 1):
        for i in range(2):
            a = traj.actions[t][i]
            counts[i][a] += 1
        for i in range(2):
            for e in range(2):
                expect = counts[i][e] / (t + 2)
                assert math.isclose(traj.qs[t + 1][2 * i + e], float(expect),
                                    abs_tol=1e-12)


def test_fictitious_play_reaches_mixed_equilibrium(routing_game):
    traj = run(routing_game, UpdateRule.fictitious_play(),
               UpdateSchedule.every_stage(),
               ([0.5, 0.5], np.asarray([0.5, 0.5, 0.5, 0.5])),
               3000, seed=5)
    assert np.max(np.abs(np.asarray(traj.summary["final_q"]) - 0.5)) < 0.02


def test_update_schedule_controls_update_stages(investment_game):
    traj = run(investment_game, UpdateRule.simultaneous(),
               UpdateSchedule.fixed_batch(10),
               ([1 / 3] * 3, np.asarray([0.5, 0.5])), 55, seed=2)
    stages = np.nonzero(traj.updated)[0] + 1  # 1-based stage numbers
    assert stages.tolist() == [10, 20, 30, 40, 50]
    # belief is constant between updates
    for t in range(traj.horizon - 1):
        if not traj.updated[t]:
            assert np.array_equal(traj.thetas[t + 1], traj.thetas[t])


def test_two_timescale_gap_one_matches_every_stage(investment_game):
    init = ([1 / 3] * 3, np.asarray([0.2, 0.8]))
    a = run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), init, 80, seed=9)
    b = run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.two_timescale(lambda t: 1), init, 80, seed=9)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.qs, b.qs)


def test_eq_distances_at_two_timescale_updates(investment_game):
    traj = run(investment_game, UpdateRule.simultaneous(),
               UpdateSchedule.two_timescale(lambda t: 10 * t),
               ([1 / 3] * 3, np.asarray([0.9, 0.9])), 1200, seed=4)
    dists = analysis.eq_distances_at_updates(investment_game, traj)
    assert len(dists) >= 5
    ks = [k for k, _ in dists]
    assert ks == [k for k in traj.summary["update_stages"] if k <= 1200]
    assert ks == sorted(ks)
    # after the first few updates the strategies have equilibrated
    for k, d in dists[4:]:
        assert d < 1e-3


def test_convergence_flag_and_early_stop(investment_game):
    init = ([1 / 3] * 3, np.asarray([0.5, 0.5]))
    full = run(investment_game, UpdateRule.simultaneous(),
               UpdateSchedule.every_stage(), init, 5000, seed=6)
    assert full.summary["converged"]
    assert full.horizon == 5000
    early = run(investment_game, UpdateRule.simultaneous(),
                UpdateSchedule.every_stage(), init, 5000, seed=6,
                stop_when_converged=True)
    assert early.summary["converged"]
    assert early.horizon == early.summary["t_stop"] < 5000
    assert np.array_equal(early.qs, full.qs[: early.horizon])
    assert np.allclose(np.asarray(early.summary["final_theta"]), [0, 1, 0],
                       atol=1e-3)
    assert np.allclose(early.summary["final_q"], [1.0 / 3.0, 1.0 / 3.0],
                       atol=1e-4)


def test_cycle_detection_on_routing(rng):
    game = games.two_route_congestion(sigma=0.0)
    traj = run(game, UpdateRule.simultaneous(), UpdateSchedule.every_stage(),
               ([0.5, 0.5], np.asarray([0.5, 0.5, 0.5, 0.5])),
               400, seed=0)
    assert not traj.summary["converged"]
    assert traj.summary.get("cycle_detected")
    assert traj.summary["cycle_period"] == 2
    for t in range(2, traj.horizon - 2):
        assert np.array_equal(traj.qs[t], traj.qs[t + 2])


def test_run_validates_inputs(investment_game):
    good_q = np.asarray([0.5, 0.5])
    with pytest.raises(ContractViolation):
        run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(),
            ([0.0, 0.5, 0.5], good_q), 10, seed=0)
    with pytest.raises(ContractViolation):
        run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(),
            ([1 / 3] * 3, np.asarray([1.5, 0.5])), 10, seed=0)
    with pytest.raises(ContractViolation):
        run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), ([1 / 3] * 3, good_q), 0,
            seed=0)
    with pytest.raises(ContractViolation, match="respond_to"):
        run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), ([1 / 3] * 3, good_q), 10,
            seed=0, respond_to="mpa")
    with pytest.raises(ContractViolation):
        UpdateRule("bogus")


@pytest.mark.parametrize("schedule", [UpdateSchedule.every_stage(),
                                      UpdateSchedule.fixed_batch(10)],
                         ids=["every_stage", "fixed_batch"])
@pytest.mark.parametrize("theta1", [[1.0], [0.2, 0.3, 0.5]],
                         ids=["short", "long"])
def test_run_rejects_a_start_belief_of_the_wrong_length(cournot_game, theta1,
                                                         schedule,
                                                         monkeypatch):
    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(dynamics, "sample_payoffs", no_stage)
    with pytest.raises(ContractViolation, match="belief has %d entries, "
                       "expected 2" % len(theta1)):
        run(cournot_game, UpdateRule.simultaneous(), schedule,
            (theta1, [1.0, 1.0]), 5, seed=0)


@pytest.mark.parametrize("alpha", [0.5, "1/t", 1])
def test_linear_stepsize_schedule_must_be_callable(alpha):
    # a number fails when the rule is built, not at the first stage
    with pytest.raises(ContractViolation, match="alpha_schedule must be "
                                                "callable"):
        UpdateRule("linear", alpha_schedule=alpha)
    with pytest.raises(ContractViolation, match="callable"):
        UpdateRule.linear(alpha)


@pytest.mark.parametrize("gap", [2.5, 2.0, True, 0, "2"])
def test_two_timescale_gap_must_be_an_integer(investment_game, gap):
    # a gap of 2.5 is not truncated to 2, nor True read as 1
    with pytest.raises(ContractViolation, match="gap must be an integer"):
        run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.two_timescale(lambda t: gap),
            ([1 / 3] * 3, np.asarray([0.5, 0.5])), 20, seed=0)


@pytest.mark.parametrize("sched", [
    UpdateSchedule.fixed_batch(7), UpdateSchedule.geometric(0.3),
    UpdateSchedule.two_timescale(lambda t: 2 * t)],
    ids=["fixed_batch", "geometric", "two_timescale"])
def test_one_schedule_drives_two_runs_alike(investment_game, sched):
    init = ([1 / 3] * 3, np.asarray([0.5, 0.5]))
    a, b = (run(investment_game, UpdateRule.simultaneous(), sched, init, 30,
                seed=0) for _ in range(2))
    assert a.summary == b.summary
    for name in ("thetas", "qs", "cs", "updated"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_replica_seed_is_deterministic_and_spread():
    seeds = [replica_seed(123, k) for k in range(100)]
    assert seeds == [replica_seed(123, k) for k in range(100)]
    assert len(set(seeds)) == 100
    assert replica_seed(123, 0) != replica_seed(124, 0)


def test_trajectory_csv_roundtrip(tmp_path, investment_game):
    traj = run(investment_game, UpdateRule.simultaneous(),
               UpdateSchedule.every_stage(),
               ([1 / 3] * 3, np.asarray([0.5, 0.5])), 25, seed=8)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path, config_hash="abc123", master_seed=8)
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "# config_hash=abc123 master_seed=8"
    header = lines[1].split(",")
    assert header == ["t", "theta_0", "theta_1", "theta_2", "q_0", "q_1",
                      "c_0", "updated"]
    assert len(lines) == 2 + traj.horizon
    # 17 significant digits reproduce the doubles exactly
    for t, line in enumerate(lines[2:]):
        cells = line.split(",")
        assert int(cells[0]) == t + 1
        assert np.array_equal([float(x) for x in cells[1:4]], traj.thetas[t])
        assert np.array_equal([float(x) for x in cells[4:6]], traj.qs[t])
        assert float(cells[6]) == traj.cs[t][0]
        assert int(cells[7]) == int(traj.updated[t])


def _csv_oracle(traj, path, config_hash=None, master_seed=None):
    """The writer that formatted each value with format(float(x), ".17g")."""
    def fmt(x):
        return format(float(x), ".17g")

    n_s, n_q, n_c = traj.thetas.shape[1], traj.qs.shape[1], traj.cs.shape[1]
    cols = (["t"] + ["theta_%d" % i for i in range(n_s)]
            + ["q_%d" % i for i in range(n_q)]
            + ["c_%d" % i for i in range(n_c)] + ["updated"])
    lines = []
    if config_hash is not None or master_seed is not None:
        lines.append("# config_hash=%s master_seed=%s" % (config_hash,
                                                          master_seed))
    lines.append(",".join(cols))
    for t in range(traj.horizon):
        row = ([str(t + 1)] + [fmt(x) for x in traj.thetas[t]]
               + [fmt(x) for x in traj.qs[t]] + [fmt(x) for x in traj.cs[t]]
               + [str(int(traj.updated[t]))])
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e308, 0.1, 0.0, -1e-300, 2.0 ** 53 + 2,
               1.0 / 3.0, math.inf, -math.inf, math.nan]


def _edge_trajectory(n_rows):
    """Rows that cycle through EDGE_VALUES in every column."""
    vals = np.asarray(EDGE_VALUES * (n_rows * 6 // len(EDGE_VALUES) + 1))
    block = vals[:n_rows * 6].reshape(n_rows, 6)
    # the writer does not read log_thetas
    return Trajectory(thetas=block[:, :3].copy(),
                      log_thetas=np.zeros((n_rows, 3)),
                      qs=block[:, 3:5].copy(), cs=block[:, 5:].copy(),
                      updated=np.arange(n_rows) % 3 == 0, actions=None)


@pytest.mark.parametrize("meta", [(None, None), ("abc123", 8), ("abc", None),
                                  (None, 0)])
def test_trajectory_csv_matches_the_per_value_writer(tmp_path, meta,
                                                     investment_game):
    hash_, seed = meta
    real = run(investment_game, UpdateRule.simultaneous(),
               UpdateSchedule.every_stage(),
               ([1 / 3] * 3, np.asarray([0.5, 0.5])), 300, seed=3)
    # 600 rows cross two of the writer's 256-row blocks
    for traj in (_edge_trajectory(600), real, _edge_trajectory(1),
                 _edge_trajectory(0)):
        trajectory_to_csv(traj, tmp_path / "new.csv", hash_, seed)
        _csv_oracle(traj, tmp_path / "old.csv", hash_, seed)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()
    raw = (tmp_path / "new.csv").read_bytes().decode()
    assert raw.startswith("# config_hash=") == (meta != (None, None))


# ---------------------------------------------------------------------------
# Exact-equality pin: `run` against the plain per-stage loop it replaced
#
# `_reference_run` is that loop, kept here as the scalar reference: it
# recomputes exp(log_probs) wherever a belief is needed, builds a -inf log
# vector for MAP, reads the game's geometry at every use and applies the
# linear rule slice by slice.  `run` must reproduce it bit for bit.


def _ref_realized_profile(game, rule_kind, log_probs, q, rng):
    if game.kind == "continuous":
        return q, None
    probs = np.exp(log_probs)
    out = np.zeros_like(q)
    actions = []
    for i, sl in enumerate(game.slices):
        if rule_kind == "fictitious_play":
            a = tied_actions(game, probs, i, q)[0]
        else:
            block = q[sl]
            if np.max(block) > 1.0 - 1e-12:
                a = int(np.argmax(block))
            else:
                a = int(rng.choice(block.size, p=block / block.sum()))
        actions.append(a)
        out[sl.start + a] = 1.0
    return out, tuple(actions)


def _ref_apply_rule(game, rule, log_probs, q, t, actions):
    probs = np.exp(log_probs)
    n = game.n_players
    if rule.kind == "simultaneous":
        out = q.copy()
        for i in range(n):
            out[game.slices[i]] = best_response(
                game, probs, i, q, current=q[game.slices[i]])
        return out
    if rule.kind == "sequential":
        i = (t - 1) % n
        out = q.copy()
        out[game.slices[i]] = best_response(
            game, probs, i, q, current=q[game.slices[i]])
        return out
    if rule.kind == "linear":
        alpha = float(rule.alpha_schedule(t))
        out = q.copy()
        for i in range(n):
            br = np.asarray(best_response(game, probs, i, q,
                                          current=q[game.slices[i]]))
            out[game.slices[i]] = (1.0 - alpha) * q[game.slices[i]] + alpha * br
        return out
    out = q.copy()
    for i, sl in enumerate(game.slices):
        onehot = np.zeros(sl.stop - sl.start)
        onehot[actions[i]] = 1.0
        out[sl] = (t * q[sl] + onehot) / (t + 1.0)
    return out


def _reference_run(game, rule, schedule, init, horizon, seed,
                   stop_when_converged=False, conv_window=CONV_WINDOW,
                   conv_tol=CONV_TOL, respond_to="posterior"):
    theta1, q0 = init
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_updates = 0
    next_k = next_update_stage(schedule, 1, n_updates, rng)
    thetas = np.empty((horizon, len(game.space)))
    log_thetas = np.empty((horizon, len(game.space)))
    qs = np.empty((horizon, game.q_dim))
    cs = np.empty((horizon, game.obs_dim))
    upd = np.zeros(horizon, dtype=bool)
    acts = (np.empty((horizon, game.n_players), dtype=np.int64)
            if game.kind == "finite" else None)
    log_probs = np.asarray(log_belief(theta1), dtype=float)
    q = np.asarray(q0, dtype=float).copy()
    pending = []
    last_big_move = 0
    converged = False
    t_stop = horizon
    eq_checkpoints = []
    for t in range(1, horizon + 1):
        thetas[t - 1] = np.exp(log_probs)
        log_thetas[t - 1] = log_probs
        qs[t - 1] = q
        profile, actions = _ref_realized_profile(game, rule.kind, log_probs,
                                                 q, rng)
        c = sample_payoffs(game, game.space.true_index, profile, rng)
        pending.append((profile, c))
        updated = False
        if t + 1 == next_k:
            scores = batch_log_likelihoods(None, pending, game)
            log_probs = np.asarray(log_normalize(log_probs + scores))
            pending = []
            n_updates += 1
            next_k = next_update_stage(schedule, next_k, n_updates, rng)
            updated = True
        if respond_to == "map":
            lp_respond = np.full_like(log_probs, -np.inf)
            lp_respond[int(np.argmax(log_probs))] = 0.0
        else:
            lp_respond = log_probs
        q_next = _ref_apply_rule(game, rule, lp_respond, q, t, actions)
        cs[t - 1] = c
        upd[t - 1] = updated
        if actions is not None:
            acts[t - 1] = actions
        if updated:
            eq_checkpoints.append(t + 1)
        if np.max(np.abs(q_next - q)) >= conv_tol:
            last_big_move = t
        q = q_next
        if (not converged and t >= conv_window + 1
                and t - last_big_move >= conv_window
                and np.max(np.abs(thetas[t - 1] - thetas[t - 1 - conv_window]))
                < conv_tol):
            converged = True
            t_stop = t
            if stop_when_converged:
                thetas, qs, cs, upd = thetas[:t], qs[:t], cs[:t], upd[:t]
                log_thetas = log_thetas[:t]
                if acts is not None:
                    acts = acts[:t]
                break
    cycle = _detect_cycle(qs) if not converged else None
    summary = {
        "converged": bool(converged),
        "t_stop": int(t_stop if converged else thetas.shape[0]),
        "final_theta": np.exp(log_probs).tolist(),
        "final_q": q.tolist(),
        "seed": int(seed),
        "rule": rule.kind,
        "schedule": schedule.kind,
        "game": game.name,
    }
    if cycle is not None:
        summary["cycle_detected"] = True
        summary["cycle_period"] = int(cycle)
    summary["update_stages"] = eq_checkpoints
    return Trajectory(thetas=thetas, log_thetas=log_thetas, qs=qs, cs=cs,
                      updated=upd, actions=acts, summary=summary)


def _builtin_game(game_id):
    factory, _, defaults = GAMES[game_id]
    return factory(**defaults)


_CONTINUOUS_RULES = ("simultaneous", "sequential", "linear")
_GAME_RULES = [(g, r) for g in GAMES for r in _CONTINUOUS_RULES] + [
    ("two_route_congestion", "fictitious_play")]
_SCHEDULES = {"every_stage": UpdateSchedule.every_stage,
              "fixed_batch": lambda: UpdateSchedule.fixed_batch(4),
              "geometric": lambda: UpdateSchedule.geometric(0.3)}


def _assert_same_trajectory(got, want):
    for name in ("thetas", "log_thetas", "qs", "cs", "updated"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    if want.actions is None:
        assert got.actions is None
    else:
        assert got.actions.tobytes() == want.actions.tobytes()
    # repr distinguishes every float bit pattern, and key order matters
    assert repr(got.summary) == repr(want.summary)


@pytest.mark.parametrize("respond_to", ["posterior", "map"])
@pytest.mark.parametrize("schedule", list(_SCHEDULES))
@pytest.mark.parametrize("game_id, rule_kind", _GAME_RULES,
                         ids=["%s-%s" % gr for gr in _GAME_RULES])
def test_run_matches_reference_loop_exactly(game_id, rule_kind, schedule,
                                            respond_to, monkeypatch):
    game = _builtin_game(game_id)
    n = len(game.space)
    init = (np.arange(1.0, n + 1.0), game.box_center())
    rule = UpdateRule(rule_kind)
    for stop, window, tol in ((False, CONV_WINDOW, CONV_TOL),
                              (True, 20, 1e-2)):
        monkeypatch.setattr(dynamics, "CONV_WINDOW", window)
        monkeypatch.setattr(dynamics, "CONV_TOL", tol)
        got = run(game, rule, _SCHEDULES[schedule](), init, 150, seed=17,
                  stop_when_converged=stop, respond_to=respond_to)
        want = _reference_run(game, rule, _SCHEDULES[schedule](), init, 150,
                              seed=17, stop_when_converged=stop,
                              conv_window=window, conv_tol=tol,
                              respond_to=respond_to)
        _assert_same_trajectory(got, want)


def _assert_log_record(traj):
    """The log rows are the log-probabilities the update works on: their
    exps are the probability rows bit for bit."""
    assert traj.log_thetas.shape == traj.thetas.shape
    assert np.exp(traj.log_thetas).tobytes() == traj.thetas.tobytes()


@pytest.mark.parametrize("schedule", list(_SCHEDULES))
@pytest.mark.parametrize("game_id, rule_kind", _GAME_RULES,
                         ids=["%s-%s" % gr for gr in _GAME_RULES])
def test_log_thetas_are_the_logs_of_thetas(game_id, rule_kind, schedule):
    game = _builtin_game(game_id)
    init = (np.arange(1.0, len(game.space) + 1.0), game.box_center())
    for seed in (0, 7):
        _assert_log_record(run(game, UpdateRule(rule_kind),
                               _SCHEDULES[schedule](), init, 300, seed=seed))


def test_log_thetas_on_an_early_stop_and_a_map_run(monkeypatch):
    game = _builtin_game("cournot")
    init = ([1.0 - 1e-12, 1e-12], game.box_center())
    monkeypatch.setattr(dynamics, "CONV_WINDOW", 200)
    monkeypatch.setattr(dynamics, "CONV_TOL", 1e-3)
    stopped = run(game, UpdateRule.linear(), UpdateSchedule.every_stage(),
                  init, 2000, seed=5, stop_when_converged=True)
    assert stopped.horizon < 2000
    _assert_log_record(stopped)
    # theta(1) underflows to 0.0 within 2000 stages; its log stays finite
    mapped = run(game, UpdateRule.simultaneous(), UpdateSchedule.every_stage(),
                 ([0.5, 0.5], game.box_center()), 2000, seed=0,
                 respond_to="map")
    assert mapped.thetas[-1, 1] == 0.0 and mapped.log_thetas[-1, 1] > -np.inf
    _assert_log_record(mapped)


@pytest.mark.parametrize("stop, window, tol",
                         [(False, CONV_WINDOW, CONV_TOL), (True, 200, 1e-3)],
                         ids=["full", "early-stop"])
def test_run_matches_reference_loop_on_a_concentrated_posterior(
        stop, window, tol, monkeypatch):
    monkeypatch.setattr(dynamics, "CONV_WINDOW", window)
    monkeypatch.setattr(dynamics, "CONV_TOL", tol)
    # from theta = (1 - 1e-12, 1e-12) on Cournot the shifted exps of most
    # updates sum to exactly 1.0, and `run` takes them as the probabilities
    game = _builtin_game("cournot")
    init = ([1.0 - 1e-12, 1e-12], game.box_center())
    reused = []

    def spy(lp):
        reused.append(_shift_exp(lp)[2] == 0.0)
        return _normalize(lp)

    monkeypatch.setattr(dynamics, "_normalize", spy)
    got = run(game, UpdateRule.linear(), UpdateSchedule.every_stage(), init,
              2000, seed=5, stop_when_converged=stop)
    want = _reference_run(game, UpdateRule.linear(),
                          UpdateSchedule.every_stage(), init, 2000, seed=5,
                          stop_when_converged=stop, conv_window=window,
                          conv_tol=tol)
    _assert_same_trajectory(got, want)
    assert (got.horizon < 2000) == stop
    assert 2 * sum(reused) > len(reused) == got.horizon


@pytest.mark.parametrize("delta", [0.0, 5e-6, 2e-5, -2e-5, math.nan,
                                   math.inf])
def test_window_test_matches_the_array_test(delta):
    # `run` compares the window's two belief rows in floats on a flat view;
    # a NaN is not within the tolerance, as in the array test
    rows = np.asarray([[0.25, 0.75, 0.5], [0.25, 0.75, 0.5]])
    rows[1, 1] += delta
    flat = memoryview(rows).cast("B").cast("d")
    want = bool(abs(rows[1] - rows[0]).max() < CONV_TOL)
    assert dynamics._within(flat, 3, 0, 3, CONV_TOL) is want
    assert want == (delta in (0.0, 5e-6))


def test_run_rejects_rows_of_the_wrong_length(cournot_game):
    # the rows are written value by value, so a best response or a payoff
    # draw of the wrong length must fail rather than leave a row half set
    init = ([0.5, 0.5], cournot_game.box_center())
    means = cournot_game.channel_mean_fn
    for bad, message in (
            (dataclasses.replace(cournot_game,
                                 analytic_br=lambda p, i, q, c: (0.5, 0.5)),
             "strategy profile has 4 entries, expected 2"),
            (dataclasses.replace(cournot_game,
                                 channel_mean_fn=lambda q: [[] for _ in
                                                            means(q)]),
             "observation has 0 channels, expected 1")):
        with pytest.raises(ContractViolation, match=message):
            run(bad, UpdateRule.simultaneous(), UpdateSchedule.every_stage(),
                init, 10, seed=0)


def test_run_rejects_a_nan_posterior_at_the_first_update(cournot_game,
                                                         monkeypatch):
    # the second parameter's channel means are NaN, so its score is NaN at
    # the first update, which must fail instead of writing NaN beliefs
    means = cournot_game.channel_mean_fn
    bad = dataclasses.replace(
        cournot_game,
        channel_mean_fn=lambda q: [means(q)[0], [math.nan]])
    calls = []

    def spy(lp):
        calls.append(lp)
        return _normalize(lp)

    monkeypatch.setattr(dynamics, "_normalize", spy)
    with pytest.raises(ContractViolation, match="finite or -inf"):
        run(bad, UpdateRule.simultaneous(), UpdateSchedule.every_stage(),
            ([0.5, 0.5], cournot_game.box_center()), 20, seed=0)
    assert len(calls) == 1


@pytest.mark.parametrize("q0, n", [([0.5], 1), ([0.5, 0.5, 0.5], 3),
                                   (np.ones(3), 3)])
def test_run_names_the_entry_count_of_a_start_of_the_wrong_length(
        cournot_game, q0, n):
    with pytest.raises(ContractViolation,
                       match="initial strategy has %d entries, expected 2"
                       % n):
        run(cournot_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), ([0.5, 0.5], q0), 10, seed=0)


def test_run_takes_a_start_of_integers_as_floats(routing_game):
    # the sequential rule keeps the other player's block for a stage
    traj = run(routing_game, UpdateRule.sequential(),
               UpdateSchedule.every_stage(), ([0.5, 0.5], [1, 0, 0, 1]), 1,
               seed=0)
    assert all(type(x) is float for x in traj.summary["final_q"])
