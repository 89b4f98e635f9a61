"""Unit tests for the coupled learning loop: update rules, schedules inside
the loop, convergence/cycle detection, determinism and CSV export."""

import math
from fractions import Fraction

import numpy as np
import pytest

from beliefplay import games
from beliefplay.cli import GAMES
from beliefplay.dynamics import (
    CONV_TOL,
    CONV_WINDOW,
    Trajectory,
    UpdateRule,
    _detect_cycle,
    initial_state,
    replica_seed,
    run,
    run_two_timescale,
    step,
    trajectory_to_csv,
)
from beliefplay.games import best_response, sample_payoffs
from beliefplay.param_belief import (
    Belief,
    ContractViolation,
    ObservationBatch,
    UpdateSchedule,
    _log_normalize,
    batch_log_likelihoods,
    bayes_update,
    next_update_stage,
)


def test_run_is_deterministic_given_seed(investment_game):
    init = (Belief.uniform(3), np.asarray([0.5, 0.5]))
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


def test_step_fixed_point_invariance(zerosum_game, rng):
    # at q = (0, 1) every parameter produces the same payoff distribution, so
    # the belief posterior is exactly the prior and the canonical best
    # response keeps the current strategy: the state is invariant
    sched = UpdateSchedule.every_stage()
    state = initial_state(zerosum_game, Belief.uniform(3),
                          np.asarray([0.0, 1.0]), sched, rng)
    for _ in range(25):
        state = step(state, UpdateRule.simultaneous(), sched, zerosum_game,
                     rng)
        assert np.array_equal(state.strategy, [0.0, 1.0])
        assert np.allclose(state.belief.probs, 1.0 / 3.0, atol=1e-12)


def test_step_loop_matches_run(investment_game):
    horizon = 40
    init_belief = Belief.from_probs([0.2, 0.5, 0.3])
    q0 = np.asarray([0.1, 0.9])
    traj = run(investment_game, UpdateRule.sequential(),
               UpdateSchedule.fixed_batch(3), (init_belief, q0), horizon,
               seed=7)
    rng = np.random.default_rng(np.random.SeedSequence(7))
    sched = UpdateSchedule.fixed_batch(3)
    state = initial_state(investment_game, init_belief, q0, sched, rng)
    # step() round-trips the belief through Belief's normalizing constructor,
    # which can move the last ulp; agreement is to 1e-12, not bit identity
    for t in range(horizon):
        assert np.allclose(traj.thetas[t], state.belief.probs, atol=1e-12)
        assert np.allclose(traj.qs[t], state.strategy, atol=1e-12)
        state = step(state, UpdateRule.sequential(), sched, investment_game,
                     rng)
        assert np.allclose(traj.cs[t], state.last_obs, atol=1e-9)
        assert traj.updated[t] == state.last_updated


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
    belief = Belief.from_probs(theta1)
    traj = run(game, UpdateRule.simultaneous(), schedule,
               (belief, np.asarray(q1)), 200, seed=11)
    batch = ObservationBatch()
    for t in range(traj.horizon - 1):
        batch.append(traj.qs[t], traj.cs[t])
        if traj.updated[t]:
            belief = bayes_update(belief, batch, game)
            batch = ObservationBatch()
        assert np.array_equal(belief.probs, traj.thetas[t + 1])


def test_sequential_rule_moves_one_player_per_stage(investment_game):
    traj = run(investment_game, UpdateRule.sequential(),
               UpdateSchedule.every_stage(),
               (Belief.uniform(3), np.asarray([0.9, 0.1])), 12, seed=0)
    for t in range(traj.horizon - 1):
        mover = t % 2  # stage t+1 updates player ((t+1)-1) mod 2
        frozen = 1 - mover
        assert traj.qs[t + 1][frozen] == traj.qs[t][frozen]


def test_linear_rule_with_unit_step_matches_simultaneous(cournot_game):
    init = (Belief.uniform(2), np.asarray([1.5, 1.5]))
    sim = run(cournot_game, UpdateRule.simultaneous(),
              UpdateSchedule.every_stage(), init, 100, seed=3)
    lin = run(cournot_game, UpdateRule.linear(lambda t: 1.0),
              UpdateSchedule.every_stage(), init, 100, seed=3)
    assert np.array_equal(sim.qs, lin.qs)
    assert np.array_equal(sim.thetas, lin.thetas)


def test_linear_rule_default_stepsize_interpolates(investment_game):
    traj = run(investment_game, UpdateRule.linear(),
               UpdateSchedule.every_stage(),
               (Belief.uniform(3), np.asarray([0.0, 0.0])), 5, seed=1)
    # stage 1 has alpha = 1/1 = 1: the strategy jumps straight to the best
    # response under the stage-2 belief; later stages move fractionally
    for t in range(1, traj.horizon - 1):
        step_len = np.max(np.abs(traj.qs[t + 1] - traj.qs[t]))
        assert step_len <= 1.0 / (t + 1) + 1e-12


def test_linear_rule_rejects_bad_stepsize(investment_game):
    with pytest.raises(ContractViolation):
        run(investment_game, UpdateRule.linear(lambda t: 1.5),
            UpdateSchedule.every_stage(),
            (Belief.uniform(3), np.asarray([0.0, 0.0])), 3, seed=0)


def test_fictitious_play_tracks_action_frequencies(routing_game):
    horizon = 60
    q0 = np.asarray([0.5, 0.5, 0.5, 0.5])
    traj = run(routing_game, UpdateRule.fictitious_play(),
               UpdateSchedule.every_stage(), (Belief.uniform(2), q0), horizon,
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
               (Belief.uniform(2), np.asarray([0.5, 0.5, 0.5, 0.5])),
               3000, seed=5)
    assert np.max(np.abs(np.asarray(traj.summary["final_q"]) - 0.5)) < 0.02


def test_update_schedule_controls_update_stages(investment_game):
    traj = run(investment_game, UpdateRule.simultaneous(),
               UpdateSchedule.fixed_batch(10),
               (Belief.uniform(3), np.asarray([0.5, 0.5])), 55, seed=2)
    stages = np.nonzero(traj.updated)[0] + 1  # 1-based stage numbers
    assert stages.tolist() == [10, 20, 30, 40, 50]
    # belief is constant between updates
    for t in range(traj.horizon - 1):
        if not traj.updated[t]:
            assert np.array_equal(traj.thetas[t + 1], traj.thetas[t])


def test_two_timescale_gap_one_matches_every_stage(investment_game):
    init = (Belief.uniform(3), np.asarray([0.2, 0.8]))
    a = run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), init, 80, seed=9)
    b = run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.two_timescale(lambda t: 1), init, 80, seed=9)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.qs, b.qs)


def test_run_two_timescale_records_eq_distances(investment_game):
    traj = run_two_timescale(investment_game, UpdateRule.simultaneous(),
                             lambda t: 10 * t,
                             (Belief.uniform(3), np.asarray([0.9, 0.9])),
                             1200, seed=4)
    dists = traj.summary["eq_distance_at_updates"]
    assert len(dists) >= 5
    ks = [k for k, _ in dists]
    assert ks == sorted(ks)
    # after the first few updates the strategies have equilibrated
    for k, d in dists[4:]:
        assert d < 1e-3


def test_convergence_flag_and_early_stop(investment_game):
    init = (Belief.uniform(3), np.asarray([0.5, 0.5]))
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
               (Belief.uniform(2), np.asarray([0.5, 0.5, 0.5, 0.5])),
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
            (Belief.from_probs([0.0, 0.5, 0.5]), good_q), 10, seed=0)
    with pytest.raises(ContractViolation):
        run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(),
            (Belief.uniform(3), np.asarray([1.5, 0.5])), 10, seed=0)
    with pytest.raises(ContractViolation):
        run(investment_game, UpdateRule.simultaneous(),
            UpdateSchedule.every_stage(), (Belief.uniform(3), good_q), 0,
            seed=0)
    with pytest.raises(ContractViolation):
        UpdateRule("bogus")


def test_run_does_not_mutate_the_schedule(investment_game):
    sched = UpdateSchedule.fixed_batch(7)
    init = (Belief.uniform(3), np.asarray([0.5, 0.5]))
    run(investment_game, UpdateRule.simultaneous(), sched, init, 30, seed=0)
    assert sched.last_k == 1 and sched.t_index == 0


def test_replica_seed_is_deterministic_and_spread():
    seeds = [replica_seed(123, k) for k in range(100)]
    assert seeds == [replica_seed(123, k) for k in range(100)]
    assert len(set(seeds)) == 100
    assert replica_seed(123, 0) != replica_seed(124, 0)


def test_trajectory_csv_roundtrip(tmp_path, investment_game):
    traj = run(investment_game, UpdateRule.simultaneous(),
               UpdateSchedule.every_stage(),
               (Belief.uniform(3), np.asarray([0.5, 0.5])), 25, seed=8)
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
            a = best_response(game, probs, i, q).tied_actions[0]
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
                game, probs, i, q, current=q[game.slices[i]]).point
        return out
    if rule.kind == "sequential":
        i = (t - 1) % n
        out = q.copy()
        out[game.slices[i]] = best_response(
            game, probs, i, q, current=q[game.slices[i]]).point
        return out
    if rule.kind == "linear":
        alpha = float(rule.alpha_schedule(t))
        out = q.copy()
        for i in range(n):
            br = best_response(game, probs, i, q,
                               current=q[game.slices[i]]).point
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
    belief, q0 = init
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    schedule = schedule.clone()
    next_k = next_update_stage(schedule, rng)
    thetas = np.empty((horizon, len(game.space)))
    qs = np.empty((horizon, game.q_dim))
    cs = np.empty((horizon, game.obs_dim))
    upd = np.zeros(horizon, dtype=bool)
    acts = (np.empty((horizon, game.n_players), dtype=np.int64)
            if game.kind == "finite" else None)
    log_probs = np.asarray(belief.log_probs, dtype=float)
    q = np.asarray(q0, dtype=float).copy()
    pending = []
    last_big_move = 0
    converged = False
    t_stop = horizon
    eq_checkpoints = []
    for t in range(1, horizon + 1):
        thetas[t - 1] = np.exp(log_probs)
        qs[t - 1] = q
        profile, actions = _ref_realized_profile(game, rule.kind, log_probs,
                                                 q, rng)
        c = sample_payoffs(game, game.space.true_index, profile, rng)
        pending.append((profile, c))
        updated = False
        if t + 1 == next_k:
            log_probs = _log_normalize(log_probs + batch_log_likelihoods(
                None, ObservationBatch(pending), game))
            pending = []
            next_k = next_update_stage(schedule, rng)
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
    return Trajectory(thetas=thetas, qs=qs, cs=cs, updated=upd, actions=acts,
                      summary=summary)


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
    for name in ("thetas", "qs", "cs", "updated"):
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
                                            respond_to):
    game = _builtin_game(game_id)
    n = len(game.space)
    belief = Belief.from_probs(np.arange(1.0, n + 1.0))
    init = (belief, game.box_center())
    rule = UpdateRule(rule_kind)
    for stop, kw in ((False, {}),
                     (True, {"conv_window": 20, "conv_tol": 1e-2})):
        got = run(game, rule, _SCHEDULES[schedule](), init, 150, seed=17,
                  stop_when_converged=stop, respond_to=respond_to, **kw)
        want = _reference_run(game, rule, _SCHEDULES[schedule](), init, 150,
                              seed=17, stop_when_converged=stop,
                              respond_to=respond_to, **kw)
        _assert_same_trajectory(got, want)
