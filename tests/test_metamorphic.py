"""Metamorphic relations of the stage loop: two runs that must agree.

Each relation compares two `run`s of the same game, seed and horizon, so it
needs no reference loop.  All but the last hold bit for bit:
- the schedule ``fixed_batch(1)`` is ``every_stage``;
- the linear rule with stepsize 1 is the simultaneous rule;
- ``two_timescale`` with every gap 1 is ``every_stage``;
- in Cournot, swapping the players' starting strategies under the
  simultaneous or the linear rule gives the same belief and price rows and
  mirrored strategy rows: the price reads q1 + q2 and each firm's best
  response reads the other's strategy.
Investment's swap agrees only to rounding, because its channel mean adds
s + q1 + q2 in that order: over 120 runs of 5,000 stages from random
starts, the belief rows differed by at most 1.8e-15 and the strategy rows
by at most 4.4e-16.  (``geometric(1.0)`` is not ``every_stage``: its
gap is a draw, which shifts the noise stream.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplay import games
from beliefplay.cli import GAMES
from beliefplay.dynamics import UpdateRule, run
from beliefplay.param_belief import UpdateSchedule

GAME_IDS = ("cournot", "investment", "zerosum", "coordination_penalty",
            "two_route_congestion", "affine")
RULES = {"continuous": ("simultaneous", "sequential", "linear"),
         "finite": ("simultaneous", "sequential", "linear",
                    "fictitious_play")}


def _game(game_id):
    factory, _, defaults = GAMES[game_id]
    return factory(**defaults)


@st.composite
def runs(draw, rules=None):
    """(game, rule kind, init, horizon, seed, respond_to) of a short run: a
    full-support start belief and a random start profile."""
    game = _game(draw(st.sampled_from(GAME_IDS)))
    rule = draw(st.sampled_from(rules or RULES[game.kind]))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(game.space),
                            max_size=len(game.space)))
    start = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    init = (weights, game.random_profile(start))
    horizon = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    respond_to = draw(st.sampled_from(["posterior", "map"]))
    return game, rule, init, horizon, seed, respond_to


def _rule(kind):
    if kind == "linear":
        return UpdateRule.linear()
    return UpdateRule(kind)


def _rows(traj):
    """Every recorded row and the summary, as bytes and reprs."""
    acts = None if traj.actions is None else traj.actions.tobytes()
    return (traj.thetas.tobytes(), traj.log_thetas.tobytes(),
            traj.qs.tobytes(), traj.cs.tobytes(), traj.updated.tobytes(),
            acts, repr(traj.summary))


def _same_run(a, b, *relabelled):
    """``a`` and ``b`` agree bit for bit, but for the summary entries named
    in ``relabelled``, which name the schedule or the rule."""
    for traj in (a, b):
        for key in relabelled:
            traj.summary.pop(key)
    assert _rows(a) == _rows(b)


@settings(max_examples=60, deadline=None)
@given(runs())
def test_fixed_batch_of_one_is_every_stage(case):
    game, rule, init, horizon, seed, respond_to = case
    a, b = (run(game, _rule(rule), schedule, init, horizon, seed,
                respond_to=respond_to)
            for schedule in (UpdateSchedule.fixed_batch(1),
                             UpdateSchedule.every_stage()))
    _same_run(a, b, "schedule")


@settings(max_examples=60, deadline=None)
@given(runs())
def test_two_timescale_with_unit_gaps_is_every_stage(case):
    game, rule, init, horizon, seed, respond_to = case
    a, b = (run(game, _rule(rule), schedule, init, horizon, seed,
                respond_to=respond_to)
            for schedule in (UpdateSchedule.two_timescale(lambda n: 1),
                             UpdateSchedule.every_stage()))
    _same_run(a, b, "schedule")


@settings(max_examples=60, deadline=None)
@given(runs(rules=("simultaneous",)),
       st.sampled_from(["every_stage", "fixed_batch"]),
       st.sampled_from([1, 1.0, np.float64(1.0)]))
def test_linear_rule_with_unit_step_is_simultaneous(case, schedule, one):
    game, _, init, horizon, seed, respond_to = case
    schedule = (UpdateSchedule.every_stage() if schedule == "every_stage"
                else UpdateSchedule.fixed_batch(3))
    a, b = (run(game, rule, schedule, init, horizon, seed,
                respond_to=respond_to)
            for rule in (UpdateRule.linear(lambda t: one),
                         UpdateRule.simultaneous()))
    _same_run(a, b, "rule")


def _swapped_runs(game, rule, q, horizon, seed, schedule):
    """Runs of ``game`` from q and from q with the two players swapped."""
    init = [1.0] * len(game.space)
    return (run(game, rule, schedule, (init, start), horizon, seed)
            for start in (q, q[::-1]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["simultaneous", "linear"]), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.integers(1, 300), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["every_stage", "fixed_batch"]))
def test_swapping_cournot_players_mirrors_the_strategies(rule, u, v, horizon,
                                                         seed, schedule):
    schedule = (UpdateSchedule.every_stage() if schedule == "every_stage"
                else UpdateSchedule.fixed_batch(4))
    a, b = _swapped_runs(games.cournot(), _rule(rule), [3.0 * u, 3.0 * v],
                         horizon, seed, schedule)
    assert a.thetas.tobytes() == b.thetas.tobytes()
    assert a.log_thetas.tobytes() == b.log_thetas.tobytes()
    assert a.cs.tobytes() == b.cs.tobytes()
    assert a.qs.tobytes() == np.ascontiguousarray(b.qs[:, ::-1]).tobytes()


@pytest.mark.parametrize("rule", ["simultaneous", "linear"])
@pytest.mark.parametrize("seed", [0, 7, 2025])
def test_swapping_investment_players_mirrors_the_strategies_to_rounding(
        rule, seed):
    # r = s + q1 + q2 rounds differently from s + q2 + q1
    a, b = _swapped_runs(games.investment(), _rule(rule), [0.15, 0.8], 2000,
                         seed, UpdateSchedule.every_stage())
    assert np.max(np.abs(a.thetas - b.thetas)) <= 1e-14
    assert np.max(np.abs(a.qs - b.qs[:, ::-1])) <= 1e-14
