"""Unit tests for the game models: payoff oracles, best responses,
equilibrium descriptions and the observation channels."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplay import games
from beliefplay.games import (
    BRResult,
    EquilibriumSet,
    best_response,
    br_profile,
    equilibrium_set,
    expected_payoff,
    sample_payoffs,
)
from beliefplay.param_belief import Belief, ContractViolation


def strip_analytic_br(game):
    return dataclasses.replace(game, analytic_br=None)


# ---------------------------------------------------------------------------
# Expected payoffs (hand values)


def test_cournot_expected_payoff_hand_value(cournot_game):
    # theta = (1/2, 1/2), q = (1/2, 1/2): E[alpha] = 3, E[beta] = 2,
    # u_1 = 0.5 * (3 - 2 * 1) = 0.5
    val = expected_payoff(cournot_game, Belief.uniform(2), [0.5, 0.5], 0)
    assert math.isclose(val, 0.5, abs_tol=1e-14)


def test_investment_expected_payoff_hand_value(investment_game):
    # point mass on s = 1, q = (1/3, 1/3): u_1 = (1/3)(1 - 2/3 + 1/3) = 2/9
    val = expected_payoff(investment_game, Belief.point_mass(3, 1),
                          [1.0 / 3.0, 1.0 / 3.0], 0)
    assert math.isclose(val, 2.0 / 9.0, abs_tol=1e-14)


def test_zerosum_payoffs_sum_to_zero_exactly(zerosum_game, rng):
    for _ in range(50):
        q = 6.0 * rng.random(2)
        s = rng.integers(0, 3)
        for i in range(2):
            u1 = zerosum_game.mean_payoff(s, q, 0)
            u2 = zerosum_game.mean_payoff(s, q, 1)
            assert u1 + u2 == 0.0
        c = sample_payoffs(zerosum_game, int(s), q, rng)
        assert c[0] + c[1] == 0.0  # anti-correlated noise, exact cancellation


def test_coordination_penalty_continuous_at_the_kink(coordination_game):
    # common cost branches meet at |q1 - q2| = 1 with value -1
    for s in range(2):
        below = coordination_game.mean_payoff(s, [1.0, 2.0 - 1e-12], 0)
        at = coordination_game.mean_payoff(s, [1.0, 2.0], 0)
        above = coordination_game.mean_payoff(s, [1.0, 2.0 + 1e-12], 0)
        assert abs(below - at) < 1e-10
        assert abs(above - at) < 1e-10
        assert math.isclose(at, -1.0 - 1.0, abs_tol=1e-14)  # cost - q1


def test_routing_mean_payoff(routing_game):
    # both players on route 0, s = 1: own cost = 1*(1+1)+1 = 3
    q = np.asarray([1.0, 0.0, 1.0, 0.0])
    assert routing_game.mean_payoff(0, q, 0) == -3.0
    # split (route 0 / route 1), s = 2: each alone, cost = 2*1+1 = 3
    q = np.asarray([1.0, 0.0, 0.0, 1.0])
    assert routing_game.mean_payoff(1, q, 0) == -3.0
    assert routing_game.mean_payoff(1, q, 1) == -3.0


# ---------------------------------------------------------------------------
# Best responses


def test_cournot_analytic_br(cournot_game):
    # point mass on s1: BR = 2/(2*1)/... = 1 - q_j/2
    br = best_response(cournot_game, Belief.point_mass(2, 0), 0,
                       [0.0, 2.0 / 3.0])
    assert math.isclose(br.point[0], 2.0 / 3.0, abs_tol=1e-14)
    assert not br.is_set_valued


def test_investment_analytic_br(investment_game):
    br = best_response(investment_game, Belief.point_mass(3, 1), 0, [0.0, 1.0])
    assert math.isclose(br.point[0], 0.5, abs_tol=1e-14)


def test_zerosum_br_interval_and_canonical(zerosum_game):
    full = Belief.uniform(3)
    # player 1 always best responds with 0
    br1 = best_response(zerosum_game, full, 0, [3.0, 3.0])
    assert br1.point[0] == 0.0
    # player 2's best response is the interval [q1 - 1, q1 + 1] (m = 1 under
    # full support); the canonical point keeps the current strategy when it
    # already lies inside
    br2 = best_response(zerosum_game, full, 1, [3.0, 3.5])
    assert br2.is_set_valued
    lo, hi = br2.interval
    assert math.isclose(lo[0], 2.0, abs_tol=1e-14)
    assert math.isclose(hi[0], 4.0, abs_tol=1e-14)
    assert br2.point[0] == 3.5
    # ... and projects into the interval when outside
    br2 = best_response(zerosum_game, full, 1, [3.0, 5.5])
    assert br2.point[0] == 4.0


def test_finite_game_br_ties(routing_game):
    # opponent mixing 50/50 makes both routes equally costly
    q = np.asarray([1.0, 0.0, 0.5, 0.5])
    br = best_response(routing_game, Belief.point_mass(2, 0), 0, q)
    assert br.tied_actions == (0, 1)
    assert br.is_set_valued
    # canonical keeps the current pure action when tied
    assert np.array_equal(br.point, [1.0, 0.0])
    q2 = np.asarray([0.0, 1.0, 0.5, 0.5])
    br = best_response(routing_game, Belief.point_mass(2, 0), 0, q2)
    assert np.array_equal(br.point, [0.0, 1.0])


def test_cournot_br_contraction(cournot_game, rng):
    # |BR(q) - BR(q')| <= 0.5 |q - q'| in the opponent coordinate
    b = Belief.from_probs([0.7, 0.3])
    for _ in range(30):
        qa, qb = 3.0 * rng.random(2)
        ba = best_response(cournot_game, b, 0, [0.0, qa]).point[0]
        bb = best_response(cournot_game, b, 0, [0.0, qb]).point[0]
        assert abs(ba - bb) <= 0.5 * abs(qa - qb) + 1e-12


AFFINE_ALPHA = [[-2.0, 1.0], [1.0, -2.0]]
AFFINE_BETA = [1.0, 1.0]
# three (alpha, beta) entries; each player's own slopes alpha^s_ii have both
# signs across the grid: player 1 (-2, 1.5, -0.5), player 2 (-2, 0.5, 3)
AFFINE_GRID = [[-2.0, 1.0, 1.0, -2.0, 1.0, 1.0],
               [1.5, 1.0, 1.0, 0.5, 1.0, 1.0],
               [-0.5, 0.0, 2.0, 3.0, 0.0, 0.5]]


def affine_default():
    return games.affine_game(AFFINE_ALPHA, AFFINE_BETA, 0.5)


def affine_mixed_slopes():
    return games.affine_game(AFFINE_ALPHA, AFFINE_BETA, 0.5, grid=AFFINE_GRID)


@pytest.mark.parametrize("maker", [
    games.cournot, games.investment, games.zerosum_example,
    games.coordination_penalty,
    pytest.param(affine_default, id="affine"),
    pytest.param(affine_mixed_slopes, id="affine_mixed_slopes"),
])
def test_numeric_br_matches_analytic(maker, rng):
    game = maker()
    numeric = strip_analytic_br(game)
    n = len(game.space)
    for _ in range(25):
        probs = rng.dirichlet(np.ones(n))
        q = game.box_lo() + (game.box_hi() - game.box_lo()) * rng.random(2)
        for i in range(2):
            ana = best_response(game, probs, i, q)
            num = best_response(numeric, probs, i, q)
            if ana.is_set_valued:
                lo, hi = ana.interval
                gap = max(lo[0] - num.point[0], num.point[0] - hi[0], 0.0)
                assert gap <= 1e-6
            else:
                assert abs(num.point[0] - ana.point[0]) <= 1e-6


def test_affine_br_exact_flat_returns_clipped_current():
    # player 1's own slope is 0 under the truth, and 0.5 * 1 + 0.5 * (-1) = 0
    # under an even mixture of slopes +1 and -1
    flat = games.affine_game([[0.0, 1.0], [1.0, -2.0]], AFFINE_BETA, 0.5)
    mixed = games.affine_game(
        AFFINE_ALPHA, AFFINE_BETA, 0.5,
        grid=[[1.0, 1.0, 1.0, -2.0, 1.0, 1.0],
              [-1.0, 3.0, 1.0, -2.0, 0.0, 1.0]])
    for game, probs in ((flat, [1.0]), (mixed, [0.5, 0.5])):
        for current, expected in ((0.4, 0.4), (1.7, 1.0), (-0.3, 0.0)):
            br = best_response(game, probs, 0, [0.2, 0.9], current=[current])
            assert br.is_set_valued
            assert br.interval == ((0.0,), (1.0,))
            assert br.point[0] == expected
        # player 2's slope is -2: the lower box edge, exactly
        br = best_response(game, probs, 1, [0.2, 0.9])
        assert not br.is_set_valued
        assert br.point[0] == 0.0


def _own_slope(grid, n, probs, i):
    return sum(p * grid[s][i * n + i] for s, p in enumerate(probs) if p > 0)


@st.composite
def _affine_case(draw):
    n = draw(st.integers(1, 3))
    coef = st.floats(-5.0, 5.0, allow_nan=False)
    grid = draw(st.lists(st.lists(coef, min_size=n * n + n,
                                  max_size=n * n + n),
                         min_size=1, max_size=3, unique_by=tuple))
    weights = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 3.7]),
                            min_size=len(grid), max_size=len(grid))
                   .filter(lambda w: sum(w) > 0))
    probs = np.asarray(weights) / sum(weights)
    unit = st.floats(0.0, 1.0)
    q = np.asarray(draw(st.lists(unit, min_size=n, max_size=n)))
    current = draw(st.floats(-0.5, 1.5))
    return n, grid, probs, q, current


@settings(max_examples=200, deadline=None)
@given(_affine_case())
def test_affine_closed_form_br_matches_numeric_oracle(case):
    n, grid, probs, q, current = case
    game = games.affine_game(np.reshape(grid[0][: n * n], (n, n)),
                             grid[0][n * n:], 0.5, grid=grid)
    numeric = strip_analytic_br(game)
    for i in range(n):
        # the oracle cannot decide 1e-13 < |m| < 1e-6: its flatness test
        # reads a 201-point grid, and its golden-section comparisons lose
        # so small a slope to rounding
        m = _own_slope(grid, n, probs, i)
        if 1e-13 < abs(m) < 1e-6:
            continue
        ana = best_response(game, probs, i, q, current=[current])
        num = best_response(numeric, probs, i, q, current=[current])
        assert ana.is_set_valued == num.is_set_valued
        assert abs(ana.point[0] - num.point[0]) <= 1e-6
        if abs(m) > 1e-6:
            assert ana.point[0] == (1.0 if m > 0 else 0.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha": [[1.0, 2.0, 3.0]]}, "n x n"),
    ({"alpha": [1.0, 2.0]}, "n x n"),
    ({"beta": [1.0, 1.0, 1.0]}, "beta must have length 2"),
    ({"grid": [[1.0] * 6, [1.0] * 5]}, "grid entry must have length"),
    ({"alpha": [[float("nan"), 1.0], [1.0, -2.0]]}, "finite"),
    ({"beta": [1.0, float("inf")]}, "finite"),
    ({"grid": [[1.0] * 5 + [float("nan")]]}, "finite"),
], ids=["alpha_not_square", "alpha_1d", "beta_length", "grid_entry_length",
        "alpha_nan", "beta_inf", "grid_nan"])
def test_affine_game_rejects_bad_inputs(kwargs, message):
    args = {"alpha": AFFINE_ALPHA, "beta": AFFINE_BETA, "sigma": 0.5}
    args.update(kwargs)
    with pytest.raises(ContractViolation, match=message):
        games.affine_game(**args)


NOISE_FACTORIES = [
    (games.cournot, "sigma"), (games.zerosum_example, "sigma"),
    (games.coordination_penalty, "sigma"),
    (lambda sigma: games.two_route_congestion(sigma=sigma), "sigma"),
    (lambda sigma: games.affine_game(AFFINE_ALPHA, AFFINE_BETA, sigma),
     "sigma"),
    (lambda sigma: games.investment(sigmas=(1.0, sigma, 1.0)), "sigmas"),
]


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("factory, name", NOISE_FACTORIES,
                         ids=["cournot", "zerosum", "coordination_penalty",
                              "two_route_congestion", "affine", "investment"])
def test_game_factories_reject_bad_noise_scales(factory, name, bad):
    with pytest.raises(ContractViolation, match="%s must be a finite" % name):
        factory(bad)
    # degenerate (noiseless) channels stay allowed
    assert np.all(np.asarray(factory(0.0).channel_sigmas(0)) >= 0.0)


def test_investment_needs_one_noise_scale_per_parameter():
    with pytest.raises(ContractViolation, match="one entry per parameter"):
        games.investment(sigmas=(1.0, 1.0))


def test_br_profile_stacks_players(investment_game):
    b = Belief.point_mass(3, 1)
    out = br_profile(investment_game, b, np.asarray([0.2, 0.6]))
    assert math.isclose(out[0], (1.0 + 0.6) / 4.0, abs_tol=1e-14)
    assert math.isclose(out[1], (1.0 + 0.2) / 4.0, abs_tol=1e-14)


# ---------------------------------------------------------------------------
# Equilibrium sets


def test_cournot_equilibrium_points(cournot_game):
    eq = equilibrium_set(cournot_game, Belief.point_mass(2, 0))
    assert np.allclose(eq.point, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    eq = equilibrium_set(cournot_game, Belief.uniform(2))
    # E[alpha] = 3, E[beta] = 2, r = 3/4, q = 1/2
    assert np.allclose(eq.point, [0.5, 0.5], atol=1e-14)


def test_investment_equilibrium_point(investment_game):
    eq = equilibrium_set(investment_game, Belief.point_mass(3, 1))
    assert np.allclose(eq.point, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_zerosum_equilibrium_box(zerosum_game):
    eq = equilibrium_set(zerosum_game, Belief.point_mass(3, 1))
    assert eq.kind == "box"
    assert eq.lo == (0.0, 0.0) and eq.hi == (0.0, 3.0)
    eq = equilibrium_set(zerosum_game, Belief.uniform(3))
    assert eq.hi == (0.0, 1.0)


def test_coordination_equilibrium_line(coordination_game):
    eq = equilibrium_set(coordination_game, Belief.uniform(2))
    assert eq.kind == "line"
    # every point on the line satisfies q2 - q1 = 1/2 and both BRs fix it
    for q in eq.representatives(7):
        assert math.isclose(q[1] - q[0], 0.5, abs_tol=1e-12)
        out = br_profile(coordination_game, Belief.uniform(2), q)
        assert np.allclose(out, q, atol=1e-12)


def test_routing_equilibrium_list(routing_game):
    eq = equilibrium_set(routing_game, Belief.point_mass(2, 0))
    assert eq.kind == "finite_list"
    assert (0.5, 0.5, 0.5, 0.5) in eq.members
    for m in eq.members:
        out = br_profile(routing_game, Belief.point_mass(2, 0),
                         np.asarray(m))
        # pure equilibria are fixed; at the mixed one every action ties
        if max(m) == 1.0:
            assert np.array_equal(out, m)


def test_equilibrium_set_distance_geometry():
    pt = EquilibriumSet.of_point((1.0, 2.0))
    assert pt.distance([1.0, 2.5]) == 0.5
    box = EquilibriumSet.of_box((0.0, 0.0), (0.0, 3.0))
    assert box.distance([0.2, 1.0]) == pytest.approx(0.2)
    assert box.distance([0.0, 3.4]) == pytest.approx(0.4)
    assert box.distance([0.0, 2.0]) == 0.0
    line = EquilibriumSet.of_line((0.5, 1.0), (1.0, 1.0), (0.0, 1.5))
    assert line.distance([0.5, 1.0]) < 1e-9
    assert line.distance([2.0, 2.5]) == pytest.approx(0.0, abs=1e-9)
    assert line.distance([3.0, 3.5]) == pytest.approx(1.0, abs=1e-6)
    fl = EquilibriumSet.of_finite_list([(0.0, 1.0), (1.0, 0.0)])
    assert fl.distance([0.1, 0.8]) == pytest.approx(0.2)


def test_equilibrium_set_project_geometry():
    box = EquilibriumSet.of_box((0.0, 0.0), (0.0, 3.0))
    assert np.array_equal(box.project([0.4, 2.0]), [0.0, 2.0])
    line = EquilibriumSet.of_line((0.5, 1.0), (1.0, 1.0), (0.0, 1.5))
    proj = line.project([1.0, 1.5])
    assert np.allclose(proj, [1.0, 1.5], atol=1e-8)
    fl = EquilibriumSet.of_finite_list([(0.0, 0.0), (1.0, 1.0)])
    assert np.array_equal(fl.project([0.9, 0.8]), [1.0, 1.0])


def test_line_projection_takes_smallest_nearest_t():
    # every t in [0, 1] is at distance 1 from q; the smallest one wins
    line = EquilibriumSet.of_line((0.0, 0.0), (1.0, 0.0), (0.0, 2.0))
    assert np.array_equal(line.project([0.5, 1.0]), [0.0, 0.0])
    assert line.distance([0.5, 1.0]) == 1.0


_coord = st.one_of(st.integers(-8, 8).map(lambda k: k / 4.0),
                   st.floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-3))


@st.composite
def _eq_set_and_query(draw):
    dim = draw(st.integers(1, 4))
    vec = st.lists(_coord, min_size=dim, max_size=dim).map(np.asarray)
    kind = draw(st.sampled_from(["point", "box", "line", "finite_list"]))
    if kind == "point":
        eq = EquilibriumSet.of_point(draw(vec))
    elif kind == "box":
        a, b = draw(vec), draw(vec)
        eq = EquilibriumSet.of_box(np.minimum(a, b), np.maximum(a, b))
    elif kind == "line":
        t_range = sorted(draw(st.lists(_coord, min_size=2, max_size=2)))
        eq = EquilibriumSet.of_line(draw(vec), draw(vec), t_range)
    else:
        eq = EquilibriumSet.of_finite_list(
            draw(st.lists(vec, min_size=1, max_size=5)))
    return eq, draw(vec)


def _is_member(eq, p, tol=1e-9):
    if eq.kind == "point":
        return np.array_equal(p, eq.point)
    if eq.kind == "box":
        return bool(np.all(np.asarray(eq.lo) <= p)
                    and np.all(p <= np.asarray(eq.hi)))
    if eq.kind == "finite_list":
        return tuple(p.tolist()) in eq.members
    base, d = np.asarray(eq.base), np.asarray(eq.direction)
    k = int(np.argmax(np.abs(d)))
    if d[k] == 0.0:
        return np.array_equal(p, base)
    t = (p[k] - base[k]) / d[k]
    a, b = eq.t_range
    return (a - tol <= t <= b + tol
            and float(np.max(np.abs(base + t * d - p))) <= tol)


@st.composite
def _eq_set_and_stack(draw):
    eq, q = draw(_eq_set_and_query())
    dim = q.size
    vec = st.lists(_coord, min_size=dim, max_size=dim)
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    # members, and midpoints of two members (ties), exercise the kinks and
    # the first-nearest rule
    rows += [eq.sample(1, np.random.default_rng(len(rows)))[0].tolist(),
             q.tolist()]
    if eq.kind == "finite_list":
        rows += [((np.asarray(a) + np.asarray(b)) / 2.0).tolist()
                 for a, b in zip(eq.members, eq.members[1:])]
    return eq, np.asarray(rows, dtype=float)


def _reference_project(eq, q):
    """The one-profile projection, scalar code: the reference for the
    vectorised one."""
    if eq.kind == "point":
        return np.asarray(eq.point)
    if eq.kind == "box":
        return np.clip(q, np.asarray(eq.lo), np.asarray(eq.hi))
    if eq.kind == "line":
        base, d = np.asarray(eq.base), np.asarray(eq.direction)
        r = q - base
        num = np.concatenate([np.add.outer(r, r),
                              np.subtract.outer(r, r)]).ravel()
        den = np.concatenate([np.add.outer(d, d),
                              np.subtract.outer(d, d)]).ravel()
        kinks = num[den != 0.0] / den[den != 0.0]
        ts = np.concatenate([eq.t_range, np.clip(kinks, *eq.t_range)])
        dist = np.max(np.abs(r - ts[:, None] * d), axis=1)
        return base + np.min(ts[dist == np.min(dist)]) * d
    return np.asarray(min(eq.members,
                          key=lambda m: float(np.max(np.abs(q - np.asarray(m))))))


@settings(max_examples=300, deadline=None)
@given(_eq_set_and_stack())
def test_stacked_projection_equals_row_by_row(case):
    eq, stack = case
    proj = eq.project(stack)
    dist = eq.distance(stack)
    assert proj.shape == stack.shape and dist.shape == (len(stack),)
    for k, row in enumerate(stack):
        want = _reference_project(eq, row)
        assert proj[k].tobytes() == eq.project(row).tobytes() == want.tobytes()
        want_dist = np.max(np.abs(row - want))
        assert (dist[k].tobytes() == np.float64(eq.distance(row)).tobytes()
                == want_dist.tobytes())


@pytest.mark.parametrize("n_players", [0, -1, True, 2.0, "2"])
def test_routing_rejects_bad_player_counts(n_players):
    with pytest.raises(ContractViolation, match="n_players must be an integer"):
        games.two_route_congestion(n_players=n_players)


@settings(max_examples=300, deadline=None)
@given(_eq_set_and_query())
def test_projection_is_the_nearest_member(case):
    eq, q = case
    proj = eq.project(q)
    assert _is_member(eq, proj)
    dist = eq.distance(q)
    assert dist == float(np.max(np.abs(q - proj)))
    members = np.vstack([eq.representatives(9),
                         eq.sample(64, np.random.default_rng(0))])
    assert np.min(np.max(np.abs(members - q), axis=1)) >= dist - 1e-9


def test_equilibrium_set_samples_are_members(rng):
    box = EquilibriumSet.of_box((0.0, 1.0), (0.5, 4.0))
    for q in box.sample(50, rng):
        assert box.distance(q) < 1e-12
    line = EquilibriumSet.of_line((0.5, 1.0), (1.0, 1.0), (0.0, 1.5))
    for q in line.sample(50, rng):
        assert line.distance(q) < 1e-9


def test_iterated_br_fallback_equilibrium():
    # affine game has no analytic equilibrium description; payoffs are linear
    # so each best response sits at a box corner
    game = games.affine_game([[-2.0, 1.0], [1.0, -2.0]], [1.0, 1.0], 0.5)
    eq = equilibrium_set(game, Belief.point_mass(1, 0))
    assert eq.kind == "finite_list"
    for m in eq.members:
        out = br_profile(game, Belief.point_mass(1, 0), np.asarray(m))
        assert np.max(np.abs(out - np.asarray(m))) < 1e-8


# ---------------------------------------------------------------------------
# Channels and sampling


def test_sample_payoffs_deterministic_when_noiseless(rng):
    game = games.investment(sigmas=(0.0, 0.0, 0.0))
    q = np.asarray([0.25, 0.5])
    c = sample_payoffs(game, 1, q, rng)
    assert np.array_equal(c, game.channel_means(1, q))


def test_sample_payoffs_mean_and_scale(cournot_game):
    rng = np.random.default_rng(0)
    q = np.asarray([1.0, 1.0])
    draws = np.asarray(
        [sample_payoffs(cournot_game, 0, q, rng)[0] for _ in range(4000)]
    )
    assert abs(draws.mean() - 0.0) < 0.05  # mean price 2 - 2 = 0
    assert abs(draws.std() - math.sqrt(0.5)) < 0.05


def test_feasibility_and_box_center(zerosum_game, routing_game):
    assert zerosum_game.feasible([0.0, 6.0])
    assert not zerosum_game.feasible([-0.1, 1.0])
    assert not zerosum_game.feasible([1.0, 6.1])
    assert np.array_equal(zerosum_game.box_center(), [3.0, 3.0])
    assert routing_game.feasible([0.5, 0.5, 1.0, 0.0])
    assert not routing_game.feasible([0.7, 0.7, 1.0, 0.0])
    assert np.array_equal(routing_game.box_center(), [0.5, 0.5, 0.5, 0.5])


def test_finite_games_have_no_strategy_box(routing_game):
    with pytest.raises(ContractViolation, match="no strategy box"):
        routing_game.box_lo()
    with pytest.raises(ContractViolation, match="no strategy box"):
        routing_game.box_hi()


def test_random_profile_draws(zerosum_game, routing_game):
    # continuous: uniform on the box, one draw per player from the stream
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    q = zerosum_game.random_profile(a)
    lo, hi = zerosum_game.box_lo(), zerosum_game.box_hi()
    assert np.array_equal(q, lo + (hi - lo) * b.random(2))
    # finite: one Dirichlet mixed strategy per player
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    q = routing_game.random_profile(a)
    assert np.array_equal(q, np.concatenate([b.dirichlet(np.ones(2)),
                                             b.dirichlet(np.ones(2))]))
    assert routing_game.feasible(q)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_cournot_br_is_a_maximizer(q1, q2, p):
    game = games.cournot()
    probs = np.asarray([p, 1.0 - p])
    br = best_response(game, probs, 0, np.asarray([q1, q2]))
    star = br.point[0]
    base = expected_payoff(game, probs, [star, q2], 0)
    for x in np.linspace(0.0, 3.0, 31):
        assert expected_payoff(game, probs, [x, q2], 0) <= base + 1e-9
