"""Unit tests for the game models: payoff oracles, best responses,
equilibrium descriptions and the observation channels."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplay import games
from beliefplay.cli import GAMES
from beliefplay.games import (
    EquilibriumSet,
    best_response,
    br_profile,
    equilibrium_set,
    expected_payoff,
    sample_payoffs,
    tied_actions,
)
from beliefplay.param_belief import ContractViolation
from oracles import (analytic_interval, numeric_best_response,
                     reference_box_center, reference_project,
                     reference_random_profile, reference_representatives,
                     reference_sample, reference_sample_payoffs)


# ---------------------------------------------------------------------------
# Expected payoffs (hand values)


def test_cournot_expected_payoff_hand_value(cournot_game):
    # theta = (1/2, 1/2), q = (1/2, 1/2): E[alpha] = 3, E[beta] = 2,
    # u_1 = 0.5 * (3 - 2 * 1) = 0.5
    val = expected_payoff(cournot_game, [0.5, 0.5], [0.5, 0.5], 0)
    assert math.isclose(val, 0.5, abs_tol=1e-14)


def test_investment_expected_payoff_hand_value(investment_game):
    # point mass on s = 1, q = (1/3, 1/3): u_1 = (1/3)(1 - 2/3 + 1/3) = 2/9
    val = expected_payoff(investment_game, [0.0, 1.0, 0.0],
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
    belief, q = [1.0, 0.0], [0.0, 2.0 / 3.0]
    br = best_response(cournot_game, belief, 0, q)
    assert math.isclose(br[0], 2.0 / 3.0, abs_tol=1e-14)
    lo, hi = analytic_interval(cournot_game, belief, 0, q)
    assert lo == hi


def test_investment_analytic_br(investment_game):
    br = best_response(investment_game, [0.0, 1.0, 0.0], 0, [0.0, 1.0])
    assert math.isclose(br[0], 0.5, abs_tol=1e-14)


def test_zerosum_br_interval_and_canonical(zerosum_game):
    full = [1 / 3] * 3
    # player 1 always best responds with 0
    br1 = best_response(zerosum_game, full, 0, [3.0, 3.0])
    assert br1[0] == 0.0
    # player 2's best response is the interval [q1 - 1, q1 + 1] (m = 1 under
    # full support); the canonical point keeps the current strategy when it
    # already lies inside
    br2 = best_response(zerosum_game, full, 1, [3.0, 3.5])
    lo, hi = analytic_interval(zerosum_game, full, 1, [3.0, 3.5])
    assert lo < hi
    assert math.isclose(lo, 2.0, abs_tol=1e-14)
    assert math.isclose(hi, 4.0, abs_tol=1e-14)
    assert br2[0] == 3.5
    # ... and projects into the interval when outside
    br2 = best_response(zerosum_game, full, 1, [3.0, 5.5])
    assert br2[0] == 4.0


def test_finite_game_br_ties(routing_game):
    # opponent mixing 50/50 makes both routes equally costly
    q = np.asarray([1.0, 0.0, 0.5, 0.5])
    br = best_response(routing_game, [1.0, 0.0], 0, q)
    assert tied_actions(routing_game, [1.0, 0.0], 0, q) == (0, 1)
    # canonical keeps the current pure action when tied
    assert br == (1.0, 0.0)
    q2 = np.asarray([0.0, 1.0, 0.5, 0.5])
    br = best_response(routing_game, [1.0, 0.0], 0, q2)
    assert br == (0.0, 1.0)


def test_cournot_br_contraction(cournot_game, rng):
    # |BR(q) - BR(q')| <= 0.5 |q - q'| in the opponent coordinate
    b = [0.7, 0.3]
    for _ in range(30):
        qa, qb = 3.0 * rng.random(2)
        ba = best_response(cournot_game, b, 0, [0.0, qa])[0]
        bb = best_response(cournot_game, b, 0, [0.0, qb])[0]
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
    n = len(game.space)
    for _ in range(25):
        probs = rng.dirichlet(np.ones(n))
        lo, hi = np.asarray(game.box_lo()), np.asarray(game.box_hi())
        q = lo + (hi - lo) * rng.random(2)
        for i in range(2):
            ana = best_response(game, probs, i, q)
            num, _ = numeric_best_response(game, probs, i, q)
            lo, hi = analytic_interval(game, probs, i, q)
            if lo != hi:
                gap = max(lo - num[0], num[0] - hi, 0.0)
                assert gap <= 1e-6
            else:
                assert abs(num[0] - ana[0]) <= 1e-6


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
            assert analytic_interval(game, probs, 0, [0.2, 0.9]) == (0.0, 1.0)
            assert br[0] == expected
        # player 2's slope is -2: the lower box edge, exactly
        br = best_response(game, probs, 1, [0.2, 0.9])
        assert analytic_interval(game, probs, 1, [0.2, 0.9]) == (0.0, 0.0)
        assert br[0] == 0.0


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
    for i in range(n):
        # the oracle cannot decide 1e-13 < |m| < 1e-6: its flatness test
        # reads a 201-point grid, and its golden-section comparisons lose
        # so small a slope to rounding
        m = _own_slope(grid, n, probs, i)
        if 1e-13 < abs(m) < 1e-6:
            continue
        ana = best_response(game, probs, i, q, current=[current])
        num, interval = numeric_best_response(game, probs, i, q,
                                              current=[current])
        lo, hi = analytic_interval(game, probs, i, q)
        assert (lo != hi) == (interval is not None)
        assert abs(ana[0] - num[0]) <= 1e-6
        if abs(m) > 1e-6:
            assert ana[0] == (1.0 if m > 0 else 0.0)


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
    # so does the model, which splits its scales into noisy channels and atoms
    game = factory(1.0)
    with pytest.raises(ContractViolation, match="sigmas must be a finite"):
        dataclasses.replace(game, sigmas=[[1.0] * (game.obs_dim - 1) + [bad]]
                            * len(game.space))
    # degenerate (noiseless) channels stay allowed
    assert np.all(np.asarray(factory(0.0).sigmas[0]) >= 0.0)


def test_investment_needs_one_noise_scale_per_parameter():
    with pytest.raises(ContractViolation, match="one entry per parameter"):
        games.investment(sigmas=(1.0, 1.0))


@pytest.mark.parametrize("game_id", GAMES)
def test_continuous_game_needs_an_analytic_br(game_id):
    # every built-in game builds with its CLI defaults; a continuous game
    # without its closed form is refused, as best_response has no numeric
    # search to fall back on
    factory, _, defaults = GAMES[game_id]
    game = factory(**defaults)
    if game.kind == "continuous":
        with pytest.raises(ContractViolation, match="needs an analytic_br"):
            dataclasses.replace(game, analytic_br=None)


def test_br_profile_stacks_players(investment_game):
    b = [0.0, 1.0, 0.0]
    out = br_profile(investment_game, b, np.asarray([0.2, 0.6]))
    assert math.isclose(out[0], (1.0 + 0.6) / 4.0, abs_tol=1e-14)
    assert math.isclose(out[1], (1.0 + 0.2) / 4.0, abs_tol=1e-14)


# ---------------------------------------------------------------------------
# Equilibrium sets


def test_cournot_equilibrium_points(cournot_game):
    eq = equilibrium_set(cournot_game, [1.0, 0.0])
    assert np.allclose(eq.point, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)
    eq = equilibrium_set(cournot_game, [0.5, 0.5])
    # E[alpha] = 3, E[beta] = 2, r = 3/4, q = 1/2
    assert np.allclose(eq.point, [0.5, 0.5], atol=1e-14)


def test_investment_equilibrium_point(investment_game):
    eq = equilibrium_set(investment_game, [0.0, 1.0, 0.0])
    assert np.allclose(eq.point, [1.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_zerosum_equilibrium_box(zerosum_game):
    eq = equilibrium_set(zerosum_game, [0.0, 1.0, 0.0])
    assert eq.kind == "box"
    assert eq.lo == (0.0, 0.0) and eq.hi == (0.0, 3.0)
    eq = equilibrium_set(zerosum_game, [1 / 3] * 3)
    assert eq.hi == (0.0, 1.0)


def test_coordination_equilibrium_line(coordination_game):
    eq = equilibrium_set(coordination_game, [0.5, 0.5])
    assert eq.kind == "line"
    # every point on the line satisfies q2 - q1 = 1/2 and both BRs fix it
    for q in eq.representatives(7):
        assert math.isclose(q[1] - q[0], 0.5, abs_tol=1e-12)
        out = br_profile(coordination_game, [0.5, 0.5], q)
        assert np.allclose(out, q, atol=1e-12)


def test_routing_equilibrium_list(routing_game):
    eq = equilibrium_set(routing_game, [1.0, 0.0])
    assert eq.kind == "finite_list"
    assert (0.5, 0.5, 0.5, 0.5) in eq.members
    for m in eq.members:
        out = br_profile(routing_game, [1.0, 0.0],
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
        return tuple(p) in eq.members
    base, d = np.asarray(eq.base), np.asarray(eq.direction)
    k = int(np.argmax(np.abs(d)))
    if d[k] == 0.0:
        return np.array_equal(p, base)
    t = (p[k] - base[k]) / d[k]
    a, b = eq.t_range
    return (a - tol <= t <= b + tol
            and float(np.max(np.abs(base + t * d - p))) <= tol)


@st.composite
def _eq_set_and_rows(draw):
    eq, q = draw(_eq_set_and_query())
    dim = q.size
    vec = st.lists(_coord, min_size=dim, max_size=dim)
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    # members, and midpoints of two members (ties), exercise the kinks and
    # the first-nearest rule
    rows += [eq.sample(1, np.random.default_rng(len(rows)))[0], q.tolist()]
    if eq.kind == "finite_list":
        rows += [((np.asarray(a) + np.asarray(b)) / 2.0).tolist()
                 for a, b in zip(eq.members, eq.members[1:])]
    return eq, np.asarray(rows, dtype=float)


def _hex_rows(rows):
    """The bits of each entry of a list of lists of Python floats; any other
    type fails."""
    assert type(rows) is list and all(
        type(row) is list and all(type(x) is float for x in row)
        for row in rows)
    return [[x.hex() for x in row] for row in rows]


_signed_coord = st.one_of(_coord, st.sampled_from([0.0, -0.0]))


@st.composite
def _eq_sets(draw):
    """An equilibrium set of each kind, in 1 to 4 dimensions, whose
    coordinates include 0.0 and -0.0."""
    dim = draw(st.integers(1, 4))
    vec = st.lists(_signed_coord, min_size=dim, max_size=dim)
    kind = draw(st.sampled_from(["point", "box", "line", "finite_list"]))
    if kind == "point":
        return EquilibriumSet.of_point(draw(vec))
    if kind == "box":
        return EquilibriumSet.of_box(draw(vec), draw(vec))
    if kind == "line":
        return EquilibriumSet.of_line(draw(vec), draw(vec), sorted(draw(
            st.lists(_signed_coord, min_size=2, max_size=2))))
    return EquilibriumSet.of_finite_list(
        draw(st.lists(vec, min_size=1, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(_eq_sets(), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_sample_and_representatives_equal_the_numpy_reference(eq, n, seed):
    # lists of floats, bit for bit the rows of the numpy bodies, signed
    # zeros included, with the same draws
    assert _hex_rows(eq.representatives(n)) == _hex_rows(
        reference_representatives(eq, n).tolist())
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _hex_rows(eq.sample(n, a)) == _hex_rows(
        reference_sample(eq, n, b).tolist())
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("game_id", list(GAMES) + ["routing_3"])
def test_box_center_and_random_profile_equal_the_numpy_reference(game_id):
    if game_id == "routing_3":
        game = games.two_route_congestion(n_players=3)
    else:
        factory, _, defaults = GAMES[game_id]
        game = factory(**defaults)
    assert _hex_rows([game.box_center()]) == _hex_rows(
        [reference_box_center(game).tolist()])
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        q = game.random_profile(a)
        assert _hex_rows([q]) == _hex_rows(
            [reference_random_profile(game, b).tolist()])
        assert a.bit_generator.state == b.bit_generator.state
        assert game.feasible(q)


@settings(max_examples=300, deadline=None)
@given(_eq_set_and_rows())
def test_projection_equals_the_reference_row_by_row(case):
    # the float projection of each row, given as a list, a tuple or an
    # array, equals the numpy reference bit for bit, and so does its distance
    eq, rows = case
    for row in rows:
        want = reference_project(eq, row)
        want_dist = np.max(np.abs(row - want))
        for q in (row.tolist(), tuple(row.tolist()), row):
            proj = eq.project(q)
            dist = eq.distance(q)
            assert type(proj) is list and type(dist) is float
            assert np.asarray(proj).tobytes() == want.tobytes()
            assert np.float64(dist).tobytes() == want_dist.tobytes()


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
    eq = equilibrium_set(game, [1.0])
    assert eq.kind == "finite_list"
    for m in eq.members:
        out = br_profile(game, [1.0], np.asarray(m))
        assert np.max(np.abs(out - np.asarray(m))) < 1e-8


# ---------------------------------------------------------------------------
# Channels and sampling


def test_sample_payoffs_deterministic_when_noiseless(rng):
    game = games.investment(sigmas=(0.0, 0.0, 0.0))
    q = np.asarray([0.25, 0.5])
    c = sample_payoffs(game, 1, q, rng)
    assert np.array_equal(c, game.channel_means(q)[1])


def test_sample_payoffs_mean_and_scale(cournot_game):
    rng = np.random.default_rng(0)
    q = np.asarray([1.0, 1.0])
    draws = np.asarray(
        [sample_payoffs(cournot_game, 0, q, rng)[0] for _ in range(4000)]
    )
    assert abs(draws.mean() - 0.0) < 0.05  # mean price 2 - 2 = 0
    assert abs(draws.std() - math.sqrt(0.5)) < 0.05


@pytest.mark.parametrize("game_id", list(GAMES))
@pytest.mark.parametrize("seed", [0, 7, 2025])
def test_sample_payoffs_takes_the_noise_of_a_block_draw(game_id, seed):
    # one (stages, sources) block of standard normals gives each stage the
    # values that its own scalar draws take from the same stream, and so
    # does each stage's own draw; a stage handed its row leaves the rng as
    # it was
    factory, _, defaults = GAMES[game_id]
    game = factory(**defaults)
    width = (game.obs_dim if game.noise_loadings is None
             else len(game.noise_loadings[0]))
    profiles = [game.box_center(), game.random_profile(
        np.random.default_rng(seed))] * 3
    if game.kind == "finite":  # payoffs realize at pure profiles
        profiles = [[1.0, 0.0] * game.n_players] * 6
    s_star = game.space.true_index
    scalar = np.random.default_rng(seed)
    want = [reference_sample_payoffs(game, s_star, q, scalar)
            for q in profiles]
    stage = np.random.default_rng(seed)
    drawn = [sample_payoffs(game, s_star, q, stage) for q in profiles]
    block = np.random.default_rng(seed)
    rows = block.standard_normal((len(profiles), width)).tolist()
    state = block.bit_generator.state
    got = [sample_payoffs(game, s_star, q, block, noise=z)
           for q, z in zip(profiles, rows)]
    for values in (got, drawn):
        assert [[x.hex() for x in c] for c in values] == \
            [[x.hex() for x in c] for c in want]
    assert block.bit_generator.state == state == scalar.bit_generator.state \
        == stage.bit_generator.state


def test_feasibility_and_box_center(zerosum_game, routing_game,
                                    cournot_game):
    assert zerosum_game.feasible([0.0, 6.0])
    assert zerosum_game.feasible(np.asarray([0.0, 6.0]))
    assert not zerosum_game.feasible([-0.1, 1.0])
    assert not zerosum_game.feasible([1.0, 6.1])
    assert not zerosum_game.feasible([math.nan, 1.0])
    assert zerosum_game.box_center() == [3.0, 3.0]
    assert routing_game.feasible([0.5, 0.5, 1.0, 0.0])
    assert not routing_game.feasible([0.7, 0.7, 1.0, 0.0])
    assert not routing_game.feasible([0.5, 0.5, 1.0, -0.1])
    assert routing_game.box_center() == [0.5, 0.5, 0.5, 0.5]
    assert zerosum_game.box_lo() == [0.0, 0.0]
    assert zerosum_game.box_hi() == [6.0, 6.0]
    # a profile of the wrong length is infeasible
    for q in ([0.5], [0.5, 0.5, 0.5], []):
        assert not cournot_game.feasible(q)
    assert not routing_game.feasible([0.5, 0.5, 1.0, 0.0, 0.0])
    assert not routing_game.feasible([0.5, 0.5])


def test_finite_games_have_no_strategy_box(routing_game):
    with pytest.raises(ContractViolation, match="no strategy box"):
        routing_game.box_lo()
    with pytest.raises(ContractViolation, match="no strategy box"):
        routing_game.box_hi()


def test_random_profile_draws(zerosum_game, routing_game):
    # continuous: uniform on the box, one draw per player from the stream
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    q = zerosum_game.random_profile(a)
    assert q == [0.0 + 6.0 * u for u in b.random(2).tolist()]
    # finite: one Dirichlet mixed strategy per player
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    q = routing_game.random_profile(a)
    assert q == (b.dirichlet(np.ones(2)).tolist()
                 + b.dirichlet(np.ones(2)).tolist())
    assert routing_game.feasible(q)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_cournot_br_is_a_maximizer(q1, q2, p):
    game = games.cournot()
    probs = np.asarray([p, 1.0 - p])
    br = best_response(game, probs, 0, np.asarray([q1, q2]))
    star = br[0]
    base = expected_payoff(game, probs, [star, q2], 0)
    for x in np.linspace(0.0, 3.0, 31):
        assert expected_payoff(game, probs, [x, q2], 0) <= base + 1e-9
