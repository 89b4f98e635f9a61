"""Unit tests for beliefs, likelihoods, the Bayesian/MAP/OLS estimators and
the update schedules.  Numeric oracles are hand-computed closed forms."""

import ast
import dataclasses
import inspect
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplay import games, param_belief
from beliefplay.analysis import (
    certify_fixed_point,
    martingale_diagnostic,
    nearest_fixed_point,
    payoff_equivalent_set,
)
from beliefplay.games import (
    best_response,
    br_profile,
    expected_payoff,
    tied_actions,
)
from beliefplay.param_belief import (
    _EXP_UNDERFLOW,
    NEG_INF,
    ContractViolation,
    ImpossibleObservation,
    ParameterSpace,
    Unidentifiable,
    UpdateSchedule,
    _normalize,
    _shift_exp,
    batch_log_likelihoods,
    bayes_update,
    log_belief,
    log_likelihood,
    map_update,
    next_update_stage,
    ols_solve,
)
from oracles import log_normalize


# ---------------------------------------------------------------------------
# ParameterSpace / log_belief basics


def test_parameter_space_validation():
    with pytest.raises(ContractViolation):
        ParameterSpace(params=(), true_index=0)
    with pytest.raises(ContractViolation):
        ParameterSpace(params=((1.0,), (1.0, 2.0)), true_index=0)
    with pytest.raises(ContractViolation):
        ParameterSpace(params=((1.0,), (2.0,)), true_index=5)
    with pytest.raises(ContractViolation):
        ParameterSpace(params=((1.0,), (1.0,)), true_index=0)
    sp = ParameterSpace(params=((1.0, 2.0), (3.0, 4.0)), true_index=1)
    assert len(sp) == 2 and sp.dim == 2
    assert np.array_equal(sp.as_array(), [[1.0, 2.0], [3.0, 4.0]])


def test_belief_normalization_and_support():
    assert np.allclose(np.exp(log_belief([2.0, 2.0])), [0.5, 0.5])
    lp = log_belief([0.0, 1.0, 3.0])
    assert type(lp) is list and lp[0] == NEG_INF
    assert [s for s, x in enumerate(lp) if x != NEG_INF] == [1, 2]
    assert NEG_INF not in log_belief([0.25] * 4)
    assert np.array_equal(np.exp(log_belief([0.0, 1.0, 0.0])),
                          [0.0, 1.0, 0.0])


@pytest.mark.parametrize("probs", [
    [-0.1, 1.1], [0.0, 0.0], [], [0.0, float("nan")], [0.0, float("inf")]])
def test_belief_rejects_bad_input(probs):
    with pytest.raises(ContractViolation):
        log_belief(probs)


@pytest.mark.parametrize("probs", [[math.nan, 1.0], [1.0, 0.0, math.nan],
                                   [math.inf, 1.0]])
def test_belief_names_a_non_finite_weight(probs):
    with pytest.raises(ContractViolation, match="probabilities must be "
                                                "finite"):
        log_belief(probs)


@pytest.mark.parametrize("weights, scaled", [
    ([1e308, 1e308], [1.0, 1.0]),
    ([2.0 ** 1023, 2.0 ** 1022, 0.0, 2.0 ** 1023], [2.0, 1.0, 0.0, 2.0])])
def test_belief_weights_whose_total_overflows(weights, scaled):
    # finite weights, an infinite total: the same belief as the weights
    # scaled down, to the bit
    assert log_belief(weights) == log_belief(scaled)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1,
                max_size=6))
def test_belief_probs_sum_to_one(weights):
    assert math.isclose(float(np.exp(log_belief(weights)).sum()), 1.0,
                        abs_tol=1e-12)


@st.composite
def score_lists(draw):
    """1-6 unnormalised log scores: a top score and offsets below it, some
    with log-odds under -40 (whose exps vanish beside 1.0), some near -37
    (where the exps' sum leaves 1.0 by a few ulps), some -inf, and sometimes
    every entry -inf."""
    n = draw(st.integers(1, 6))
    top = draw(st.floats(-1e3, 1e3))
    offsets = draw(st.lists(
        st.one_of(st.floats(-40.0, 0.0), st.floats(-38.0, -33.0),
                  st.floats(-800.0, -40.0), st.just(NEG_INF)),
        min_size=n, max_size=n))
    if draw(st.integers(0, 19)) == 0:
        return [NEG_INF] * n
    return [top + x for x in offsets]


def _bits(xs):
    return [x.hex() for x in xs]


def test_normalize_matches_the_array_normaliser_then_exp():
    reused = set()  # whether the exps summed to exactly 1.0, per example

    @settings(max_examples=400, deadline=None)
    @given(score_lists())
    def check(lp):
        try:
            want = log_normalize(lp)
        except ImpossibleObservation:
            with pytest.raises(ImpossibleObservation):
                _normalize(lp)
            return
        log_probs, probs = _normalize(lp)
        assert _bits(log_probs) == _bits(want)
        assert _bits(probs) == _bits(np.exp(want).tolist())
        reused.add(_shift_exp(lp)[2] == 0.0)

    check()
    assert reused == {True, False}


@pytest.mark.parametrize("lp", [
    [math.inf, 0.0], [0.0, math.inf], [math.inf, math.inf], [math.nan],
    [math.nan, 0.0], [0.0, math.nan, -1e3], [0.0, -1e3, math.nan],
    [NEG_INF, math.nan], [math.nan, NEG_INF], [NEG_INF, math.inf]])
def test_a_nan_or_plus_inf_score_is_rejected(lp):
    # checked before an all -inf list; [0.0, -1e3, NaN] would take the
    # exp-free path but for its NaN
    with pytest.raises(ContractViolation, match="must be finite or -inf"):
        _normalize(lp)


# the last input whose exp is subnormal, the bound, and the floats around them
_EDGES = [-745.1332191019411, math.nextafter(-745.1332191019411, -math.inf),
          math.nextafter(_EXP_UNDERFLOW, 0.0), _EXP_UNDERFLOW,
          math.nextafter(_EXP_UNDERFLOW, -math.inf), -1e308, NEG_INF]


def _shift_exp_cases(n_random=100_000, seed=0):
    """Score lists of 2 and 3 entries: each edge below a top score of 0 or
    of a random size, ties for the max, then random lists whose offsets
    straddle the bound and random lists whose offsets span the live range
    [_EXP_UNDERFLOW, 0], where each exp is one scalar np.exp."""
    for top in (0.0, 1.0, -3.5e3, 7.25e5):
        for x in _EDGES:
            yield [top, top + x]
            yield [top + x, top, top + x]
            yield [top + x, top + x, top]
            yield [top, top, top + x]  # a tie for the max
            yield [top + x, top, top - 1.0]
    rng = np.random.default_rng(seed)
    tops = rng.uniform(-1e3, 1e3, n_random).tolist()
    sizes = rng.integers(2, 4, n_random).tolist()
    for lo, hi in ((-760.0, -730.0), (_EXP_UNDERFLOW, 0.0)):
        offsets = rng.uniform(lo, hi, (n_random, 3)).tolist()
        for top, n, off in zip(tops, sizes, offsets):
            lp = [top + x for x in off[:n]]
            lp[n - 1] = top  # the max
            yield lp


def _shift_exp_sweep():
    """Check `_shift_exp` on `_shift_exp_cases` against np.exp of the
    shifted scores, bit for bit; returns the number of lists that took the
    exp-free path (a finite max and no other score at or above the bound)."""
    shortcuts = 0
    for lp in _shift_exp_cases():
        m = max(lp)
        shifted = [x - m for x in lp]
        exps = np.exp(shifted).tolist()
        total = 0.0
        for e in exps:
            total += e
        got = _shift_exp(lp)
        assert _bits(got[0]) == _bits(shifted), lp
        assert _bits(got[1]) == _bits(exps), lp
        assert got[2].hex() == math.log(total).hex(), lp
        shortcuts += (sum(not x < _EXP_UNDERFLOW for x in shifted) == 1
                      and m < math.inf)
    return shortcuts


def test_shift_exp_without_exp_matches_np_exp(monkeypatch):
    calls = []
    monkeypatch.setattr(param_belief, "np", types.SimpleNamespace(
        exp=lambda x: calls.append(x) or np.exp(x)))
    assert _shift_exp_sweep() > 0  # the bits, with every np.exp spied on
    n_cases = exp_free = 0
    for lp in _shift_exp_cases():
        m = max(lp)
        below_max = [x - m for x in lp
                     if not (x - m < _EXP_UNDERFLOW or x == m)]
        calls.clear()
        _shift_exp(lp)
        # one np.exp per live score other than the max, of its shifted
        # Python float, in order; none when the max is the one live score
        assert calls == below_max, lp
        assert all(type(x) is float for x in calls), lp
        n_cases += 1
        exp_free += not below_max
    assert 0 < exp_free < n_cases


def test_shift_exp_sweep_holds_on_the_avx2_exp_kernel():
    # numpy picks its exp kernel by CPU feature at import; without the
    # AVX-512 targets it runs the AVX2 one
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
               PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import test_param_belief as t; n = t._shift_exp_sweep(); "
            "assert n > 0, n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=os.path.dirname(__file__), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


# ---------------------------------------------------------------------------
# Likelihood oracles


def test_gaussian_loglik_at_the_mean(cournot_game):
    # sigma^2 = 0.5, peak density log value is -0.5*log(2*pi*0.5) = -0.5*log(pi)
    q = np.asarray([2.0 / 3.0, 2.0 / 3.0])
    mu = cournot_game.channel_means(q)[0][0]
    val = log_likelihood(cournot_game, q, np.asarray([mu]))[0]
    assert math.isclose(val, -0.5 * math.log(math.pi), rel_tol=0, abs_tol=1e-14)


def test_gaussian_loglik_quadratic_falloff(investment_game):
    q = np.asarray([0.5, 0.5])
    mu = investment_game.channel_means(q)[1][0]
    sig = investment_game.sigmas[1][0]
    at_mu = log_likelihood(investment_game, q, np.asarray([mu]))[1]
    off = log_likelihood(investment_game, q, np.asarray([mu + 2.0]))[1]
    assert math.isclose(at_mu - off, 0.5 * (2.0 / sig) ** 2, abs_tol=1e-13)


def test_loglik_dimension_checks(cournot_game):
    with pytest.raises(ContractViolation):
        log_likelihood(cournot_game, np.ones(2), np.ones(2))
    # one value for each parameter index, and no other
    assert len(log_likelihood(cournot_game, np.ones(2), np.ones(1))) == len(
        cournot_game.space)


def test_degenerate_channel_atom():
    game = games.two_route_congestion(sigma=0.0)
    q = np.asarray([1.0, 0.0, 0.0, 1.0])
    mu = game.channel_means(q)[0]
    exact = log_likelihood(game, q, mu)[0]
    assert exact == 0.0
    off = np.array(mu, copy=True)
    off[0] += 1e-9
    assert log_likelihood(game, q, off)[0] == NEG_INF


def test_half_log_2pi_is_a_literal_within_an_ulp_of_the_exact_value():
    # written as a literal, so that no platform's log can move it: the
    # bits of 0.5 * math.log(2.0 * math.pi), one ulp below the correctly
    # rounded value
    mpmath = pytest.importorskip("mpmath")
    tree = ast.parse(inspect.getsource(param_belief))
    (node,) = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets]
               == ["_HALF_LOG_2PI"]]
    assert isinstance(node, ast.Constant)
    half_log_2pi = param_belief._HALF_LOG_2PI
    assert half_log_2pi.hex() == "0x1.d67f1c864beb4p-1"
    with mpmath.workprec(200):
        gap = abs(mpmath.mpf(half_log_2pi) - mpmath.log(2 * mpmath.pi) / 2)
        assert gap <= math.ulp(half_log_2pi)


def test_bayes_hand_posterior(cournot_game):
    # prior (1/2, 1/2), q = (2/3, 2/3), observed price c = 2/3 (the mean under
    # s1).  Log-likelihood gap is 4/9, so theta'(s1) = 1 / (1 + e^{-4/9}).
    batch = [([2.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0])]
    post = bayes_update(log_belief([0.5, 0.5]), batch, cournot_game)
    expected = 1.0 / (1.0 + math.exp(-4.0 / 9.0))
    assert math.isclose(math.exp(post[0]), expected, abs_tol=1e-13)


def test_bayes_batch_equals_sequential(investment_game, rng):
    q = np.asarray([0.4, 0.7])
    prior = log_belief([0.2, 0.5, 0.3])
    obs = [games.sample_payoffs(investment_game, 1, q, rng) for _ in range(5)]
    batch = []
    for c in obs:
        batch.append((q, c))
    joint = bayes_update(prior, batch, investment_game)
    b = prior
    for c in obs:
        one = [(q, c)]
        b = bayes_update(b, one, investment_game)
    assert np.allclose(np.exp(joint), np.exp(b), atol=1e-12)


def test_bayes_zero_forcing_is_permanent(investment_game, rng):
    prior = log_belief([0.0, 0.7, 0.3])
    q = np.asarray([0.4, 0.7])
    batch = [(q, games.sample_payoffs(investment_game, 1, q, rng))]
    post = bayes_update(prior, batch, investment_game)
    assert post[0] == NEG_INF
    assert np.exp(post)[0] == 0.0


def test_bayes_impossible_observation():
    game = games.two_route_congestion(sigma=0.0)
    q = np.asarray([1.0, 0.0, 0.0, 1.0])
    # matches no parameter
    batch = [(q, np.asarray(game.channel_means(q)[0]) + 0.5)]
    with pytest.raises(ImpossibleObservation,
                       match="all parameters carry zero probability"):
        bayes_update(log_belief([0.5, 0.5]), batch, game)


def test_bayes_empty_batch_rejected(cournot_game):
    with pytest.raises(ContractViolation):
        bayes_update(log_belief([0.5, 0.5]), [], cournot_game)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=3,
                max_size=3),
       st.floats(min_value=-3.0, max_value=3.0))
def test_bayes_preserves_simplex(weights, noise):
    game = games.investment()
    prior = log_belief(weights)
    q = np.asarray([0.3, 0.6])
    c = np.asarray(game.channel_means(q)[1]) + noise
    batch = [(q, c)]
    post = np.exp(bayes_update(prior, batch, game))
    assert math.isclose(float(post.sum()), 1.0, abs_tol=1e-12)
    assert np.all(post >= 0.0)


# ---------------------------------------------------------------------------
# MAP


def test_map_picks_likelihood_winner(investment_game):
    # at q = (0,0) the channel means are (0, 1, 2) with noise scales
    # (sqrt3, sqrt5, sqrt10); per-record scores at c = 4 are
    # -16/6 - log(sqrt3) < -9/10 - log(sqrt5) < -4/20 - log(sqrt10)
    q = np.asarray([0.0, 0.0])
    batch = []
    for _ in range(10):
        batch.append((q, np.asarray([4.0])))
    assert map_update(log_belief([1 / 3] * 3), batch, investment_game) == 2


def test_map_tie_breaks_to_lowest_index():
    # zero-sum game at d <= 1: every parameter has the same mean, so the
    # posterior scores tie under a uniform prior
    game = games.zerosum_example()
    batch = [([0.0, 1.0], [0.3, -0.3])]
    assert map_update(log_belief([1 / 3] * 3), batch, game) == 0


def test_map_respects_prior_on_ties():
    game = games.zerosum_example()
    batch = [([0.0, 1.0], [0.3, -0.3])]
    prior = log_belief([0.2, 0.5, 0.3])
    assert map_update(prior, batch, game) == 1


# ---------------------------------------------------------------------------
# Belief length


_BELIEF_TAKERS = {
    "bayes_update": lambda game, probs: bayes_update(
        log_belief(probs), [([0.5, 0.5], [0.5])], game),
    "map_update": lambda game, probs: map_update(
        log_belief(probs), [([0.5, 0.5], [0.5])], game),
    "equilibrium_set": games.equilibrium_set,
    "certify_fixed_point": lambda game, probs: certify_fixed_point(
        game, probs, (0.5, 0.5)),
    "best_response": lambda game, probs: best_response(
        game, probs, 0, [0.5, 0.5]),
    "br_profile": lambda game, probs: br_profile(game, probs, [0.5, 0.5]),
    "expected_payoff": lambda game, probs: expected_payoff(
        game, probs, [0.5, 0.5], 0),
    "martingale_diagnostic": lambda game, probs: martingale_diagnostic(
        game, probs, [0.5, 0.5], 8, 0),
    # a finite game with |S| = 2 as well: the finite best response reads
    # the belief through tied_actions
    "best_response_finite": lambda game, probs: best_response(
        games.two_route_congestion(), probs, 0, [1.0, 0.0, 0.0, 1.0]),
    "tied_actions": lambda game, probs: tied_actions(
        games.two_route_congestion(), probs, 0, [1.0, 0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("probs", [[1.0], [0.2, 0.3, 0.5]],
                         ids=["short", "long"])
@pytest.mark.parametrize("entry", list(_BELIEF_TAKERS))
def test_a_belief_of_the_wrong_length_is_rejected(cournot_game, entry,
                                                  probs):
    with pytest.raises(ContractViolation, match="belief has %d entries, "
                       "expected 2" % len(probs)):
        _BELIEF_TAKERS[entry](cournot_game, probs)


_PROFILE_TAKERS = {
    "certify_fixed_point": lambda game, q: certify_fixed_point(
        game, [0.5, 0.5], q),
    "payoff_equivalent_set": payoff_equivalent_set,
    "br_profile": lambda game, q: br_profile(game, [0.5, 0.5], q),
    "expected_payoff": lambda game, q: expected_payoff(game, [0.5, 0.5], q,
                                                       0),
    "martingale_diagnostic": lambda game, q: martingale_diagnostic(
        game, [0.5, 0.5], q, 8, 0),
    "nearest_fixed_point": lambda game, q: nearest_fixed_point(
        game, [0.5, 0.5], q),
}


@pytest.mark.parametrize("q", [[0.5], [0.5, 0.5, 0.5]],
                         ids=["short", "long"])
@pytest.mark.parametrize("entry", list(_PROFILE_TAKERS))
def test_a_profile_of_the_wrong_length_is_rejected(cournot_game, entry, q):
    with pytest.raises(ContractViolation, match="strategy profile has %d "
                       "entries, expected 2" % len(q)):
        _PROFILE_TAKERS[entry](cournot_game, q)


# ---------------------------------------------------------------------------
# OLS


def test_ols_gram_matrix_oracle():
    # design rows (1,0,1), (0,1,1), (0,0,1) give X'X = [[1,0,1],[0,1,1],
    # [1,1,3]]; the third row fixes each player's intercept and the first two
    # its slopes over that intercept
    design = np.asarray([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    responses = np.asarray([[0.5, -0.5], [1.0, 2.0], [0.25, 0.0]])
    assert np.array_equal(design.T @ design,
                          [[1, 0, 1], [0, 1, 1], [1, 1, 3]])
    est = ols_solve(design, responses)
    assert est.shape == (2, 3)
    assert np.allclose(est, [[0.25, 0.75, 0.25], [-0.5, 2.0, 0.0]],
                       atol=1e-12)
    # normal equations: s_i' X'X = Y_i' X
    assert np.allclose(est @ (design.T @ design),
                       [[0.5, 1.0, 1.75], [-0.5, 2.0, 1.5]], atol=1e-12)


def test_ols_noiseless_interpolation():
    alpha = np.asarray([[-2.0, 1.0], [1.0, -2.0]])
    beta = np.asarray([1.0, 1.0])
    game = games.affine_game(alpha, beta, sigma=0.0)
    rng = np.random.default_rng(7)
    qs = rng.random((6, 2))
    design = np.hstack([qs, np.ones((6, 1))])
    responses = np.asarray([game.channel_means(q)[0] for q in qs])
    est = ols_solve(design, responses)
    truth = np.hstack([alpha, beta[:, None]])
    assert np.max(np.abs(est - truth)) < 1e-10


def test_ols_unidentifiable_reports_null_directions():
    design = np.ones((4, 3))  # the design row (1, 1, 1), repeated
    with pytest.raises(Unidentifiable) as err:
        ols_solve(design, np.zeros((4, 1)))
    null = err.value.null_directions
    # every null direction must annihilate the repeated design row (1,1,1)
    assert null.shape[0] >= 1
    assert np.max(np.abs(null @ np.asarray([1.0, 1.0, 1.0]))) < 1e-9


def test_ols_empty_design_unidentifiable():
    with pytest.raises(Unidentifiable) as err:
        ols_solve(np.empty((0, 2)), np.empty((0, 1)))
    assert np.array_equal(err.value.null_directions, np.eye(2))


@pytest.mark.parametrize("design, responses", [
    (np.ones((3, 3)), np.ones((2, 2))),
    (np.ones(3), np.ones((3, 1))),
    (np.ones((3, 3)), np.ones(3)),
], ids=["row_count", "design_1d", "responses_1d"])
def test_ols_dimension_mismatch(design, responses):
    with pytest.raises(ContractViolation):
        ols_solve(design, responses)


# ---------------------------------------------------------------------------
# Schedules


def _stages(sched, count, rng=None):
    """The first ``count`` update stages of a schedule, each from the one
    before it."""
    k, out = 1, []
    for n in range(count):
        k = next_update_stage(sched, k, n, rng)
        out.append(k)
    return out


def test_schedule_every_stage():
    sched = UpdateSchedule.every_stage()
    assert _stages(sched, 5) == [2, 3, 4, 5, 6]


def test_schedule_fixed_batch():
    sched = UpdateSchedule.fixed_batch(10)
    assert _stages(sched, 3) == [11, 21, 31]


def test_schedule_geometric_gaps_positive(rng):
    sched = UpdateSchedule.geometric(0.3)
    stages = _stages(sched, 200, rng)
    gaps = np.diff([1] + stages)
    assert np.all(gaps >= 1)
    with pytest.raises(ContractViolation):
        next_update_stage(UpdateSchedule.geometric(0.5), 1, 0)  # needs an RNG


def test_schedule_two_timescale_growing_gaps():
    sched = UpdateSchedule.two_timescale(lambda t: 10 * t)
    assert _stages(sched, 4) == [11, 31, 61, 101]


def test_schedule_is_frozen():
    sched = UpdateSchedule.fixed_batch(5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.batch_size = 6
    assert _stages(sched, 2) == _stages(sched, 2) == [6, 11]


def test_schedule_validation():
    with pytest.raises(ContractViolation):
        UpdateSchedule("bogus")
    with pytest.raises(ContractViolation):
        UpdateSchedule.fixed_batch(0)
    with pytest.raises(ContractViolation):
        UpdateSchedule.geometric(0.0)
    with pytest.raises(ContractViolation):
        UpdateSchedule("two_timescale")
    with pytest.raises(ContractViolation):
        next_update_stage(UpdateSchedule.two_timescale(lambda t: 0), 1, 0)


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 2.5}, {"batch_size": 2.0}, {"batch_size": True},
    {"batch_size": "3"}], ids=["fraction", "float", "bool", "string"])
def test_fixed_batch_needs_an_integer_batch_size(kwargs):
    with pytest.raises(ContractViolation, match="integer batch size"):
        UpdateSchedule("fixed_batch", **kwargs)


def test_fixed_batch_does_not_truncate():
    with pytest.raises(ContractViolation, match="integer batch size"):
        UpdateSchedule.fixed_batch(2.7)
    assert UpdateSchedule.fixed_batch(np.int64(3)).batch_size == 3


@pytest.mark.parametrize("p", [True, "0.5", math.nan, 1.5, -0.1])
def test_geometric_needs_a_real_probability(p):
    with pytest.raises(ContractViolation, match="success probability"):
        UpdateSchedule.geometric(p)


# ---------------------------------------------------------------------------
# batch_log_likelihoods consistency


def test_batch_loglik_matches_sum(investment_game, rng):
    q = np.asarray([0.3, 0.8])
    batch = []
    for _ in range(4):
        batch.append((q, games.sample_payoffs(investment_game, 1, q, rng)))
    acc = batch_log_likelihoods(None, batch, investment_game)
    for s in range(3):
        manual = sum(
            log_likelihood(investment_game, q, c)[s]
            for q, c in batch
        )
        assert math.isclose(acc[s], manual, abs_tol=1e-12)
