"""Unit tests for KL/payoff-equivalence computations, fixed-point
certification, stability thresholds, rate estimation and the martingale and
upcrossing diagnostics."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplay import analysis, games
from beliefplay.analysis import (
    FixedPointCertificate,
    FixedPointCluster,
    StabilityReport,
    StabilityThresholds,
    _link_groups,
    belief_grid,
    certify_fixed_point,
    check_assumption2,
    check_complete_info_equilibrium_conditions,
    check_global_stability,
    enumerate_fixed_points,
    estimate_convergence_rate,
    kl_divergence,
    martingale_diagnostic,
    monte_carlo_local_stability,
    nearest_fixed_point,
    payoff_equivalent_set,
    report_document,
    sample_belief_ball,
    stability_thresholds,
    to_jsonable,
    upcrossing_count,
    wilson_ci,
)
from beliefplay.dynamics import Trajectory
from beliefplay.games import EquilibriumSet, equilibrium_set
from beliefplay.param_belief import ContractViolation
from oracles import reference_grid_points


# ---------------------------------------------------------------------------
# KL divergence and payoff equivalence


def test_kl_hand_value_cournot(cournot_game):
    # at q = (2/3, 2/3): mu1 = 2/3, mu2 = 0, equal sigma^2 = 1/2:
    # KL = (2/3)^2 / (2 * 1/2) = 4/9
    val = kl_divergence(cournot_game, 0, 1, np.asarray([2.0 / 3.0, 2.0 / 3.0]))
    assert math.isclose(val, 4.0 / 9.0, abs_tol=1e-14)
    assert kl_divergence(cournot_game, 0, 0, np.asarray([1.0, 1.0])) == 0.0


def test_kl_closed_form_with_unequal_variances(investment_game):
    # s* = 1 vs s = 0 at q = (1/3, 1/3): delta mu = 1, sigma^2 = 5 vs 3:
    # KL = log(sqrt(3/5)) + (5 + 1)/(2*3) - 1/2
    q = np.asarray([1.0 / 3.0, 1.0 / 3.0])
    expect = math.log(math.sqrt(3.0 / 5.0)) + 6.0 / 6.0 - 0.5
    assert math.isclose(kl_divergence(investment_game, 1, 0, q), expect,
                        abs_tol=1e-14)


def test_kl_degenerate_conventions():
    game = games.two_route_congestion(sigma=0.0)
    q = np.asarray([1.0, 0.0, 0.0, 1.0])
    # both atoms, different means -> +inf; same parameter -> 0
    assert kl_divergence(game, 0, 1, q) == float("inf")
    assert kl_divergence(game, 0, 0, q) == 0.0
    noisy = games.two_route_congestion(sigma=1.0)
    assert math.isfinite(kl_divergence(noisy, 0, 1, q))


def test_payoff_equivalent_sets_cournot(cournot_game):
    assert payoff_equivalent_set(cournot_game, [2.0 / 3.0, 2.0 / 3.0]) == (0,)
    # total quantity 1 equalizes the two demand curves
    assert payoff_equivalent_set(cournot_game, [0.5, 0.5]) == (0, 1)


def test_payoff_equivalent_sets_zerosum(zerosum_game):
    # d <= 1: all parameters produce the same value
    assert payoff_equivalent_set(zerosum_game, [0.0, 1.0]) == (0, 1, 2)
    # 1 < d <= 3 separates s = 1 only
    assert payoff_equivalent_set(zerosum_game, [0.0, 2.0]) == (1, 2)
    assert payoff_equivalent_set(zerosum_game, [0.0, 4.0]) == (1,)


def test_mixed_equivalence_intersects_over_support(routing_game):
    # a mixed profile is equivalent only if every supported pure profile is
    pure = np.asarray([1.0, 0.0, 0.0, 1.0])
    assert payoff_equivalent_set(routing_game, pure) == (0,)
    mixed = np.asarray([0.5, 0.5, 0.5, 0.5])
    assert payoff_equivalent_set(routing_game, mixed) == (0,)


def test_equivalence_set_ignores_below_support_tolerance(routing_game):
    almost_pure = np.asarray([1.0 - 1e-13, 1e-13, 0.0, 1.0])
    assert payoff_equivalent_set(routing_game, almost_pure) == (0,)


# ---------------------------------------------------------------------------
# Fixed-point certificates


def test_certificate_complete_info_cournot(cournot_game):
    cert = certify_fixed_point(cournot_game, [1.0, 0.0],
                               [2.0 / 3.0, 2.0 / 3.0])
    assert cert.valid and cert.is_complete_info
    assert cert.equivalence_set == (0,)
    assert cert.eq_residual <= 1e-12


def test_certificate_belief_frozen_cournot(cournot_game):
    cert = certify_fixed_point(cournot_game, [0.5, 0.5], [0.5, 0.5])
    assert cert.valid and not cert.is_complete_info
    assert cert.equivalence_set == (0, 1)


def test_certificate_rejects_non_equilibrium(cournot_game):
    cert = certify_fixed_point(cournot_game, [1.0, 0.0],
                               [0.6, 0.6])
    assert not cert.valid
    assert cert.support_subset  # belief is fine, the strategy is not
    assert cert.eq_residual > 1e-3


def test_certificate_rejects_bad_support(cournot_game):
    cert = certify_fixed_point(cournot_game, [0.5, 0.5],
                               [2.0 / 3.0, 2.0 / 3.0])
    assert not cert.valid and not cert.support_subset


def test_certificate_finite_game_mixed(routing_game):
    b = [1.0, 0.0]
    cert = certify_fixed_point(routing_game, b, [0.5, 0.5, 0.5, 0.5])
    assert cert.valid
    # mass on a strictly suboptimal action invalidates
    cert = certify_fixed_point(routing_game, b, [1.0, 0.0, 1.0, 0.0])
    assert not cert.valid and cert.eq_residual == 1.0


def test_belief_grid_counts_and_simplex():
    assert len(belief_grid(2, 5)) == 5
    assert len(belief_grid(3, 4)) == 10
    assert len(belief_grid(4, 4)) == 20  # C(6, 3)
    for probs in belief_grid(4, 4):
        assert type(probs) is list and len(probs) == 4
        assert math.isclose(math.fsum(probs), 1.0, abs_tol=1e-12)
        assert all(p >= 0.0 for p in probs)


@pytest.mark.parametrize("n_params", [2, 3, 4])
def test_belief_grid_equals_the_numpy_reference(n_params):
    # lists of floats, bit for bit the rows of the array grid
    for res in range(2, 10):
        want = [p.tolist() for p in reference_grid_points(n_params, res)]
        got = belief_grid(n_params, res)
        assert [[x.hex() for x in p] for p in got] == \
            [[x.hex() for x in p] for p in want]


def test_three_parameter_grid_is_the_nested_walk():
    # the stars-and-bars walk gives (i/g, j/g, (g-i-j)/g) in nested order,
    # bit for bit (== on floats >= 0 compares their bits)
    for res in range(2, 80):
        g = res - 1
        nested = [[i / g, j / g, (g - i - j) / g]
                  for i in range(g + 1) for j in range(g + 1 - i)]
        assert belief_grid(3, res) == nested


def test_enumerate_fixed_points_cournot_small_grid(cournot_game):
    clusters = enumerate_fixed_points(cournot_game, belief_grid_resolution=21)
    ids = sorted(c.cluster_id for c in clusters)
    assert ids == ["complete_info", "theta_dagger"]
    by_id = {c.cluster_id: c.representative for c in clusters}
    assert np.allclose(by_id["complete_info"].belief, [1.0, 0.0], atol=1e-12)
    assert np.allclose(by_id["complete_info"].q, [2.0 / 3.0, 2.0 / 3.0],
                       atol=1e-9)
    assert np.allclose(by_id["theta_dagger"].belief, [0.5, 0.5], atol=1e-12)
    assert np.allclose(by_id["theta_dagger"].q, [0.5, 0.5], atol=1e-9)


def test_enumerate_fixed_points_rejects_small_grid(cournot_game):
    for res in (1, 0):
        with pytest.raises(ContractViolation,
                           match="grid needs at least 2 points per axis"):
            enumerate_fixed_points(cournot_game, belief_grid_resolution=res)


def _link_bruteforce(thetas, qs, link_theta, link_q):
    """Reference linking: every pair compared, O(n^2)."""
    thetas = np.asarray(thetas, dtype=float)
    qs = np.asarray(qs, dtype=float)
    parent = list(range(len(thetas)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(thetas)):
        close = (
            (np.max(np.abs(thetas[a + 1:] - thetas[a]), axis=1) <= link_theta)
            & (np.max(np.abs(qs[a + 1:] - qs[a]), axis=1) <= link_q)
        )
        for off in np.nonzero(close)[0]:
            ra, rb = find(a), find(a + 1 + int(off))
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for idx in range(len(thetas)):
        groups.setdefault(find(idx), []).append(idx)
    return list(groups.values())


def _coordinates(link, grid, span):
    return st.one_of(
        st.integers(0, 8).map(lambda k: k * link / 2),  # exactly link apart
        st.integers(0, grid).map(lambda i: span * i / grid),  # grid-aligned
        st.floats(0.0, span),
    )


@st.composite
def certificate_clouds(draw):
    grid = draw(st.sampled_from([4, 10, 50]))
    link_theta = draw(st.sampled_from([0.25, 0.5, 2.5 / grid]))
    link_q = draw(st.sampled_from([3.75, 0.25, 2.5 / grid]))
    theta_dim = draw(st.integers(1, 3))
    q_dim = draw(st.integers(1, 2))
    theta = st.lists(_coordinates(link_theta, grid, 1.0),
                     min_size=theta_dim, max_size=theta_dim)
    q = st.lists(_coordinates(link_q, grid, 4.0 * link_q),
                 min_size=q_dim, max_size=q_dim)
    base = draw(st.lists(st.tuples(theta, q), min_size=1, max_size=30))
    copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=20))
    cloud = draw(st.permutations(base + [base[i] for i in copies]))
    return ([t for t, _ in cloud], [x for _, x in cloud], link_theta, link_q)


@settings(max_examples=300, deadline=None)
@given(certificate_clouds())
def test_link_groups_match_bruteforce(cloud):
    thetas, qs, link_theta, link_q = cloud
    assert (_link_groups(thetas, qs, link_theta, link_q)
            == _link_bruteforce(thetas, qs, link_theta, link_q))


@settings(max_examples=200, deadline=None)
@given(certificate_clouds(), st.integers(1, 4))
def test_link_groups_match_bruteforce_across_merges(cloud, flush):
    # a cloud holds at most 50 points, far below the real flush size, so
    # the merge is forced every few pairs: unions must survive from one
    # merge to the next
    thetas, qs, link_theta, link_q = cloud
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_LINK_FLUSH", flush)
        got = _link_groups(thetas, qs, link_theta, link_q)
    assert got == _link_bruteforce(thetas, qs, link_theta, link_q)


@pytest.mark.parametrize("flush", [1, 3, 1 << 13])
def test_link_groups_chain_across_cells_and_merges(monkeypatch, flush):
    # a zigzag chain through about 70 theta cells whose points are close
    # only to their neighbours on the chain, plus ghost copies of its first
    # 30 points that are close in theta but far in q; shuffled, so that the
    # chain's links turn up in many cells and merges
    monkeypatch.setattr(analysis, "_LINK_FLUSH", flush)
    link_theta, link_q = 0.1, 0.5
    steps = np.arange(120)
    chain = np.stack([steps * 0.06, (steps % 2) * 0.05], axis=1)
    thetas = np.concatenate([chain, chain[:30]])
    qs = np.concatenate([np.zeros((120, 1)), np.full((30, 1), 10.0)])
    perm = np.random.default_rng(5).permutation(len(thetas))
    thetas, qs, steps = thetas[perm], qs[perm].tolist(), perm % 120
    want = _link_bruteforce(thetas.tolist(), qs, link_theta, link_q)
    assert len(want) == 2
    assert _link_groups(thetas.tolist(), qs, link_theta, link_q) == want
    # moving the second half of the chain away breaks it in two
    thetas[(perm < 120) & (steps >= 60), 0] += 0.2
    want = _link_bruteforce(thetas.tolist(), qs, link_theta, link_q)
    assert len(want) == 3
    assert _link_groups(thetas.tolist(), qs, link_theta, link_q) == want


@pytest.mark.parametrize("res", [11, 51])
@pytest.mark.parametrize("factory", [
    games.cournot, games.investment, games.zerosum_example,
    games.coordination_penalty, games.two_route_congestion])
def test_enumerated_clusters_match_bruteforce_linking(factory, res,
                                                      monkeypatch):
    calls = []
    real = analysis._link_groups

    def spy(thetas, qs, link_theta, link_q):
        calls.append((thetas, qs, link_theta, link_q))
        return real(thetas, qs, link_theta, link_q)

    monkeypatch.setattr(analysis, "_link_groups", spy)
    game = factory()
    clusters = enumerate_fixed_points(game, belief_grid_resolution=res)
    # the valid certificates of the grid, certified on array inputs
    valid = []
    for probs in belief_grid(len(game.space), res):
        for q in equilibrium_set(game, probs).representatives(5):
            cert = certify_fixed_point(game, probs, q)
            if cert.valid:
                valid.append(cert)
    (thetas, qs, link_theta, link_q), = calls
    assert thetas == [c.belief for c in valid]
    assert qs == [c.q for c in valid]
    groups = _link_bruteforce(thetas, qs, link_theta, link_q)

    def whole(group):
        return [repr(c) for c in group]

    expected = sorted(whole([valid[i] for i in g]) for g in groups)
    got = sorted(whole(cl.members) for cl in clusters)
    assert got == expected


# ---------------------------------------------------------------------------
# Stability thresholds


def test_thresholds_hand_case():
    # theta_bar = (1, 0), eps_hat = 0.3, gamma = 0.9, N = 2, E = 1
    th = stability_thresholds([1.0, 0.0], eps_hat=0.3, gamma=0.9)
    assert math.isclose(th.rho1, 0.03 / 4.43, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(th.rho2, 0.075, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(th.rho3, 0.3 / 4.3, rel_tol=0, abs_tol=1e-12)
    assert th.n_excluded == 1
    assert not th.degenerate_full_support


def test_thresholds_full_support_degenerate_flag():
    th = stability_thresholds([0.5, 0.5], eps_hat=0.4, gamma=0.5)
    assert th.degenerate_full_support
    assert math.isclose(th.rho2, 0.4 / 2.0, abs_tol=1e-15)


def test_thresholds_where_the_t1_denominator_vanishes():
    # N = 2, E = 1: eps_hat = N (E + 1) / E zeroes N - E N rho2, so t1 is
    # +inf and rho3 = min(t2, theta_bar(s)) = 0.5
    th = stability_thresholds([1.0, 0.0], eps_hat=4.0, gamma=0.5)
    assert th.rho2 == 1.0
    assert th.rho3 == 0.5


def test_thresholds_reject_eps_hat_past_the_vanishing_point():
    # N = 2, E = 1: past eps_hat = 4 the t1 terms are negative, and rho3
    # was -5.0 at eps_hat 5
    with pytest.raises(ContractViolation, match="eps_hat = 5.0 exceeds"):
        stability_thresholds([1, 0], 5.0, 0.5)
    # N = 3, E = 2: the limit is 4.5
    assert stability_thresholds([1.0, 0.0, 0.0], 4.5, 0.5).rho3 > 0.0
    with pytest.raises(ContractViolation, match="eps_hat"):
        stability_thresholds([1.0, 0.0, 0.0], 4.5000001, 0.5)


def test_thresholds_input_validation():
    with pytest.raises(ContractViolation):
        stability_thresholds([1.0, 0.0], eps_hat=0.3, gamma=1.0)
    with pytest.raises(ContractViolation):
        stability_thresholds([1.0, 0.0], eps_hat=0.0, gamma=0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_threshold_orderings_hold(n, support_size_raw, eps_hat, gamma, seed):
    rng = np.random.default_rng(seed)
    support_size = 1 + support_size_raw % n
    probs = np.zeros(n)
    idx = rng.choice(n, size=support_size, replace=False)
    w = rng.random(support_size) + 0.05
    probs[idx] = w / w.sum()
    th = stability_thresholds(probs, eps_hat, gamma)
    assert 0.0 < th.rho1 < th.rho2
    if th.n_excluded > 0:
        assert th.rho2 < eps_hat / n
    else:
        assert math.isclose(th.rho2, eps_hat / n, rel_tol=1e-12)
    assert th.rho3 <= probs[probs > 0].min() + 1e-15


# ---------------------------------------------------------------------------
# Rate estimation


def _synthetic_traj(rate, horizon=400):
    """log theta(0) = rate * t; theta itself underflows to 0 past t ~ 745 /
    |rate|, which the fit never reads."""
    log_s = rate * np.arange(1.0, horizon + 1.0)
    log_thetas = np.column_stack([log_s, np.log1p(-np.exp(log_s))])
    return Trajectory(thetas=np.exp(log_thetas), log_thetas=log_thetas,
                      qs=np.zeros((horizon, 2)), cs=np.zeros((horizon, 1)),
                      updated=np.ones(horizon, dtype=bool), actions=None)


def test_rate_recovers_synthetic_exponential():
    slope, r2 = estimate_convergence_rate(_synthetic_traj(-0.1), s=0)
    assert math.isclose(slope, -0.1, rel_tol=0, abs_tol=1e-12)
    assert r2 > 1.0 - 1e-12


def test_rate_burn_in_and_excluded_parameter():
    # at rate -5, theta(0) is exactly 0.0 from stage 150 on; its log is not
    traj = _synthetic_traj(-5.0, horizon=300)
    assert traj.thetas[149:, 0].max() == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, _ = estimate_convergence_rate(traj, s=0, burn_in=200)
    assert math.isclose(slope, -5.0, rel_tol=1e-12)
    # a -inf in the fitted range (s ruled out by an atom) has no rate
    traj.log_thetas[250, 0] = -math.inf
    with pytest.raises(ContractViolation, match="-inf at stage 251 of"):
        estimate_convergence_rate(traj, s=0, burn_in=200)
    slope, _ = estimate_convergence_rate(traj, s=0, burn_in=251)
    assert math.isclose(slope, -5.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Martingale and upcrossing diagnostics


def test_martingale_ratio_mean_matches_prior(investment_game):
    diag = martingale_diagnostic(investment_game, [1 / 3] * 3,
                                 np.asarray([1.0 / 3.0, 1.0 / 3.0]),
                                 n_samples=20000, seed=0)
    for s in range(3):
        err = abs(diag["ratio_mean"][s] - diag["prior_ratio"][s])
        assert err <= 4.0 * max(diag["ratio_se"][s], 1e-15)
    # submartingale side: E[log theta'(s*)] >= log theta(s*)
    assert (diag["log_theta_star_mean"]
            >= diag["log_theta_star_prior"] - 4.0 * diag["log_theta_star_se"])


def test_martingale_frozen_at_equivalent_strategy(zerosum_game):
    # at q = (0,1) every parameter is payoff-equivalent: the posterior ratio
    # is constant, so the empirical mean equals the prior with zero spread
    diag = martingale_diagnostic(zerosum_game, [0.2, 0.5, 0.3],
                                 np.asarray([0.0, 1.0]), n_samples=200,
                                 seed=1)
    assert np.allclose(diag["ratio_mean"], diag["prior_ratio"], atol=1e-12)
    assert np.all(diag["ratio_se"] <= 1e-12)


def test_martingale_requires_full_support(cournot_game):
    with pytest.raises(ContractViolation):
        martingale_diagnostic(cournot_game, [1.0, 0.0],
                              np.asarray([1.0, 1.0]), 100, 0)


def test_upcrossing_hand_case():
    assert upcrossing_count([0.0, 0.5, 0.0, 0.5], 0.1, 0.4) == 2
    assert upcrossing_count([0.5, 0.0, 0.5], 0.1, 0.4) == 1
    assert upcrossing_count([0.3, 0.35, 0.3], 0.1, 0.4) == 0
    assert upcrossing_count([], 0.1, 0.4) == 0
    with pytest.raises(ContractViolation):
        upcrossing_count([0.0], 0.5, 0.5)


def _upcrossings_oracle(series, lo, hi):
    # index-jumping reimplementation: from the current position find the next
    # strict sub-lo entry, then the next strict super-hi entry after it
    series = list(series)
    pos = 0
    count = 0
    while True:
        while pos < len(series) and not series[pos] < lo:
            pos += 1
        if pos == len(series):
            return count
        while pos < len(series) and not series[pos] > hi:
            pos += 1
        if pos == len(series):
            return count
        count += 1


def test_upcrossing_matches_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(0, 60))
        series = rng.choice([0.0, 0.1, 0.25, 0.4, 0.5], size=n)
        assert upcrossing_count(series, 0.1, 0.4) == _upcrossings_oracle(
            series, 0.1, 0.4
        )


# ---------------------------------------------------------------------------
# Monte Carlo stability machinery


def test_wilson_ci_known_value():
    lo, hi = wilson_ci(90, 100)
    assert math.isclose(lo, 0.8256, abs_tol=5e-4)
    assert math.isclose(hi, 0.9448, abs_tol=5e-4)
    assert wilson_ci(0, 0) == (0.0, 1.0)


def test_sample_belief_ball_properties(rng):
    theta_bar = np.asarray([0.6, 0.3, 0.1])
    for _ in range(200):
        x = sample_belief_ball(theta_bar, 0.05, rng)
        assert type(x) is list
        x = np.asarray(x)
        assert math.isclose(float(x.sum()), 1.0, abs_tol=1e-12)
        assert np.all(x > 0.0)
        assert np.max(np.abs(x - theta_bar)) <= 0.05 + 1e-12
    exact = sample_belief_ball(theta_bar, 0.0, rng)
    assert exact == theta_bar.tolist()


@pytest.mark.parametrize("eps", [-0.1, -1e-300, float("nan"), float("inf"),
                                 float("-inf")])
def test_sample_belief_ball_rejects_bad_radius(rng, eps):
    # no draw is ever accepted within a negative radius, and halving it
    # never ends, so a bad radius fails before anything is drawn
    state = rng.bit_generator.state
    with pytest.raises(ContractViolation, match="finite number >= 0"):
        sample_belief_ball(np.asarray([0.6, 0.3, 0.1]), eps, rng)
    assert rng.bit_generator.state == state


def test_stability_stays_with_zero_radii(cournot_game):
    cert = certify_fixed_point(cournot_game, [1.0, 0.0],
                               [2.0 / 3.0, 2.0 / 3.0])
    # n = 80 keeps the Wilson lower bound above the 0.9 stable level when
    # every replica stays
    report = monte_carlo_local_stability(cournot_game, cert, eps1=0.0,
                                         delta1=0.0, eps_bar=0.1, eps_x=0.1,
                                         n_runs=80, horizon=1, seed=0)
    assert report.n_stayed == 80
    assert report.stay_probability == 1.0
    assert report.verdict == "locally_stable_evidence"


def test_assumption2_zerosum_quick(zerosum_game):
    cert = certify_fixed_point(zerosum_game, [0.0, 1.0, 0.0],
                               [0.0, 1.5])
    out = check_assumption2(zerosum_game, cert, eps=0.5, delta=6.0,
                            n_probe=100, seed=0)
    assert out["A2a"]["pass"]
    assert out["A2b"]["pass"] and out["A2b"]["violations"] == 0
    assert out["A2c"]["pass"]


def test_assumption2_needs_eight_probes(cournot_game):
    # below 8 probes the last A2a radius bin was empty, read 0.0 and passed
    # A2a without testing it
    cert = certify_fixed_point(cournot_game, [1.0, 0.0],
                               [2.0 / 3.0, 2.0 / 3.0])
    for n_probe in (0, 5, 7):
        with pytest.raises(ContractViolation, match="integer >= 8"):
            check_assumption2(cournot_game, cert, eps=1.0 / 3.0, delta=1.0,
                              n_probe=n_probe, seed=0)
    out = check_assumption2(cournot_game, cert, eps=1.0 / 3.0, delta=1.0,
                            n_probe=8, seed=0)
    assert len(out["A2a"]["envelope"]) == 8
    assert out["A2a"]["envelope"][-1] > 0.0


def _cournot_star():
    game = games.cournot()
    return game, certify_fixed_point(game, [1.0, 0.0], [2.0 / 3.0, 2.0 / 3.0])


def _mc(n_runs):
    game, cert = _cournot_star()
    return monte_carlo_local_stability(game, cert, eps1=0.0, delta1=0.0,
                                       eps_bar=0.1, eps_x=0.1, n_runs=n_runs,
                                       horizon=1, seed=0)


def _martingale(n_samples):
    return martingale_diagnostic(games.investment(), [0.2, 0.5, 0.3],
                                 [1.0 / 3.0, 1.0 / 3.0], n_samples, seed=0)


def _probes(n_probe):
    game, cert = _cournot_star()
    return check_assumption2(game, cert, eps=1.0 / 3.0, delta=1.0,
                             n_probe=n_probe, seed=0)


# a count of zero evidence, or one that is not an integer, is refused with
# the argument's name; none of these may return a verdict, NaN statistics
# or a TypeError from range()
BAD_COUNTS = {
    "global_no_starts": (
        lambda: check_global_stability(games.cournot(), [], None,
                                       n_random_starts=0, horizon=10),
        "n_random_starts must be an integer >= 1"),
    "mc_no_runs": (lambda: _mc(0), "n_runs must be an integer >= 1"),
    "mc_fractional_runs": (lambda: _mc(1.5),
                           "n_runs must be an integer >= 1"),
    "martingale_one_sample": (lambda: _martingale(1),
                              "n_samples must be an integer >= 2"),
    "martingale_no_samples": (lambda: _martingale(0),
                              "n_samples must be an integer >= 2"),
    "fractional_probes": (lambda: _probes(8.5),
                          "n_probe must be an integer >= 8"),
    "fractional_scan_grid": (
        lambda: enumerate_fixed_points(games.cournot(), 2.5),
        "grid needs at least 2 points per axis"),
    "fractional_grid": (lambda: belief_grid(2, 3.0),
                        "grid needs at least 2 points per axis"),
}


@pytest.mark.parametrize("case", list(BAD_COUNTS))
def test_counts_must_be_integers_with_evidence(case):
    call, message = BAD_COUNTS[case]
    with pytest.raises(ContractViolation, match=message):
        call()


def test_directed_hausdorff_is_exact_at_the_corners():
    # the corners (1, 0) and (0, 1) of the unit box lie 0.5 from its
    # diagonal; a sampled maximum reads less unless it draws a corner
    box = EquilibriumSet.of_box((0.0, 0.0), (1.0, 1.0))
    diagonal = EquilibriumSet.of_line((0.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    assert analysis._directed_hausdorff(box, diagonal) == 0.5
    assert analysis._directed_hausdorff(diagonal, box) == 0.0


@pytest.mark.parametrize("eq_from", [
    EquilibriumSet.of_box((0.0, 0.0), (1.0, 1.0)),
    EquilibriumSet.of_line((0.0, 0.0), (1.0, 1.0), (0.0, 1.0))],
    ids=["box", "line"])
def test_directed_hausdorff_from_a_continuum_to_a_finite_list_raises(eq_from):
    # the distance to a finite list is not convex, so the corners bound
    # nothing
    members = EquilibriumSet.of_finite_list([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ContractViolation, match="to a finite list"):
        analysis._directed_hausdorff(eq_from, members)


def test_complete_info_conditions_cournot(cournot_game):
    cert = certify_fixed_point(cournot_game, [1.0, 0.0],
                               [2.0 / 3.0, 2.0 / 3.0])
    out = check_complete_info_equilibrium_conditions(cournot_game, cert,
                                                     xi=0.1, n_probe=50)
    assert out["condition_i"] and out["condition_ii"] and out["eq_sets_equal"]


def test_complete_info_conditions_reject_finite_games(routing_game):
    cert = certify_fixed_point(routing_game, [1.0, 0.0],
                               [1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ContractViolation, match="no strategy box"):
        check_complete_info_equilibrium_conditions(routing_game, cert)


def test_nearest_fixed_point_snaps_to_complete_info(cournot_game):
    near = nearest_fixed_point(cournot_game, [1.0 - 1e-9, 1e-9],
                               [2.0 / 3.0 + 1e-7, 2.0 / 3.0])
    assert near is not None
    tag, dist, cert = near
    assert dist <= 1e-8
    assert cert.is_complete_info


@pytest.mark.parametrize("theta, calls", [([1.0], 1), ([0.99, 0.01], 2),
                                           ([0.5, 0.5], 1)],
                         ids=["affine_point_mass", "trimmed", "untrimmed"])
def test_nearest_fixed_point_solves_each_distinct_candidate_once(
        monkeypatch, theta, calls):
    # the trimmed and the raw terminal belief are one candidate when equal
    seen = []
    real = analysis.equilibrium_set

    def spy(game, belief, *args, **kwargs):
        seen.append(list(belief))
        return real(game, belief, *args, **kwargs)

    monkeypatch.setattr(analysis, "equilibrium_set", spy)
    if len(theta) == 1:
        game = games.affine_game([[-2.0, 1.0], [1.0, -2.0]], [1.0, 1.0], 0.5)
        q = [0.0, 0.0]
    else:
        game = games.cournot()
        q = [0.5, 0.5]
    near = nearest_fixed_point(game, theta, q)
    assert len(seen) == calls
    assert near is not None and near[0] == "self"
    if len(theta) == 1:
        assert near[1] == 0.0 and near[2].valid


def test_report_document_is_json_serializable(cournot_game):
    cert = certify_fixed_point(cournot_game, [1.0, 0.0],
                               [2.0 / 3.0, 2.0 / 3.0])
    th = stability_thresholds([1.0, 0.0], 0.3, 0.9)
    doc = report_document({"certificate": cert, "thresholds": th,
                           "array": np.arange(3)})
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["schema"] == "beliefplay/report-v1"
    assert back["certificate"]["is_complete_info"] is True
    assert back["array"] == [0, 1, 2]


# a certificate's fields in the order its former per-instance __dict__ held
# them
CERT_KEYS = ("belief", "q", "equivalence_set", "support", "support_subset",
             "eq_residual", "is_complete_info", "tol_kl", "tol_eq")


def _jsonable_oracle(obj):
    """The former `to_jsonable`, which read each object's `__dict__`; a
    slotted certificate has none and is read through CERT_KEYS."""
    if isinstance(obj, FixedPointCertificate):
        return {k: _jsonable_oracle(getattr(obj, k)) for k in CERT_KEYS}
    if isinstance(obj, (StabilityThresholds, StabilityReport)):
        return {k: _jsonable_oracle(v) for k, v in obj.__dict__.items()}
    if isinstance(obj, FixedPointCluster):
        return {
            "cluster_id": obj.cluster_id,
            "representative": _jsonable_oracle(obj.representative),
            "n_members": len(obj.members),
            "eq_set": _jsonable_oracle(obj.eq_set) if obj.eq_set else None,
        }
    if isinstance(obj, EquilibriumSet):
        return {k: _jsonable_oracle(v) for k, v in obj.__dict__.items()
                if v is not None}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_oracle(v) for v in obj]
    return obj


def test_to_jsonable_matches_the_dict_form():
    clusters = []
    for factory in (games.cournot, games.zerosum_example,
                    games.two_route_congestion):
        clusters += enumerate_fixed_points(factory(), belief_grid_resolution=11)
    cert = clusters[0].representative
    assert not hasattr(cert, "__dict__")  # slotted
    th = stability_thresholds([0.7, 0.3, 0.0], 0.3, 0.9)
    report = StabilityReport(
        n_runs=4, n_stayed=3, stay_probability=0.75, escape_probability=0.25,
        ci_low=0.3, ci_high=0.95, verdict="inconclusive",
        radii={"eps1": 0.02, "delta1": np.float64(0.5)},
        assumption2={"a": np.int64(3), "b": [np.asarray([1.0, -0.0])]},
        thresholds=th)
    for obj in [cert, th, report, clusters, {"certificate": cert},
                EquilibriumSet.of_line((0.5, 1.0), (1.0, 1.0), (0.0, 1.5))]:
        got, want = to_jsonable(obj), _jsonable_oracle(obj)
        assert got == want
        # the same keys in the same order, so the same unsorted JSON
        assert json.dumps(got) == json.dumps(want)
