"""The float-native kernels against the array code they replaced.

`_loglik_oracle` is the per-parameter, per-channel likelihood loop that
`log_likelihood(game, q, c)` replaced, on per-parameter channel means
computed the way the games computed them before (`_ref_channel_mean`).
The likelihood, the batch and the payoff draw given the channel means that
`run` works out once per stage (``means=``) must equal the calls that work
them out themselves, bit for bit.
`_br_oracle` holds the array best responses: `probs @ column` contractions
for Cournot, investment and affine, and the finite best response on numpy
profiles.  The new likelihood must equal the oracle bit for bit, -inf
included; a best response must equal the oracle's, except where an `@`
became a left-to-right sum, where the two may differ in the last bits.
`_certify_oracle` is the certificate on numpy beliefs and profiles that the
float-native `certify_fixed_point` replaced; every field of a certificate
must equal the oracle's, the residual bit for bit.
`_finite_best_response_oracle` is the finite best response that built a
fresh trial profile for each action, and `_payoff_equivalent_oracle` works
out S*(q) with one `channel_means` call per parameter.
`_from_probs_oracle` is the array start belief (with its total summed left
to right, and scaled by a power of two when that total overflows) that
`log_belief` replaced, and `_bayes_oracle` the array
normalisation of log probabilities (`oracles.log_normalize`) of the prior
plus the batch's log-likelihoods: the log probabilities must be equal bit
for bit, and a bad input must raise the same error.  `map_update` is the
mode of `bayes_update`'s posterior.  The fixed-point scans
are checked against scans that work out every equilibrium set's members and
S*(q) afresh for each grid belief, and against a scan that certifies every
member, candidate or not.  `_assumption2_oracle`, `_ball_oracle`,
`_near_eq_oracle` and `_hausdorff_oracle` are the Assumption-2 probes on
numpy arrays that the float-native ones replaced: the reports, the draws
and the random stream after them must be equal bit for bit.
`_hausdorff_oracle` is the largest distance over the extreme points of a
set, each taken through `oracles.reference_project`, as is the A2b distance.
"""

import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefplay import analysis, games
from beliefplay.analysis import (
    KL_TOL,
    SUPPORT_TOL,
    FixedPointCertificate,
    _members_with_equivalence,
    belief_grid,
    certify_fixed_point,
    check_all_fixed_points_complete,
    enumerate_fixed_points,
    kl_divergence,
    payoff_equivalent_set,
)
from beliefplay.dynamics import UpdateRule, run
from beliefplay.games import (
    EquilibriumSet,
    best_response,
    br_profile,
    equilibrium_set,
    sample_payoffs,
    tied_actions,
)
from beliefplay.param_belief import (
    NEG_INF,
    ContractViolation,
    ImpossibleObservation,
    UpdateSchedule,
    batch_log_likelihoods,
    bayes_update,
    log_belief,
    log_likelihood,
    map_update,
)
from oracles import (analytic_interval, log_normalize,
                     reference_log_likelihood, reference_project,
                     reference_sample)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

AFFINE_ALPHA = [[-2.0, 1.0], [1.0, -2.0]]
AFFINE_BETA = [1.0, 1.0]
AFFINE_GRID = [[-2.0, 1.0, 1.0, -2.0, 1.0, 1.0],
               [1.5, -0.5, 0.25, 3.0, -1.0, 0.5],
               [-0.75, 2.0, -1.0, 0.5, 0.0, 2.0]]

# id -> factory of the noise scale: sigma 0 gives noiseless channels
FACTORIES = {
    "cournot": lambda sigma: games.cournot(sigma=sigma),
    "zerosum": lambda sigma: games.zerosum_example(sigma=sigma),
    "investment": lambda sigma: games.investment(sigmas=(sigma, 1.5, sigma)),
    "coordination_penalty": lambda sigma: games.coordination_penalty(
        sigma=sigma),
    "routing": lambda sigma: games.two_route_congestion(sigma=sigma),
    "routing_3": lambda sigma: games.two_route_congestion(n_players=3,
                                                          sigma=sigma),
    "affine": lambda sigma: games.affine_game(AFFINE_ALPHA, AFFINE_BETA,
                                              sigma),
    "affine_grid": lambda sigma: games.affine_game(
        AFFINE_ALPHA, AFFINE_BETA, sigma, grid=AFFINE_GRID),
}
# the best responses that contract over the parameters with `@` before
CONTRACTED = {"cournot", "investment", "affine", "affine_grid"}


def _ref_channel_mean(game, s, q):
    """Channel means under parameter s, per game, as numpy arrays."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(game.space.params[s])
    if game.name == "cournot":
        return np.asarray([p[0] - p[1] * (q[0] + q[1])])
    if game.name == "zerosum":
        d = abs(q[0] - q[1])
        v = (max(d, p[0]) - p[0]) ** 2 - 2.0 * q[0] ** 2
        return np.asarray([v, -v])
    if game.name == "investment":
        return np.asarray([p[0] + q[0] + q[1]])
    if game.name == "coordination_penalty":
        d = abs(q[0] - q[1])
        c = -(q[0] - q[1]) ** 2 if d <= 1.0 else -((1.0 + p[0] * (d - 1.0)) ** 2)
        return np.asarray([c - q[0], c + q[1]])
    if game.name == "two_route_congestion":
        x = np.zeros(2)
        for i in range(game.n_players):
            x += q[2 * i: 2 * i + 2]
        return np.asarray([p[0] * x[int(np.argmax(q[2 * i: 2 * i + 2]))] + 1.0
                           for i in range(game.n_players)])
    # affine: each slope row times q, summed left to right (the contraction
    # the bit rule fixes; `a @ q + b` is checked separately, to 1e-14)
    n = game.n_players
    a = p[: n * n].reshape(n, n)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            total += a[i, j] * q[j]
        out.append(total + p[n * n + i])
    return np.asarray(out)


def _loglik_oracle(game, s, q, c):
    """log phi^s(c|q): the per-parameter, per-channel loop."""
    c = np.asarray(c, dtype=float).tolist()
    mu = _ref_channel_mean(game, s, q).tolist()
    sig = list(game.sigmas[s])
    total = 0.0
    for k in game.likelihood_channels:
        sk = sig[k]
        if sk == 0.0:
            if c[k] != mu[k]:
                return NEG_INF
            continue
        z = (c[k] - mu[k]) / sk
        total += -0.5 * z * z - math.log(sk) - _HALF_LOG_2PI
    return total


def _ref_routing_payoff(game, s, q, i):
    sv = game.space.params[s][0]
    x = np.zeros(2)
    for j in range(game.n_players):
        x += q[2 * j: 2 * j + 2]
    qi = q[2 * i: 2 * i + 2]
    others = x - qi
    return -sum(qi[e] * (sv * (1.0 + others[e]) + 1.0) for e in range(2))


def _interval(lo, hi, current):
    canonical = min(max(float(np.atleast_1d(current)[0]), lo), hi)
    if hi - lo <= games.FLAT_TOL:
        return [0.5 * (lo + hi)], None, None
    return [canonical], ((lo,), (hi,)), None


def _br_oracle(game, probs, i, q, current):
    """(point, interval, tied_actions) of the array best responses."""
    probs = np.asarray(probs, dtype=float)
    q = np.asarray(q, dtype=float)
    current = np.atleast_1d(np.asarray(current, dtype=float))
    arr = game.space.as_array()
    if game.name == "cournot":
        ea = float(probs @ arr[:, 0])
        eb = float(probs @ arr[:, 1])
        return [min(max(ea / (2.0 * eb) - q[1 - i] / 2.0, 0.0), 3.0)], None, None
    if game.name == "zerosum":
        if i == 0:
            return [0.0], None, None
        m = float(min(arr[s, 0] for s in range(3) if probs[s] > 0))
        return _interval(max(q[0] - m, 0.0), min(q[0] + m, 6.0), current)
    if game.name == "investment":
        es = float(probs @ arr[:, 0])
        return [min(max((es + q[1 - i]) / 4.0, 0.0), 1.0)], None, None
    if game.name == "coordination_penalty":
        if i == 0:
            return [min(max(q[1] - 0.5, 0.0), 2.0)], None, None
        return [min(max(q[0] + 0.5, 1.0), 4.0)], None, None
    if game.name == "affine":
        n = game.n_players
        own = np.asarray([p[: n * n].reshape(n, n).diagonal() for p in arr])
        m = float(probs @ own[:, i])
        if abs(m) <= games.FLAT_TOL:
            return _interval(0.0, 1.0, current)
        return [1.0 if m > 0.0 else 0.0], None, None
    # the finite best response on numpy profiles
    n_act = game.boxes[i]
    sl = game.slices[i]
    values = np.empty(n_act)
    for a in range(n_act):
        trial = q.copy()
        trial[sl] = 0.0
        trial[sl.start + a] = 1.0
        values[a] = sum(p * float(_ref_routing_payoff(game, s, trial, i))
                        for s, p in enumerate(probs) if p > 0)
    best = float(np.max(values))
    tied = tuple(a for a in range(n_act) if values[a] >= best - games.FLAT_TOL)
    cur = int(np.argmax(current)) if current.size == n_act else -1
    pick = cur if cur in tied and current[cur] > 1.0 - 1e-9 else tied[0]
    point = np.zeros(n_act)
    point[pick] = 1.0
    return point.tolist(), None, tied


def _bits(values):
    return [float(x).hex() for x in values]


def _close(a, b):
    """Equal up to the rounding of a reordered sum: 1e-14 relative to the
    larger magnitude, and absolute below 1 (strategies live in boxes of
    size 1 to 6, so their rounding error is absolute)."""
    return abs(a - b) <= 1e-14 * max(abs(a), abs(b), 1.0)


def _draw_game(draw):
    name = draw(st.sampled_from(sorted(FACTORIES)))
    sigma = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return name, FACTORIES[name](sigma)


def _draw_probs(draw, game):
    """A probability vector (a list) with some zero entries."""
    n_s = len(game.space)
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n_s,
        max_size=n_s).filter(any))
    return (np.asarray(weights) / sum(weights)).tolist()


def _draw_profile(draw, game):
    """A flat profile (a list): box corners or interior points, or pure and
    mixed blocks of a finite game."""
    if game.kind == "finite":
        blocks = []
        for _ in range(game.n_players):
            if draw(st.booleans()):  # pure
                block = [0.0, 0.0]
                block[draw(st.integers(0, 1))] = 1.0
            else:  # mixed
                w = draw(st.floats(0.0, 1.0))
                block = [w, 1.0 - w]
            blocks += block
        return blocks
    return [draw(st.one_of(st.sampled_from(box), st.floats(box[0], box[1])))
            for box in game.boxes]


@st.composite
def cases(draw):
    name, game = _draw_game(draw)
    n_s = len(game.space)
    probs = _draw_probs(draw, game)
    q, current = _draw_profile(draw, game), _draw_profile(draw, game)
    s_obs = draw(st.integers(0, n_s - 1))
    c = list(game.channel_means(q)[s_obs])
    for k in range(game.obs_dim):
        # keep the atom, nudge it, or draw a random payoff
        c[k] = draw(st.one_of(st.just(c[k]), st.just(c[k] + 1e-9),
                              st.floats(-30.0, 30.0)))
    return name, game, probs, q, current, c


@settings(max_examples=400, deadline=None)
@given(cases())
def test_kernels_match_the_array_oracles(case):
    name, game, probs, q, current, c = case
    n_s = len(game.space)

    # channel means: the game's rows are the per-parameter means
    means = game.channel_means(q)
    for s in range(n_s):
        assert _bits(means[s]) == _bits(_ref_channel_mean(game, s, q))
        if game.name == "affine":
            p = np.asarray(game.space.params[s])
            n = game.n_players
            a, b = p[: n * n].reshape(n, n), p[n * n:]
            scale = np.abs(a) @ np.abs(q) + np.abs(b)
            assert np.all(np.abs(np.asarray(means[s]) - (a @ np.asarray(q) + b))
                          <= 1e-14 * np.maximum(scale, 1.0))

    # the likelihood, bit for bit, -inf included
    oracle = [_loglik_oracle(game, s, q, c) for s in range(n_s)]
    assert _bits(log_likelihood(game, q, c)) == _bits(oracle)
    assert _bits(log_likelihood(game, np.asarray(q), np.asarray(c))) == \
        _bits(oracle)
    batch = [(q, c), (current, means[0])]
    second = [_loglik_oracle(game, s, current, means[0]) for s in range(n_s)]
    assert _bits(batch_log_likelihoods(None, batch, game)) == \
        _bits([a + b for a, b in zip(oracle, second)])

    # the payoff draw: the same stream and values as the array draw
    s_star = game.space.true_index
    seed = int(abs(c[0]) * 1e6) % 1000
    got = sample_payoffs(game, s_star, q, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    mu = _ref_channel_mean(game, s_star, q)
    if game.noise_loadings is not None:
        loadings = np.asarray(game.noise_loadings)
        want = mu + loadings @ rng.standard_normal(loadings.shape[1])
    elif not np.any(game.sigmas[s_star]):
        want = mu
    else:
        want = mu + np.asarray(game.sigmas[s_star]) * rng.standard_normal(
            mu.size)
    assert _bits(got) == _bits(want)

    # the channel means `run` works out once per stage and shares: the same
    # bits as the calls that work them out themselves
    assert _bits(log_likelihood(game, q, c, means=means)) == _bits(oracle)
    records = [(q, c, game.channel_means(q)),
               (current, means[0], game.channel_means(current))]
    assert _bits(batch_log_likelihoods(None, records, game)) == \
        _bits(batch_log_likelihoods(None, batch, game))
    shared = sample_payoffs(game, s_star, q, np.random.default_rng(seed),
                            means=game.channel_means(q))
    assert _bits(shared) == _bits(got)

    # best responses
    for i, sl in enumerate(game.slices):
        br = best_response(game, probs, i, q, current=current[sl])
        point, interval, tied = _br_oracle(game, probs, i, q, current[sl])
        assert isinstance(br, tuple)
        got, want = list(br), list(point)
        if game.kind == "finite":
            assert tied_actions(game, probs, i, q) == tied
        else:
            # the interval's ends; a single-valued response is both ends
            got += analytic_interval(game, probs, i, q)
            want += point * 2 if interval is None else \
                [interval[0][0], interval[1][0]]
        if name in CONTRACTED:
            assert all(_close(a, b) for a, b in zip(got, want))
        else:
            assert _bits(got) == _bits(want)
        # the array call and the list call agree exactly
        again = best_response(game, np.asarray(probs), i, np.asarray(q),
                              current=np.asarray(current[sl]))
        assert _bits(again) == _bits(br)


@pytest.mark.parametrize("schedule", [
    UpdateSchedule.every_stage(), UpdateSchedule.fixed_batch(7),
    UpdateSchedule.geometric(0.3)], ids=lambda s: s.kind)
def test_run_works_out_the_channel_means_once_per_stage(monkeypatch,
                                                        schedule):
    calls = []
    channel_means = games.GameModel.channel_means
    monkeypatch.setattr(games.GameModel, "channel_means",
                        lambda self, q: calls.append(None)
                        or channel_means(self, q))
    game = games.cournot()
    traj = run(game, UpdateRule.linear(), schedule, ([0.5, 0.5], [1.0, 1.0]),
               60, 0)
    assert traj.updated.any()
    assert len(calls) == 60


def test_noiseless_channel_is_an_atom_in_every_game():
    for name, factory in FACTORIES.items():
        game = factory(0.0)
        q = [0.0] * game.q_dim if game.kind == "continuous" else \
            [1.0, 0.0] * game.n_players
        means = game.channel_means(q)
        for s in range(len(game.space)):
            values = log_likelihood(game, q, means[s])
            for r in range(len(game.space)):
                if any(game.sigmas[r]):  # a noisy parameter
                    assert math.isfinite(values[r]), name
                    continue
                hit = all(means[r][k] == means[s][k]
                          for k in game.likelihood_channels)
                assert values[r] == (0.0 if hit else NEG_INF), name


def test_per_channel_sample_arrays_match_scalar_calls():
    game = games.coordination_penalty(sigma=0.75)
    q = [0.4, 1.7]
    rng = np.random.default_rng(3)
    samples = [rng.normal(-2.0, 1.0, 50), rng.normal(1.0, 1.0, 50)]
    values = log_likelihood(game, q, samples)
    for t in range(50):
        scalar = log_likelihood(game, q, [samples[0][t], samples[1][t]])
        assert _bits([v[t] for v in values]) == _bits(scalar)
    # a noiseless channel gives 0 at its atom and -inf elsewhere, per sample
    game = games.investment(sigmas=(0.0, 1.0, 2.0))
    atom = game.channel_means(q)[0][0]
    values = log_likelihood(game, q, [np.asarray([atom, atom + 1.0])])
    assert values[0].tolist() == [0.0, NEG_INF]


@st.composite
def atom_cases(draw):
    """(game, q, c): investment with a noise scale of 0, 0.5 or sqrt(5) per
    parameter, or another game with every channel noiseless; c holds, per
    channel, a parameter's channel mean (an atom), that mean nudged, or a
    random payoff, either as one value or as an array of samples."""
    name = draw(st.sampled_from(sorted(FACTORIES)))
    if name == "investment":
        game = games.investment(sigmas=[draw(st.sampled_from(
            [0.0, 0.5, math.sqrt(5.0)])) for _ in range(3)])
    else:
        game = FACTORIES[name](0.0)
    q = _draw_profile(draw, game)
    means = game.channel_means(q)
    n_s = len(game.space)

    def value(k):
        mu = means[draw(st.integers(0, n_s - 1))][k]
        return draw(st.one_of(st.just(mu), st.just(mu + 1e-9),
                              st.floats(-30.0, 30.0)))

    if draw(st.booleans()):
        return game, q, [value(k) for k in range(game.obs_dim)]
    n = draw(st.integers(1, 4))
    return game, q, [np.asarray([value(k) for _ in range(n)])
                     for k in range(game.obs_dim)]


def _value_bits(values):
    """Each value's shape and bytes: a scalar and a one-sample array differ."""
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes())
            for v in values]


@settings(max_examples=300, deadline=None)
@given(atom_cases())
def test_log_likelihood_matches_the_sigma_walk(case):
    # the table sum and the atom pass against the walk over each
    # parameter's sigmas that they replaced, -inf and per-sample arrays
    # included
    game, q, c = case
    want = _value_bits(reference_log_likelihood(game, q, c))
    assert _value_bits(log_likelihood(game, q, c)) == want
    assert _value_bits(log_likelihood(game, np.asarray(q), np.asarray(c),
                                      means=game.channel_means(q))) == want


# ---------------------------------------------------------------------------
# Certificates


def _pure_profiles_oracle(game, q, support_tol=SUPPORT_TOL):
    q = np.asarray(q, dtype=float)
    per_player = []
    for sl in game.slices:
        block = q[sl]
        per_player.append([a for a in range(block.size) if block[a] > support_tol])
    for combo in itertools.product(*per_player):
        profile = np.zeros(game.q_dim)
        for i, a in enumerate(combo):
            profile[game.slices[i].start + a] = 1.0
        yield profile


def _payoff_equivalent_oracle(game, q, tol=KL_TOL):
    s_star = game.space.true_index
    if game.kind == "finite":
        profiles = _pure_profiles_oracle(game, q)
    else:
        profiles = [q]
    result = range(len(game.space))
    for profile in profiles:
        result = [s for s in result
                  if kl_divergence(game, s_star, s, profile) <= tol]
    return tuple(result)


def _br_profile_oracle(game, belief, q, current=None):
    probs = np.asarray(belief, dtype=float).tolist()
    q = np.asarray(q, dtype=float)
    flat = q.tolist()
    out = q.copy()
    for i, sl in enumerate(game.slices):
        cur = flat[sl] if current is None else current[sl]
        out[sl] = best_response(game, probs, i, flat, current=cur)
    return out


def _certify_oracle(game, belief, q, tol_kl=KL_TOL, tol_eq=1e-8):
    """The array certificate `certify_fixed_point` replaced: numpy belief and
    profile, numpy pure profiles in payoff_equivalent_set, an array
    br_profile and an np.max residual."""
    probs = np.asarray(belief, dtype=float)
    q = np.asarray(q, dtype=float)
    equiv = _payoff_equivalent_oracle(game, q, tol_kl)
    support = tuple(int(s) for s in np.nonzero(probs > 0.0)[0])
    subset = set(support) <= set(equiv)
    if game.kind == "finite":
        residual = 0.0
        for i, sl in enumerate(game.slices):
            tied = tied_actions(game, probs, i, q)
            block = q[sl]
            off = sum(block[a] for a in range(block.size) if a not in tied)
            residual = max(residual, float(off))
    else:
        residual = float(np.max(np.abs(
            _br_profile_oracle(game, probs, q, current=q) - q)))
    s_star = game.space.true_index
    complete = bool(
        probs[s_star] >= 1.0 - 1e-12
        and all(p <= 1e-12 for i, p in enumerate(probs) if i != s_star)
    )
    return FixedPointCertificate(
        belief=tuple(float(p) for p in probs),
        q=tuple(float(x) for x in q),
        equivalence_set=equiv,
        support=support,
        support_subset=bool(subset),
        eq_residual=residual,
        is_complete_info=complete,
        tol_kl=tol_kl,
        tol_eq=tol_eq,
    )


@st.composite
def certificate_cases(draw):
    name, game = _draw_game(draw)
    probs = _draw_probs(draw, game)
    if draw(st.booleans()):  # the truth alone: a complete-information belief
        probs = [0.0] * len(probs)
        probs[game.space.true_index] = 1.0
    if game.analytic_eq is not None and draw(st.booleans()):
        # an equilibrium member, as enumerate_fixed_points certifies
        eq = equilibrium_set(game, probs)
        reps = eq.representatives(draw(st.integers(2, 7)))
        q = reps[draw(st.integers(0, len(reps) - 1))]
    else:
        q = _draw_profile(draw, game)
    form = draw(st.sampled_from(["tuple", "array", "list"]))
    belief = {"tuple": tuple(probs), "array": np.asarray(probs),
              "list": probs}[form]
    tol_eq = draw(st.sampled_from([1e-8, 0.0, 0.5]))
    return name, game, belief, q, tol_eq


@settings(max_examples=400, deadline=None)
@given(certificate_cases(), st.booleans())
def test_certificates_match_the_array_oracle(case, q_as_array):
    name, game, belief, q, tol_eq = case
    oracle = _certify_oracle(game, belief, np.asarray(q), tol_eq=tol_eq)
    cert = certify_fixed_point(game, belief,
                               np.asarray(q) if q_as_array else q,
                               tol_eq=tol_eq)
    assert cert == oracle
    # repr tells the floats apart bit for bit and the types (bool, int,
    # float) apart as well
    assert repr(cert) == repr(oracle)
    assert cert.eq_residual.hex() == oracle.eq_residual.hex()
    assert cert.valid == oracle.valid
    assert payoff_equivalent_set(game, q) == \
        _payoff_equivalent_oracle(game, np.asarray(q))
    given_equiv = certify_fixed_point(
        game, belief, q, tol_eq=tol_eq,
        equivalence_set=_payoff_equivalent_oracle(game, np.asarray(q)))
    assert repr(given_equiv) == repr(oracle)
    assert _bits(br_profile(game, belief, q, current=q)) == \
        _bits(_br_profile_oracle(game, belief, q, current=np.asarray(q)))


# ---------------------------------------------------------------------------
# Beliefs


def _from_probs_oracle(probs):
    """The array start belief, with the total summed left to right: the
    normalised log probabilities."""
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0):
        raise ContractViolation("probabilities must be non-negative")
    if not np.all(np.isfinite(p)):
        raise ContractViolation("probabilities must be finite")
    total = 0.0
    for x in p.tolist():
        total += x
    if total == math.inf:  # scaled so that the largest lies in [0.5, 1)
        p = np.ldexp(p, -np.frexp(np.max(p))[1])
        total = 0.0
        for x in p.tolist():
            total += x
    if not total > 0:
        raise ContractViolation("probabilities must have positive mass")
    with np.errstate(divide="ignore"):
        return log_normalize(np.log(p / total))


def _outcome(fn, arg):
    """repr of fn(arg), or the type and message of what it raised."""
    # the array oracles warn on inf and overflow; the results still count
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            return repr(fn(arg))
        except Exception as exc:
            return type(exc), str(exc)


BAD_ENTRIES = [-1e-5, -2.0, -math.inf, math.nan, math.inf, 1e308]


@st.composite
def prob_vectors(draw):
    """1-12 entries, zeros among magnitudes from 1e-5 to 1e5; sometimes one
    bad entry, all zeros or an empty vector."""
    n = draw(st.integers(1, 12))
    probs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-5, 1e5)),
                          min_size=n, max_size=n))
    bad = draw(st.sampled_from(["none"] * 4 + ["entry", "zeros", "empty"]))
    if bad == "entry":
        probs[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    elif bad == "zeros":
        probs = [0.0] * n
    elif bad == "empty":
        probs = []
    return probs


@settings(max_examples=600, deadline=None)
@given(prob_vectors(), st.sampled_from(["list", "array", "tuple"]))
@example([1e308, 0.0, 1.5e308, 1e-300], "list")
@example([math.inf, 1.0], "array")
@example([math.nan, 1.0], "list")
@example([1.0, 0.0, math.nan], "tuple")
def test_log_belief_matches_the_array_oracle(probs, form):
    given_probs = {"list": list, "array": np.asarray, "tuple": tuple}[form](
        probs)
    want = _outcome(_from_probs_oracle, probs)
    assert _outcome(log_belief, given_probs) == want
    if isinstance(want, str):
        assert type(log_belief(given_probs)) is list


@st.composite
def bayes_cases(draw):
    """A game, a prior of log probabilities (finite, -inf, +inf or NaN
    entries, of |S| entries or one more or fewer) and a one-record batch at
    a drawn profile."""
    _, game = _draw_game(draw)
    n_s = len(game.space)
    size = draw(st.sampled_from([n_s] * 6 + [n_s - 1, n_s + 1]))
    log_prior = draw(st.lists(
        st.one_of(st.floats(-50.0, 50.0),
                  st.sampled_from([-math.inf, math.inf, math.nan])),
        min_size=size, max_size=size))
    q = _draw_profile(draw, game)
    c = list(game.channel_means(q)[draw(st.integers(0, n_s - 1))])
    for k in range(game.obs_dim):
        c[k] = draw(st.one_of(st.just(c[k]), st.floats(-30.0, 30.0)))
    return game, log_prior, [(q, c)]


def _bayes_oracle(game, log_prior, batch):
    """`oracles.log_normalize` of the prior plus the batch's
    log-likelihoods: a NaN or +inf score raises before scores that are all
    -inf do."""
    if len(log_prior) != len(game.space):
        raise ContractViolation("belief has %d entries, expected %d (one per "
                                "parameter)" % (len(log_prior),
                                                len(game.space)))
    return log_normalize(np.asarray(log_prior)
                         + batch_log_likelihoods(None, batch, game))


@settings(max_examples=300, deadline=None)
@given(bayes_cases(), st.sampled_from([list, tuple, np.asarray]))
def test_bayes_update_matches_the_array_oracle(case, form):
    game, log_prior, batch = case
    assert _outcome(lambda lp: bayes_update(lp, batch, game),
                    form(log_prior)) == \
        _outcome(lambda lp: _bayes_oracle(game, lp, batch), log_prior)


@st.composite
def near_tie_cases(draw):
    """Noiseless Cournot at q = (1/2, 1/2), where both parameters put the
    price at 1.0, so a price of 1.0 adds 0.0 to each score and the
    posterior scores are the prior's: scores within a few ulps of each
    other, which tie or not once normalised."""
    game = games.cournot(sigma=0.0)
    log_prior = draw(st.lists(st.sampled_from(
        [0.0, -0.0, -1e-17, 1e-17, -3e-17, -1e-16, -2e-16, 5e-324]),
        min_size=2, max_size=2))
    return game, log_prior, [([0.5, 0.5], [1.0])]


@settings(max_examples=300, deadline=None)
@given(st.one_of(bayes_cases(), near_tie_cases()))
# the scores -1e-17 and 0.0 normalise to log-probabilities that tie at
# -log 2, so the mode is parameter 0, as `run`'s MAP mode picks it
@example((games.cournot(sigma=0.0), [-1e-17, 0.0], [([0.5, 0.5], [1.0])]))
def test_map_update_is_the_mode_of_bayes_update(case):
    game, log_prior, batch = case
    try:
        log_probs = bayes_update(log_prior, batch, game)
    except (ContractViolation, ImpossibleObservation) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            map_update(log_prior, batch, game)
        return
    # np.argmax takes the lowest index on ties
    assert map_update(log_prior, batch, game) == int(np.argmax(log_probs))


# ---------------------------------------------------------------------------
# Fixed-point scans


# the games of the config's game ids, with their default parameters
BUILT_IN = [games.cournot, games.zerosum_example, games.investment,
            games.coordination_penalty, games.two_route_congestion,
            lambda: games.affine_game(AFFINE_ALPHA, AFFINE_BETA, 0.5)]
BUILT_IN_IDS = ["cournot", "zerosum", "investment", "coordination_penalty",
                "routing", "affine"]


def _uncached_members(game, eq, n, tol_kl, cache):
    """Every grid belief's members and their S*(q) afresh, as before the
    scans shared them."""
    return [(q, payoff_equivalent_set(game, q, tol_kl))
            for q in eq.representatives(n)]


def _check_all_oracle(game, n_dirichlet=500, grid_resolution=51, seed=0,
                      strategy_samples=7, tol_kl=KL_TOL):
    """`check_all_fixed_points_complete` with S*(q) worked out for every
    member of every candidate's equilibrium set."""
    n = len(game.space)
    s_star = game.space.true_index
    rng = np.random.default_rng(seed)
    candidates = belief_grid(n, grid_resolution)
    candidates += [rng.dirichlet(np.ones(n)).tolist()
                   for _ in range(n_dirichlet)]
    for probs in candidates:
        if probs[s_star] >= 1.0 - 1e-12:
            continue
        eq = equilibrium_set(game, probs)
        support = {s for s, p in enumerate(probs) if p > 0.0}
        for q in eq.representatives(strategy_samples):
            if support <= set(payoff_equivalent_set(game, q, tol_kl)):
                return False, (tuple(probs), tuple(q))
    return True, None


def _assert_same_clusters(got, want):
    """The reprs of two scans' clusters are equal: id, representative and
    equilibrium set cluster by cluster, then the members one by one, so a
    failure names the first difference instead of diffing two strings of
    some 6,600 certificates."""
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert repr((a.cluster_id, a.representative, a.eq_set)) == \
            repr((b.cluster_id, b.representative, b.eq_set)), k
        assert len(a.members) == len(b.members), k
        for j, (x, y) in enumerate(zip(a.members, b.members)):
            assert repr(x) == repr(y), (k, j)


@pytest.mark.parametrize("factory", BUILT_IN, ids=BUILT_IN_IDS)
def test_scans_match_the_uncached_scans(factory, monkeypatch):
    game = factory()
    got = enumerate_fixed_points(game)
    complete = None
    if game.analytic_eq is not None:
        complete = repr(check_all_fixed_points_complete(game))
        assert complete == repr(_check_all_oracle(game))
    monkeypatch.setattr(analysis, "_members_with_equivalence",
                        _uncached_members)
    _assert_same_clusters(got, enumerate_fixed_points(game))


def test_minus_zero_bound_gets_its_own_cache_entry():
    game = games.affine_game(AFFINE_ALPHA, AFFINE_BETA, 0.5)
    plus = EquilibriumSet.of_box([0.0, 0.0], [1.0, 1.0])
    minus = EquilibriumSet.of_box([-0.0, 0.0], [1.0, 1.0])
    assert plus == minus  # dataclass equality does not tell them apart
    cache = {}
    first = _members_with_equivalence(game, plus, 3, KL_TOL, cache)
    second = _members_with_equivalence(game, minus, 3, KL_TOL, cache)
    assert len(cache) == 2 and first is not second
    # the same set again is served from the cache
    assert _members_with_equivalence(game, minus, 3, KL_TOL, cache) is second
    # a point's sign of zero reaches its member
    point = _members_with_equivalence(
        game, EquilibriumSet.of_point([-0.0, 0.5]), 3, KL_TOL, cache)
    assert math.copysign(1.0, point[0][0][0]) == -1.0
    assert len(cache) == 3


def _certify_every_member(game, res=51, n_members=5):
    """The valid certificates of a scan that certifies every member of every
    grid belief's equilibrium set, each with its own S*(q)."""
    valid = []
    for theta in belief_grid(len(game.space), res):
        eq = equilibrium_set(game, theta)
        for q in eq.representatives(n_members):
            cert = certify_fixed_point(game, theta, q)
            if cert.valid:
                valid.append((cert, eq))
    return valid


def _spy_certify(monkeypatch):
    """Count the certificates the scans make through the module global."""
    calls = []
    real = analysis.certify_fixed_point

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "certify_fixed_point", spy)
    return calls


@pytest.mark.parametrize("factory", BUILT_IN, ids=BUILT_IN_IDS)
def test_scan_matches_a_scan_that_certifies_every_member(factory,
                                                         monkeypatch):
    game = factory()
    oracle = _certify_every_member(game)
    calls = _spy_certify(monkeypatch)
    _assert_same_clusters(enumerate_fixed_points(game),
                          analysis._cluster_certificates(game, oracle, 51, 5))
    # every valid certificate was a candidate, so it was certified
    assert len(oracle) <= len(calls)


def test_only_candidates_are_certified(monkeypatch):
    # learning identifies investment's truth: only the complete-information
    # grid point has its support inside S*(q), so its one member is the only
    # certificate made
    game = games.investment()
    calls = _spy_certify(monkeypatch)
    clusters = enumerate_fixed_points(game)
    assert [cl.cluster_id for cl in clusters] == ["complete_info"]
    assert len(calls) == len(clusters[0].members) == 1
    # on zerosum 6,628 of the 6,630 members are candidates, and each of
    # them certifies
    calls.clear()
    clusters = enumerate_fixed_points(games.zerosum_example())
    assert len(calls) == sum(len(cl.members) for cl in clusters) == 6628


# ---------------------------------------------------------------------------
# Payoff equivalence with one channel_means call per profile


@st.composite
def equivalence_cases(draw):
    name, game = _draw_game(draw)
    if game.analytic_eq is not None and draw(st.booleans()):
        eq = equilibrium_set(game, _draw_probs(draw, game))
        reps = eq.representatives(draw(st.integers(2, 7)))
        q = reps[draw(st.integers(0, len(reps) - 1))]
    else:
        q = _draw_profile(draw, game)
    return name, game, q


@settings(max_examples=300, deadline=None)
@given(equivalence_cases(), st.sampled_from([KL_TOL, 0.0, 1e-3]))
def test_payoff_equivalent_set_reads_the_means_once_per_profile(case, tol):
    name, game, q = case
    want = _payoff_equivalent_oracle(game, np.asarray(q), tol)
    calls = []
    real = game.channel_mean_fn

    def counting(profile):
        calls.append(profile)
        return real(profile)

    game.channel_mean_fn = counting
    try:
        assert payoff_equivalent_set(game, q, tol) == want
    finally:
        game.channel_mean_fn = real
    if game.kind == "finite":
        n_profiles = len(list(_pure_profiles_oracle(game, q)))
    else:
        n_profiles = 1
    assert len(calls) == n_profiles
    # the divergence on given means is the divergence on its own means
    means = game.channel_means(q)
    s_star = game.space.true_index
    for s in range(len(game.space)):
        assert _bits([kl_divergence(game, s_star, s, q, means=means)]) == \
            _bits([kl_divergence(game, s_star, s, q)])


# ---------------------------------------------------------------------------
# Finite best response with one trial profile


def _finite_best_response_oracle(game, probs, i, q, current):
    """The finite best response that built a fresh trial profile for each
    action: (point, tied_actions)."""
    n_act = game.boxes[i]
    sl = game.slices[i]
    payoff = game.mean_payoff_fn
    values = []
    for a in range(n_act):
        trial = list(q)
        trial[sl] = [0.0] * n_act
        trial[sl.start + a] = 1.0
        value = 0.0
        for s, p in enumerate(probs):
            if p > 0.0:
                value += p * payoff(s, trial, i)
        values.append(value)
    best = max(values)
    tied = tuple(a for a in range(n_act)
                 if values[a] >= best - games.FLAT_TOL)
    cur_act = current.index(max(current)) if len(current) == n_act else -1
    pick = (cur_act if cur_act in tied and current[cur_act] > 1.0 - 1e-9
            else tied[0])
    point = [0.0] * n_act
    point[pick] = 1.0
    return tuple(point), tied


@st.composite
def finite_cases(draw):
    """Two-route games with 1-3 players, beliefs with zeros (sometimes a
    point mass), and pure or mixed profiles."""
    game = games.two_route_congestion(
        n_players=draw(st.integers(1, 3)),
        sigma=draw(st.sampled_from([0.0, 1.0])))
    probs = _draw_probs(draw, game)
    if draw(st.booleans()):
        probs = [0.0] * len(probs)
        probs[draw(st.integers(0, len(probs) - 1))] = 1.0
    return game, probs, _draw_profile(draw, game), _draw_profile(draw, game)


@settings(max_examples=400, deadline=None)
@given(finite_cases())
def test_finite_best_response_matches_the_fresh_profile_oracle(case):
    game, probs, q, current = case
    before = list(q)
    for i, sl in enumerate(game.slices):
        br = best_response(game, probs, i, q, current=current[sl])
        point, tied = _finite_best_response_oracle(game, probs, i, q,
                                                   current[sl])
        assert _bits(br) == _bits(point)
        assert tied_actions(game, probs, i, q) == tied
    assert q == before  # the profile is read, never written


# ---------------------------------------------------------------------------
# Assumption-2 probes on lists of floats


def _ball_oracle(theta_bar, eps, rng):
    """`sample_belief_ball` on numpy arrays, as it was before the probes
    moved to lists of floats."""
    theta_bar = np.asarray(theta_bar, dtype=float)
    if eps == 0.0:
        return theta_bar.copy()
    n = theta_bar.size
    j = int(np.argmax(theta_bar))
    rest = [i for i in range(n) if i != j]
    lo = np.maximum(theta_bar - eps, 0.0)
    hi = np.minimum(theta_bar + eps, 1.0)
    for _ in range(100000):
        x = np.empty(n)
        for i in rest:
            x[i] = lo[i] + (hi[i] - lo[i]) * rng.random()
        total = 0.0
        for i in rest:
            total += x[i]
        x[j] = 1.0 - total
        if x[j] <= 0.0 or abs(x[j] - theta_bar[j]) > eps:
            continue
        if all(x[i] > 0.0 for i in range(n)):
            return x
    warnings.warn("belief-ball rejection failed; shrinking the radius")
    return _ball_oracle(theta_bar, eps / 2.0, rng)


def _near_eq_oracle(game, eq, delta, rng):
    base = reference_sample(eq, 1, rng)[0]
    if delta > 0.0:
        base = base + (2.0 * rng.random(base.size) - 1.0) * delta
    return np.clip(base, game.box_lo(), game.box_hi())


def _hausdorff_oracle(eq_from, eq_to):
    """The directed Hausdorff distance on numpy arrays: the largest
    `reference_project` distance to eq_to over eq_from's extreme points (a
    point set's point, a box's corners, a line's ends, a finite list's
    members)."""
    if eq_from.kind == "point":
        pts = np.asarray([eq_from.point])
    elif eq_from.kind == "box":
        pts = np.asarray(list(itertools.product(*zip(eq_from.lo, eq_from.hi))))
    elif eq_from.kind == "line":
        pts = (np.asarray(eq_from.base)
               + np.asarray(eq_from.t_range)[:, None]
               * np.asarray(eq_from.direction))
    else:
        pts = np.asarray(eq_from.members)
    return max(float(np.max(np.abs(v - reference_project(eq_to, v))))
               for v in pts)


def _assumption2_oracle(game, certificate, eps, delta, n_probe, seed):
    """`check_assumption2` on numpy arrays, as it was before the probes
    moved to lists of floats, with each equilibrium set taken at the drawn
    probabilities as they are."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    theta_bar = np.asarray(certificate.belief, dtype=float)
    eq_bar = equilibrium_set(game, theta_bar)
    support = certificate.support
    radii, dists = [], []
    for _ in range(n_probe):
        theta = _ball_oracle(theta_bar, eps, rng)
        eq = equilibrium_set(game, theta)
        radii.append(float(np.max(np.abs(theta - theta_bar))))
        dists.append(_hausdorff_oracle(eq, eq_bar))
    radii = np.asarray(radii)
    dists = np.asarray(dists)
    bins = np.array_split(np.argsort(radii), 8)
    envelope = [float(np.max(dists[b])) if len(b) else 0.0 for b in bins]
    a2a_pass = bool(envelope[-1] <= 1e-9
                    or envelope[0] <= 0.5 * envelope[-1] + 1e-8)
    a2b_violations = 0
    a2b_counterexample = None
    for _ in range(n_probe):
        theta = _ball_oracle(theta_bar, eps, rng)
        q = _near_eq_oracle(game, eq_bar, delta, rng)
        br = np.asarray(br_profile(game, theta, q, current=q))
        if float(np.max(np.abs(br - reference_project(eq_bar, br)))) \
                > delta + 1e-12:
            a2b_violations += 1
            if a2b_counterexample is None:
                a2b_counterexample = (tuple(theta.tolist()), tuple(q.tolist()))
    a2c_violations = 0
    a2c_counterexample = None
    for _ in range(n_probe):
        q = _near_eq_oracle(game, eq_bar, delta, rng)
        if not set(support) <= set(payoff_equivalent_set(game, q)):
            a2c_violations += 1
            if a2c_counterexample is None:
                a2c_counterexample = tuple(q.tolist())
    return {
        "A2a": {"pass": a2a_pass, "envelope": envelope, "n_probe": n_probe},
        "A2b": {"pass": a2b_violations == 0, "violations": a2b_violations,
                "counterexample": a2b_counterexample, "n_probe": n_probe},
        "A2c": {"pass": a2c_violations == 0, "violations": a2c_violations,
                "counterexample": a2c_counterexample, "n_probe": n_probe},
    }


def _hexed(obj):
    """obj with every float written by `float.hex` (bit for bit, -0.0 told
    from 0.0); containers keep their type."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_hexed(v) for v in obj)
    return obj


def _two_member_cournot():
    """Cournot whose EQ(theta) is a finite list: its equilibrium point and
    that point moved up by 0.25 (clipped to the box)."""
    base = games.cournot()
    hi = base.box_hi()

    def analytic_eq(probs):
        point = base.analytic_eq(probs).point
        moved = [min(x + 0.25, h) for x, h in zip(point, hi)]
        return EquilibriumSet.of_finite_list([point, moved])

    return dataclasses.replace(base, analytic_eq=analytic_eq)


@pytest.fixture(scope="module")
def a2_certificates():
    """(label, game, certificate) for every kind of EQ(theta_bar): Cournot's
    two clusters and investment (points), zerosum (a box), coordination (a
    line) and the two-member Cournot (a finite list)."""
    out = []
    for label, game in (("cournot", games.cournot()),
                        ("investment", games.investment()),
                        ("zerosum", games.zerosum_example()),
                        ("coordination", games.coordination_penalty())):
        for cl in enumerate_fixed_points(game):
            out.append(("%s/%s" % (label, cl.cluster_id), game,
                        cl.representative))
    cournot_cert = out[0][2]
    out.append(("cournot_finite_list", _two_member_cournot(), cournot_cert))
    kinds = {label: equilibrium_set(game, list(cert.belief)).kind
             for label, game, cert in out}
    assert kinds == {"cournot/complete_info": "point",
                     "cournot/theta_dagger": "point",
                     "investment/complete_info": "point",
                     "zerosum/complete_info": "box",
                     "coordination/complete_info": "line",
                     "cournot_finite_list": "finite_list"}
    return out


def _both(game, cert, eps, delta, n_probe, seed):
    """(result, warning count) of `check_assumption2` and of the oracle."""
    out = []
    for fn in (analysis.check_assumption2, _assumption2_oracle):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(game, cert, eps, delta, n_probe=n_probe, seed=seed)
        out.append((_hexed(result), len(caught)))
    return out


@pytest.mark.parametrize("eps", [0.0, 0.05, 1.0 / 3.0])
@pytest.mark.parametrize("delta", [0.0, 0.1, 1.0])
def test_assumption2_matches_the_array_oracle(a2_certificates, eps, delta):
    for label, game, cert in a2_certificates:
        for seed in (0, 1, 2):
            got, want = _both(game, cert, eps, delta, 24, seed)
            assert got == want, (label, seed)


class _StuckRng:
    """A generator whose first ``stuck`` scalar ``random()`` draws are 0.0,
    which a belief ball around a belief with a zero entry always rejects."""

    def __init__(self, seed, stuck):
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._stuck = stuck

    def random(self, size=None):
        if size is None and self._stuck:
            self._stuck -= 1
            return 0.0
        return self._gen.random(size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_assumption2_matches_the_oracle_when_the_ball_shrinks(
        a2_certificates, monkeypatch):
    # theta_bar (1, 0): the first ball draw is rejected 100,000 times, so
    # the radius halves once
    label, game, cert = a2_certificates[0]
    assert cert.belief == (1.0, 0.0)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _StuckRng(seed, 100000))
    got, want = _both(game, cert, 0.05, 0.1, 8, 3)
    assert got == want and got[1] == 1


@pytest.mark.parametrize("theta_bar", [[0.6, 0.3, 0.1], [1.0, 0.0],
                                       [0.2, 0.2, 0.6], [0.25] * 4,
                                       [0.0, 0.5, 0.5]])
@pytest.mark.parametrize("eps", [0.0, 0.01, 0.3, 1.0])
def test_belief_ball_matches_the_array_oracle(theta_bar, eps):
    got_rng = np.random.default_rng(7)
    want_rng = np.random.default_rng(7)
    for _ in range(50):
        got = analysis.sample_belief_ball(theta_bar, eps, got_rng)
        want = _ball_oracle(theta_bar, eps, want_rng)
        assert type(got) is list and _bits(got) == _bits(want.tolist())
    assert got_rng.random() == want_rng.random()


def test_probe_helpers_match_the_array_oracles(a2_certificates):
    # A2b and A2c report only counts and the first counterexample, so the
    # draws near a box or a line pass unseen where nothing is violated:
    # compare the helpers draw by draw, and the stream after them
    cournot = a2_certificates[0][1]
    cases = [(game, equilibrium_set(game, list(cert.belief)))
             for _, game, cert in a2_certificates]
    # signed zeros on the box bounds, where np.clip keeps the bound
    cases += [(cournot, EquilibriumSet.of_point([-0.0, 0.0])),
              (cournot, EquilibriumSet.of_box([-0.0, 0.0], [0.0, -0.0]))]
    for seed, (game, eq) in enumerate(cases):
        for delta in (0.0, 0.1, 1.0):
            got_rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            near_eq = analysis._near_eq_sampler(game, eq, delta)
            for _ in range(20):
                got = near_eq(got_rng)
                want = _near_eq_oracle(game, eq, delta, want_rng)
                assert type(got) is list
                assert _bits(got) == _bits(want.tolist()), (eq, delta)
            assert got_rng.random() == want_rng.random()
        for _, eq_to in cases:
            if eq.kind in ("box", "line") and eq_to.kind == "finite_list":
                with pytest.raises(ContractViolation, match="finite list"):
                    analysis._directed_hausdorff(eq, eq_to)
                continue
            got = analysis._directed_hausdorff(eq, eq_to)
            want = _hausdorff_oracle(eq, eq_to)
            assert got.hex() == want.hex(), (eq, eq_to)
