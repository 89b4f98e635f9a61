"""Analysis toolkit: KL divergence and payoff-equivalence sets,
fixed-point certification/enumeration, what reads a finished run (the
convergence rate, the distances to EQ(theta) at its updates), stability
thresholds, martingale/upcrossing diagnostics and Monte Carlo stability
experiments."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import UpdateRule, _map_replicas, replica_seed, run
from .games import (
    EquilibriumSet,
    br_profile,
    equilibrium_set,
    tied_actions,
)
from .param_belief import (
    ContractViolation,
    UpdateSchedule,
    _check_length,
    _check_profile,
    _floats,
    _is_count,
    _total,
    log_likelihood,
)

INF = float("inf")
KL_TOL = 1e-9
SUPPORT_TOL = 1e-12
# close certificate pairs that `_link_groups` buffers between two merges.
# The buffer and the merge's temporaries take about 35 bytes a pair: 32k
# pairs raised the peak RSS of repeated zerosum fixed-points ops by about
# 0.8 MB, 8k pairs keep it at the level of the cell-pair union-find loop.
_LINK_FLUSH = 1 << 13

REPORT_SCHEMA = "beliefplay/report-v1"


def _check_count(name, value, least):
    """Raise ContractViolation unless ``value`` is an integer >= least (a
    bool is not one)."""
    if not (_is_count(value) and value >= least):
        raise ContractViolation("%s must be an integer >= %d, got %r"
                                % (name, least, value))


def _theta_star(game):
    """The complete-information belief: all mass on the truth, as a list
    of floats."""
    theta = [0.0] * len(game.space)
    theta[game.space.true_index] = 1.0
    return theta


# ---------------------------------------------------------------------------
# KL divergence and payoff equivalence


def kl_divergence(game, s_a, s_b, q, *, means=None):
    """D_KL(phi^{s_a}(.|q) || phi^{s_b}(.|q)) over the likelihood channels.

    Gaussian closed form per channel, on the channel means at q and the
    game's sigma table; +inf when absolute continuity fails (zero-variance
    atom mismatch).  ``means``, when given, is taken as
    ``game.channel_means(q)`` instead of working it out again."""
    if means is None:
        means = game.channel_means(q)
    mu_a, mu_b = means[s_a], means[s_b]
    sig_a, sig_b = game.sigmas[s_a], game.sigmas[s_b]
    total = 0.0
    for k in game.likelihood_channels:
        sa, sb = sig_a[k], sig_b[k]
        da = mu_a[k] - mu_b[k]
        if sa == 0.0 and sb == 0.0:
            if da != 0.0:
                return INF
            continue
        if sa == 0.0 or sb == 0.0:
            return INF
        total += math.log(sb / sa) + (sa * sa + da * da) / (2.0 * sb * sb) - 0.5
    return total


def payoff_equivalent_set(game, q, tol=KL_TOL):
    """S*(q): parameters whose payoff distribution at q matches the truth's.

    In a finite game, the intersection of these sets over the pure profiles in
    the support of the mixed profile q (probabilities above SUPPORT_TOL).
    ``q`` is converted to a list of floats once; a list is taken as is.  The
    channel means are worked out once per profile."""
    q = _floats(q)
    _check_profile(q, game)
    s_star = game.space.true_index
    if game.kind == "finite":
        profiles = _pure_profiles_in_support(game, q)
    else:
        profiles = [q]
    result = range(len(game.space))
    for profile in profiles:
        means = game.channel_means(profile)
        result = [s for s in result if kl_divergence(
            game, s_star, s, profile, means=means) <= tol]
    return tuple(result)


def _pure_profiles_in_support(game, q):
    """The pure profiles (lists of floats) in the support of the mixed
    profile q, a list of floats."""
    per_player = [[a for a, x in enumerate(q[sl]) if x > SUPPORT_TOL]
                  for sl in game.slices]
    for combo in itertools.product(*per_player):
        profile = [0.0] * game.q_dim
        for sl, a in zip(game.slices, combo):
            profile[sl.start + a] = 1.0
        yield profile


# ---------------------------------------------------------------------------
# Fixed points


@dataclass(frozen=True, slots=True)
class FixedPointCertificate:
    belief: tuple
    q: tuple
    equivalence_set: tuple
    support: tuple
    support_subset: bool
    eq_residual: float
    is_complete_info: bool
    tol_kl: float
    tol_eq: float

    @property
    def valid(self):
        return self.support_subset and self.eq_residual <= self.tol_eq


def certify_fixed_point(game, belief, q, tol_eq=1e-8, *,
                        equivalence_set=None):
    """Certificate for ([theta] subset of S*(q), q in EQ(theta)); S*(q) is
    at tolerance KL_TOL.

    The belief (a probability vector) and the profile become lists of
    floats once, here; a list is taken to hold floats already.
    ``equivalence_set``, when given, is taken as S*(q) instead of working it
    out again."""
    probs = _floats(belief)
    _check_length(probs, game)
    q = _floats(q)
    _check_profile(q, game)
    equiv = (payoff_equivalent_set(game, q)
             if equivalence_set is None else equivalence_set)
    support = tuple(s for s, p in enumerate(probs) if p > 0.0)
    subset = set(support) <= set(equiv)
    if game.kind == "finite":
        # a mixed block is a best response iff its support lies in the tied
        # optimal actions; residual = mass on suboptimal actions
        residual = 0.0
        for i, sl in enumerate(game.slices):
            tied = tied_actions(game, probs, i, q)
            off = 0.0
            for a, x in enumerate(q[sl]):
                if a not in tied:
                    off += x
            residual = max(residual, off)
    else:
        residual = max(abs(b - x) for b, x in
                       zip(br_profile(game, probs, q, current=q), q))
    s_star = game.space.true_index
    complete = (
        probs[s_star] >= 1.0 - 1e-12
        and all(p <= 1e-12 for i, p in enumerate(probs) if i != s_star)
    )
    return FixedPointCertificate(
        belief=tuple(probs),
        q=tuple(q),
        equivalence_set=equiv,
        support=support,
        support_subset=subset,
        eq_residual=residual,
        is_complete_info=complete,
        tol_kl=KL_TOL,
        tol_eq=tol_eq,
    )


@dataclass
class FixedPointCluster:
    cluster_id: str
    representative: FixedPointCertificate
    members: list
    eq_set: EquilibriumSet | None


def belief_grid(n_params, resolution):
    """Deterministic grid on the simplex (resolution points per edge, an
    integer >= 2): a list of probability vectors, each a list of floats."""
    return list(_grid_points(n_params, resolution))


def _grid_points(n_params, resolution):
    """The points of `belief_grid`, one at a time, so that a scan holds one
    grid belief at a time."""
    if not (_is_count(resolution) and resolution >= 2):
        raise ContractViolation("grid needs at least 2 points per axis: an "
                                "integer >= 2, got %r" % (resolution,))
    g = resolution - 1
    if n_params == 2:
        for i in range(g + 1):
            yield [i / g, 1.0 - i / g]
        return
    # stars-and-bars walk
    for combo in itertools.combinations(range(g + n_params - 1), n_params - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(g + n_params - 2 - prev)
        yield [p / g for p in parts]


def _link_groups(thetas, qs, link_theta, link_q):
    """Connected components of the graph that links certificates i and j when
    |theta_i - theta_j| <= link_theta and |q_i - q_j| <= link_q in every
    coordinate.

    Each certificate goes into the cell floor(theta / w) with w a hair above
    link_theta, so a linked pair sits in the same or in adjacent cells (exact
    while |theta| / w stays far below 1e7; beliefs lie in [0, 1]).  Each cell
    is compared in one block with itself and with all its neighbours whose
    key is lexicographically greater, one coordinate at a time.  The close
    pairs are merged into one label array every _LINK_FLUSH pairs or so
    (`_merge_pairs`), so no edge list over all cells is kept.  Groups come
    ordered by their smallest member, members ascending."""
    thetas = np.asarray(thetas, dtype=float)
    qs = np.asarray(qs, dtype=float)
    n = len(thetas)
    if n == 0:
        return []
    cells = {}
    keys = np.floor(thetas / (link_theta * (1.0 + 1e-9))).astype(np.int64)
    for idx, key in enumerate(map(tuple, keys.tolist())):
        cells.setdefault(key, []).append(idx)
    zero = (0,) * thetas.shape[1]
    offsets = [off for off in itertools.product((-1, 0, 1), repeat=len(zero))
               if off > zero]
    # one contiguous row per coordinate, with the link that bounds it
    coords = [(x, link_theta) for x in thetas.T.copy()]
    coords += [(x, link_q) for x in qs.T.copy()]
    # int32 indices halve the buffered pairs
    label = np.arange(n, dtype=np.int32)
    pending, n_pending = [], 0
    for key, rows in cells.items():
        m = len(rows)
        cols = list(rows)
        for off in offsets:
            cols += cells.get(tuple(k + o for k, o in zip(key, off)), ())
        rows = np.asarray(rows, dtype=np.int32)
        cols = np.asarray(cols, dtype=np.int32)
        # the cell's own members are the first m columns: of those, only
        # the pairs i < j
        close = np.arange(len(cols)) > np.arange(m)[:, None]
        for x, link in coords:
            close &= np.abs(x[cols] - x[rows][:, None]) <= link
        i, j = np.nonzero(close)
        if len(i):
            pending.append((rows[i], cols[j]))
            n_pending += len(i)
        if n_pending >= _LINK_FLUSH:
            _merge_pairs(label, pending)
            pending, n_pending = [], 0
    _merge_pairs(label, pending)
    groups = {}
    for idx, root in enumerate(label.tolist()):
        groups.setdefault(root, []).append(idx)
    return list(groups.values())


def _merge_pairs(label, pairs):
    """Union the pairs (a[k], b[k]) of every (a, b) in pairs into label.

    ``label`` is a forest kept fully compressed: every node holds the
    smallest member of its component found so far, and that member holds
    itself.  Each round hooks the larger of the two labels of every pair
    that still differ onto the smaller (min-label propagation), then jumps
    pointers until every node holds a root again; rounds repeat until every
    pair shares a label.  So after the last merge a node's label is the
    smallest member of its component."""
    if not pairs:
        return
    a = np.concatenate([p[0] for p in pairs])
    b = np.concatenate([p[1] for p in pairs])
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            return
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label[:] = jumped


def enumerate_fixed_points(game, belief_grid_resolution=51):
    """Grid-scan beliefs, certify 5 members of each belief's equilibrium set
    (at KL_TOL and tol_eq 1e-8), and cluster the valid certificates by
    connected components in (theta, q).

    Two valid certificates are linked when they are within 2.5 grid steps in
    both coordinates: L-infinity on theta at most 2.5 * d_theta and
    L-infinity on q at most 2.5 * max(d_q, d_theta), where d_theta is the
    belief-grid step and d_q the strategy-grid step.  Clusters are the
    connected components of these links.

    ``belief_grid_resolution`` is an integer >= 2.  Each grid belief is a
    list of floats: its equilibrium set is taken there, and its
    certificates carry the grid values as they are.

    Cost: one equilibrium set per grid belief.  The members of each
    distinct equilibrium set and their S*(q) are worked out once per scan
    (`_members_with_equivalence`): zerosum's 1,326 grid beliefs share 3
    distinct sets and investment's 257; Cournot's 51 are all distinct.  A
    member is certified only when the belief's support lies in its S*(q),
    since no other certificate can be valid; the certificate then makes no
    numpy call and computes no KL divergence.  Where learning identifies the
    parameter almost no member passes: investment certifies 1 of its 1,326
    members, Cournot 2 of 51 and 2-player routing 3 of 153, while zerosum
    certifies 6,628 of 6,630.  The linking makes a few array passes per
    theta cell, each comparing the cell with all its neighbours at once, and
    merges the close pairs in batches (see `_link_groups`); its Python work
    grows with the number of cells, not with the number of close pairs.  On
    zerosum at the default grid (6,628 certificates, all valid, one cluster)
    this takes about 0.14 s on a 2-core x86_64 machine, 0.04 s of it
    linking; certifying only candidates took about 30% off the investment
    scan there."""
    n_members = 5
    valid = []
    cache = {}
    for theta in _grid_points(len(game.space), belief_grid_resolution):
        eq = equilibrium_set(game, theta)
        support = {s for s, x in enumerate(theta) if x > 0.0}
        for q, equiv in _members_with_equivalence(
                game, eq, n_members, KL_TOL, cache):
            # a support outside S*(q) never certifies: skip the certificate
            if not support.issubset(equiv):
                continue
            cert = certify_fixed_point(game, theta, q, equivalence_set=equiv)
            if cert.valid:
                valid.append((cert, eq))
    return _cluster_certificates(game, valid, belief_grid_resolution,
                                 n_members)


def _cluster_certificates(game, valid, belief_grid_resolution,
                          strategy_grid_resolution):
    """The clusters of `enumerate_fixed_points` from its valid certificates,
    a list of (certificate, equilibrium set) pairs in scan order."""
    if not valid:
        return []
    if game.kind == "continuous":
        diam = max(hi - lo for lo, hi in zip(game.box_lo(), game.box_hi()))
    else:
        diam = 1.0
    d_theta = 1.0 / (belief_grid_resolution - 1)
    d_q = diam / max(strategy_grid_resolution - 1, 1)
    groups = _link_groups([c.belief for c, _ in valid],
                          [c.q for c, _ in valid],
                          2.5 * d_theta, 2.5 * max(d_q, d_theta))

    clusters = []
    for members in groups:
        certs = [valid[i][0] for i in members]
        rep = min(
            certs,
            key=lambda c: (not c.is_complete_info, c.eq_residual,
                           tuple(-p for p in c.belief)),
        )
        clusters.append(
            FixedPointCluster(
                cluster_id="",
                representative=rep,
                members=certs,
                eq_set=valid[members[0]][1] if game.analytic_eq is not None else None,
            )
        )
    # stable naming: the complete-information cluster first, rest by belief
    clusters.sort(key=lambda cl: (not cl.representative.is_complete_info,
                                  cl.representative.belief))
    non_complete = [cl for cl in clusters
                    if not cl.representative.is_complete_info]
    for cl in clusters:
        if cl.representative.is_complete_info:
            cl.cluster_id = "complete_info"
        elif len(non_complete) == 1:
            cl.cluster_id = "theta_dagger"
    k = 0
    for cl in clusters:
        if not cl.cluster_id:
            k += 1
            cl.cluster_id = "theta_dagger_%d" % k
    return clusters


def check_all_fixed_points_complete(game, seed=0):
    """True iff no belief other than theta* can support a fixed point: for
    every theta != theta* and q in EQ(theta), [theta] \\ S*(q) is non-empty.
    Scans the 51-point belief grid and 500 Dirichlet draws, with 7 members
    of each equilibrium set and S*(q) at tolerance KL_TOL."""
    if game.analytic_eq is None:
        raise ContractViolation("needs an analytic equilibrium description")
    n = len(game.space)
    s_star = game.space.true_index
    rng = np.random.default_rng(seed)
    # grid beliefs share equilibrium sets and keep them in one cache; a
    # Dirichlet draw repeats none, so its set is not kept
    members = {}
    grid = ((probs, members) for probs in _grid_points(n, 51))
    draws = ((rng.dirichlet(np.ones(n)).tolist(), {}) for _ in range(500))
    for probs, cache in itertools.chain(grid, draws):
        if probs[s_star] >= 1.0 - 1e-12:
            continue
        eq = equilibrium_set(game, probs)
        support = {s for s, p in enumerate(probs) if p > 0.0}
        for q, equiv in _members_with_equivalence(game, eq, 7, KL_TOL, cache):
            if support.issubset(equiv):
                return False, (tuple(probs), tuple(q))
    return True, None


def _members_with_equivalence(game, eq, n, tol_kl, cache):
    """The n representatives of ``eq`` (lists of floats), each with its
    S*(q) at tolerance tol_kl, worked out once per distinct equilibrium set
    and kept in ``cache``, which one scan owns.  The key is the set's repr:
    it tells every float bit pattern apart, -0.0 from 0.0 too, which the
    dataclass equality does not."""
    key = repr(eq)
    found = cache.get(key)
    if found is None:
        found = cache[key] = [(q, payoff_equivalent_set(game, q, tol_kl))
                              for q in eq.representatives(n)]
    return found


def check_complete_info_equilibrium_conditions(game, certificate, xi=0.1,
                                               n_probe=200, seed=0):
    """Conditions under which a fixed point is a complete-information
    equilibrium: (i) the support stays payoff-equivalent (at KL_TOL) at
    `_near_eq_sampler` draws around q_bar at radius xi (q_bar if xi <= 0);
    (ii) own-payoffs are concave for supported parameters; also verifies
    EQ(theta_bar) = EQ(theta*), up to an exact Hausdorff distance of 1e-6."""
    rng = np.random.default_rng(seed)
    support = certificate.support
    near = _near_eq_sampler(game, EquilibriumSet.of_point(certificate.q), xi)

    cond_i = True
    counterexample = None
    for _ in range(n_probe):
        q = near(rng)
        if not set(support) <= set(payoff_equivalent_set(game, q)):
            cond_i = False
            counterexample = tuple(q)
            break

    cond_ii = True
    for s in support:
        for i in range(game.n_players):
            vals = []
            for x in np.linspace(*game.boxes[i], 21).tolist():
                trial = list(certificate.q)
                trial[i] = x  # a continuous game: player i's one coordinate
                vals.append(game.mean_payoff(s, trial, i))
            if any(c - 2.0 * b + a > 1e-9
                   for a, b, c in zip(vals, vals[1:], vals[2:])):
                cond_ii = False

    eq_bar = equilibrium_set(game, list(certificate.belief))
    eq_star = equilibrium_set(game, _theta_star(game))
    d1 = _directed_hausdorff(eq_bar, eq_star)
    d2 = _directed_hausdorff(eq_star, eq_bar)
    eq_equal = bool(max(d1, d2) <= 1e-6)
    return {
        "condition_i": cond_i,
        "condition_i_counterexample": counterexample,
        "condition_ii": cond_ii,
        "eq_sets_equal": eq_equal,
    }


# ---------------------------------------------------------------------------
# Stability thresholds


@dataclass(frozen=True)
class StabilityThresholds:
    rho1: float
    rho2: float
    rho3: float
    theta_bar: tuple
    eps_hat: float
    gamma: float
    n_params: int
    n_excluded: int
    degenerate_full_support: bool


def stability_thresholds(theta_bar, eps_hat, gamma):
    """The three belief-radius thresholds controlling local stability, with
    |S| the length of theta_bar.  With E parameters outside the belief's
    support, eps_hat may be at most |S|(E+1)/E; a larger one raises
    `ContractViolation`, since rho3 would be negative."""
    probs = _floats(theta_bar)
    n = len(probs)
    if not (0.0 < gamma < 1.0):
        raise ContractViolation("gamma must lie in (0,1)")
    if not eps_hat > 0.0:
        raise ContractViolation("eps_hat must be positive")
    support = [s for s in range(n) if probs[s] > 0.0]
    if not support:
        raise ContractViolation("belief support must be non-empty")
    e = n - len(support)  # |S \ [theta_bar]|
    rho1 = min(
        (1.0 - gamma) * probs[s] * eps_hat
        / ((1.0 - gamma + e) * (e + 1) * n + (1.0 - gamma) * eps_hat)
        for s in support
    )
    rho2 = eps_hat / ((e + 1) * n)
    den = n - e * n * rho2
    if den < 0.0:
        # past eps_hat = n (e + 1) / e the t1 terms, and so rho3, turn
        # negative
        raise ContractViolation(
            "eps_hat = %r exceeds |S|(E+1)/E = %r (|S| = %d parameters, E = "
            "%d of them outside the belief's support)"
            % (eps_hat, n * (e + 1) / e, n, e))
    rho3_terms = []
    for s in support:
        # eps_hat = n (e + 1) / e makes den 0 and t1 +inf (its numerator is
        # positive, since probs[s] <= 1 < (e + 1) / e)
        t1 = (eps_hat - e * n * rho2 * probs[s]) / den if den else INF
        t2 = eps_hat / (n + e * (probs[s] * n + eps_hat))
        rho3_terms.append(min(t1, t2, probs[s]))
    rho3 = min(rho3_terms)
    degenerate = e == 0
    if not (0.0 < rho1 < rho2):
        raise ContractViolation("threshold ordering violated: rho1 < rho2")
    if not degenerate and not rho2 < eps_hat / n:
        raise ContractViolation("threshold ordering violated: rho2 < eps/|S|")
    if rho3 > min(probs[s] for s in support) + 1e-15:
        raise ContractViolation("rho3 exceeds the minimum supported mass")
    return StabilityThresholds(
        rho1=float(rho1), rho2=float(rho2), rho3=float(rho3),
        theta_bar=tuple(float(p) for p in probs), eps_hat=float(eps_hat),
        gamma=float(gamma), n_params=n, n_excluded=e,
        degenerate_full_support=degenerate,
    )


# ---------------------------------------------------------------------------
# Rate estimation and martingale diagnostics


def estimate_convergence_rate(traj, s, burn_in=0):
    """OLS slope of log theta^t(s) (the rows of ``traj.log_thetas``) against
    t for t > burn_in, with fit r^2.  A -inf in the fitted range, where an
    observation off a noiseless channel's atom ruled s out, has no rate."""
    ts = np.arange(1, traj.horizon + 1)
    mask = ts > burn_in
    ts = ts[mask]
    logy = traj.log_thetas[mask, s]
    if ts.size < 2:
        raise ContractViolation("not enough samples to fit a rate")
    excluded = logy == -INF
    if excluded.any():
        raise ContractViolation(
            "log theta(%d) is -inf at stage %d of the fitted range: an "
            "observation ruled the parameter out, so its belief has no "
            "decay rate to fit" % (s, ts[np.argmax(excluded)]))
    slope, intercept = np.polyfit(ts, logy, 1)
    fit = slope * ts + intercept
    ss_res = float(np.sum((logy - fit) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def eq_distances_at_updates(game, traj):
    """(k, EQ(theta^k).distance(q^k)) for each belief update of a finished
    run, in stage order: k is the stage at which the update takes effect
    (``traj.summary["update_stages"]``), up to the run's last stage."""
    return [(k, equilibrium_set(game, traj.thetas[k - 1].tolist())
             .distance(traj.qs[k - 1]))
            for k in traj.summary["update_stages"] if k <= traj.horizon]


def martingale_diagnostic(game, belief, q, n_samples, seed):
    """Monte Carlo one-step update at fixed q under the true parameter.

    Returns per-parameter empirical means/standard errors of the posterior
    ratio theta'(s)/theta'(s*), plus the mean of log theta'(s*) (submartingale
    side).  Normalization cancels inside the ratio.  ``n_samples`` is an
    integer >= 2, since a standard error needs two samples."""
    _check_count("n_samples", n_samples, 2)
    probs = _floats(belief)
    _check_length(probs, game)
    q = _floats(q)
    _check_profile(q, game)
    probs = np.asarray(probs, dtype=float)
    if np.any(probs <= 0.0):
        raise ContractViolation("diagnostic needs a full-support belief")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s_star = game.space.true_index
    n_s = len(game.space)
    chans = list(game.likelihood_channels)

    mu_star = np.asarray(game.channel_means(q)[s_star])[chans]
    sig_star = np.asarray(game.sigmas[s_star])[chans]
    draws = mu_star + sig_star * rng.standard_normal((n_samples, len(chans)))

    # the kernel takes one array of samples per likelihood channel (it reads
    # no other channel) and returns one array per parameter
    c = [None] * game.obs_dim
    for j, k in enumerate(chans):
        c[k] = draws[:, j]
    loglik = np.empty((n_s, n_samples))
    for s, values in enumerate(log_likelihood(game, q, c)):
        loglik[s] = values

    ratio_mean = np.empty(n_s)
    ratio_se = np.empty(n_s)
    base = probs / probs[s_star]
    for s in range(n_s):
        r = base[s] * np.exp(loglik[s] - loglik[s_star])
        ratio_mean[s] = float(np.mean(r))
        ratio_se[s] = float(np.std(r, ddof=1) / math.sqrt(n_samples))

    scores = np.log(probs)[:, None] + loglik
    m = np.max(scores, axis=0)
    log_norm = m + np.log(np.sum(np.exp(scores - m), axis=0))
    log_star = scores[s_star] - log_norm
    return {
        "ratio_mean": ratio_mean,
        "ratio_se": ratio_se,
        "prior_ratio": base,
        "log_theta_star_mean": float(np.mean(log_star)),
        "log_theta_star_se": float(np.std(log_star, ddof=1) / math.sqrt(n_samples)),
        "log_theta_star_prior": float(math.log(probs[s_star])),
    }


def upcrossing_count(series, lo, hi):
    """Greedy left-to-right count of disjoint lo->hi upcrossings."""
    if not lo < hi:
        raise ContractViolation("need lo < hi")
    count = 0
    below = False
    for x in series:
        if not below:
            if x < lo:
                below = True
        else:
            if x > hi:
                count += 1
                below = False
    return count


# ---------------------------------------------------------------------------
# Monte Carlo stability


@dataclass
class StabilityReport:
    n_runs: int
    n_stayed: int
    stay_probability: float
    escape_probability: float
    ci_low: float
    ci_high: float
    verdict: str
    radii: dict
    assumption2: dict | None = None
    thresholds: StabilityThresholds | None = None


def wilson_ci(successes, n):
    if n == 0:
        return 0.0, 1.0
    z = 1.959963984540054  # the 97.5% normal quantile: a 95% interval
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def sample_belief_ball(theta_bar, eps, rng):
    """Uniform draw on the L-infinity ball around theta_bar intersected with
    the (full-support) simplex, by rejection, as a list of floats; after
    100,000 rejections the radius halves.  The radius eps must be a finite
    number >= 0.  Each try draws one ``rng.random()`` per coordinate other
    than the largest one of theta_bar, in coordinate order."""
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ContractViolation("belief-ball radius must be a finite number "
                                ">= 0, got %r" % (eps,))
    theta_bar = _floats(theta_bar)
    if eps == 0.0:
        return list(theta_bar)
    top = max(theta_bar)
    j = theta_bar.index(top)
    # (lo, hi - lo) of each coordinate but j, in coordinate order
    spans = []
    for i, t in enumerate(theta_bar):
        if i != j:
            lo = max(t - eps, 0.0)
            spans.append((lo, min(t + eps, 1.0) - lo))
    for _ in range(100000):
        x = [lo + width * rng.random() for lo, width in spans]
        x_j = 1.0 - _total(x)
        if x_j <= 0.0 or abs(x_j - top) > eps:
            continue
        if all(v > 0.0 for v in x):
            x.insert(j, x_j)
            return x
    warnings.warn("belief-ball rejection failed; shrinking the radius")
    return sample_belief_ball(theta_bar, eps / 2.0, rng)


def _near_eq_sampler(game, eq, delta):
    """A draw near ``eq`` as a function of the rng, with the box and the set
    read once: a member of ``eq`` moved by up to delta in each coordinate,
    uniformly, and projected onto the strategy box, as a list of floats.  A
    point set draws no member: the draw is ``rng.random(q_dim)`` when
    delta > 0 and nothing otherwise.  Every other kind draws its member by
    ``eq.sample(1, rng)`` first."""
    clip = EquilibriumSet.of_box(game.box_lo(), game.box_hi()).project
    point = list(eq.point) if eq.kind == "point" else None

    def draw(rng):
        base = point if point is not None else eq.sample(1, rng)[0]
        if delta > 0.0:
            base = [b + (2.0 * u - 1.0) * delta
                    for b, u in zip(base, rng.random(len(base)).tolist())]
        return clip(base)

    return draw


def _extreme_points(eq):
    """A point set's point, a box's corners, a line's two ends or a finite
    list's members, as tuples of floats."""
    if eq.kind == "point":
        return (eq.point,)
    if eq.kind == "box":
        return tuple(itertools.product(*zip(eq.lo, eq.hi)))
    if eq.kind == "line":
        return tuple(tuple(b + t * d for b, d in zip(eq.base, eq.direction))
                     for t in eq.t_range)
    return eq.members


def _directed_hausdorff(eq_from, eq_to):
    """sup over q in eq_from of ``eq_to.distance(q)``, exactly: under
    L-infinity the distance to a convex set is convex, so the supremum is
    reached at one of eq_from's `_extreme_points`, as it is on a finite
    list.  A box or a line to a finite list raises ContractViolation."""
    if eq_to.kind == "finite_list" and eq_from.kind in ("box", "line"):
        raise ContractViolation("no exact directed Hausdorff distance from a "
                                "%s to a finite list" % eq_from.kind)
    gap = 0.0
    for v in _extreme_points(eq_from):
        d = eq_to.distance(v)
        if d > gap:
            gap = d
    return gap


def _count_near(game, starts, rule, schedule, horizon, respond_to,
                stop_when_converged, theta, eq, eps_theta, eps_q):
    """How many `run`s, one from each (seed_k, theta1, q1) in ``starts``,
    end with a belief within eps_theta of ``theta`` (max norm) and a profile
    within eps_q of ``eq``.  theta1 (a probability vector) and q1 are lists
    of floats; a degenerate start belief stays where it is.  The runs are
    spread over the CPUs by `_map_replicas`."""
    def near(k):
        seed_k, theta1, q1 = starts[k]
        if all(p > 0.0 for p in theta1):  # else a frozen degenerate start
            summary = run(game, rule, schedule, (theta1, q1), horizon, seed_k,
                          stop_when_converged=stop_when_converged,
                          respond_to=respond_to).summary
            theta1, q1 = summary["final_theta"], summary["final_q"]
        return (max(abs(x - t) for x, t in zip(theta1, theta)) <= eps_theta
                and eq.distance(q1) <= eps_q)

    return sum(_map_replicas(near, len(starts)))


def monte_carlo_local_stability(game, certificate, eps1, delta1, eps_bar,
                                eps_x, n_runs, horizon, seed,
                                rule=None, schedule=None,
                                respond_to="posterior"):
    """Estimate Pr(theta^T near theta_bar and q^T near EQ(theta_bar)) from
    runs started in the (eps1, delta1) neighborhoods, with a Wilson 95% CI.
    Strategies respond to ``respond_to``, as in ``run``.  Verdict: stable
    when the CI lies in [0.9, 1], unstable when it lies in [0, 0.5].
    ``n_runs`` is an integer >= 1."""
    _check_count("n_runs", n_runs, 1)
    rule = rule or UpdateRule.simultaneous()
    schedule = schedule or UpdateSchedule.every_stage()
    theta_bar = list(certificate.belief)
    eq_bar = equilibrium_set(game, theta_bar)
    near_eq = _near_eq_sampler(game, eq_bar, delta1)
    starts = []
    for k in range(n_runs):
        seed_k = replica_seed(seed, k)
        rng = np.random.default_rng(np.random.SeedSequence(seed_k))
        theta1 = sample_belief_ball(theta_bar, eps1, rng)
        q1 = near_eq(rng)
        starts.append((seed_k, theta1, q1))

    stayed = _count_near(game, starts, rule, schedule, horizon, respond_to,
                         False, theta_bar, eq_bar, eps_bar, eps_x)
    p = stayed / n_runs
    lo, hi = wilson_ci(stayed, n_runs)
    if lo >= 0.9:
        verdict = "locally_stable_evidence"
    elif hi <= 0.5:
        verdict = "unstable_evidence"
    else:
        verdict = "inconclusive"
    return StabilityReport(
        n_runs=n_runs, n_stayed=stayed, stay_probability=p,
        escape_probability=1.0 - p, ci_low=lo, ci_high=hi, verdict=verdict,
        radii={"eps1": eps1, "delta1": delta1, "eps_bar": eps_bar,
               "eps_x": eps_x, "horizon": horizon},
    )


def check_assumption2(game, certificate, eps, delta, n_probe=1000, seed=0):
    """Sampled evidence for the three local-stability conditions.

    (A2a) equilibrium upper-hemicontinuity in the belief (directed Hausdorff
    envelope shrinking with the sampled radius); (A2b) the delta-neighborhood
    of EQ(theta_bar) is invariant under best response for beliefs in the
    eps-ball; (A2c) the fixed-point support stays payoff-equivalent on the
    delta-neighborhood, at KL_TOL.  Evidence, never proof.

    Each condition makes ``n_probe`` probes, which must be at least 8: the
    A2a envelope has 8 radius bins, and an empty last bin would pass A2a
    untested.  The probes run on lists of floats and draw from one stream
    seeded by ``seed``, condition by condition:
    - A2a: a belief-ball draw (`sample_belief_ball`), then `equilibrium_set`
      at it (the exact `_directed_hausdorff` to EQ(theta_bar) draws none);
    - A2b: a belief-ball draw, a draw near EQ(theta_bar) (`_near_eq_sampler`:
      a member by ``eq.sample`` unless the set is a point, then
      ``rng.random(q_dim)`` when delta > 0), then one `br_profile` call;
    - A2c: a draw near EQ(theta_bar), then one `payoff_equivalent_set` call.
    With 1,000 probes on a 2-core x86_64 machine, the check takes about
    0.02 s on each of Cournot's two clusters (eps 1/3, delta 1), 0.04 s on
    zerosum and 0.06 s on coordination (eps 0.5, delta 1); the kernels it
    calls take about half of that."""
    _check_count("n_probe", n_probe, 8)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    theta_bar = list(certificate.belief)
    eq_bar = equilibrium_set(game, theta_bar)
    support = set(certificate.support)
    near_eq = _near_eq_sampler(game, eq_bar, delta)

    # (A2a)
    radii, dists = [], []
    for _ in range(n_probe):
        theta = sample_belief_ball(theta_bar, eps, rng)
        eq = equilibrium_set(game, theta)
        radii.append(max(abs(x - t) for x, t in zip(theta, theta_bar)))
        dists.append(_directed_hausdorff(eq, eq_bar))
    radii = np.asarray(radii)
    dists = np.asarray(dists)
    order = np.argsort(radii)
    n_bins = 8
    bins = np.array_split(order, n_bins)
    envelope = [float(np.max(dists[b])) for b in bins]
    a2a_pass = bool(
        envelope[-1] <= 1e-9
        or envelope[0] <= 0.5 * envelope[-1] + 1e-8
    )

    # (A2b)
    a2b_violations = 0
    a2b_counterexample = None
    for _ in range(n_probe):
        theta = sample_belief_ball(theta_bar, eps, rng)
        q = near_eq(rng)
        br = br_profile(game, theta, q, current=q)
        if eq_bar.distance(br) > delta + 1e-12:
            a2b_violations += 1
            if a2b_counterexample is None:
                a2b_counterexample = (tuple(theta), tuple(q))

    # (A2c)
    a2c_violations = 0
    a2c_counterexample = None
    for _ in range(n_probe):
        q = near_eq(rng)
        if not support <= set(payoff_equivalent_set(game, q)):
            a2c_violations += 1
            if a2c_counterexample is None:
                a2c_counterexample = tuple(q)

    return {
        "A2a": {"pass": a2a_pass, "envelope": envelope, "n_probe": n_probe},
        "A2b": {"pass": a2b_violations == 0, "violations": a2b_violations,
                "counterexample": a2b_counterexample, "n_probe": n_probe},
        "A2c": {"pass": a2c_violations == 0, "violations": a2c_violations,
                "counterexample": a2c_counterexample, "n_probe": n_probe},
    }


def check_global_stability(game, clusters, counterexample, n_random_starts=50,
                           horizon=20000, seed=0):
    """Globally stable iff every fixed point is complete-information.  A
    witness off theta* decides before any run: a member of the enumerated
    clusters (from enumerate_fixed_points), else ``counterexample``, the
    (belief, q) of `check_all_fixed_points_complete` or None.  Otherwise it
    is verified empirically by random-start convergence: each start runs the
    sequential rule until converged, and must end within 0.05 of theta*,
    0.02 of EQ(theta*).  ``n_random_starts`` is an integer >= 1, checked
    before any witness is looked for."""
    _check_count("n_random_starts", n_random_starts, 1)
    rule = UpdateRule.sequential()
    # a single cluster may mix complete-info and other certificates (connected
    # fixed-point families), so scan every member for a witness
    off = next((cert for cl in clusters for cert in cl.members
                if not cert.is_complete_info), None)
    witness = counterexample if off is None else (off.belief, off.q)
    if witness is not None:
        return {
            "verdict": "not_globally_stable",
            "witness": {"belief": witness[0], "q": witness[1],
                        "cluster": off is not None},
            "n_converged": None,
            "n_runs": 0,
        }
    theta_star = _theta_star(game)
    eq_star = equilibrium_set(game, theta_star)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    schedule = UpdateSchedule.every_stage()
    starts = []
    for k in range(n_random_starts):
        theta1 = rng.dirichlet(np.ones(len(theta_star))).tolist()
        q1 = game.random_profile(rng)
        starts.append((replica_seed(seed, k), theta1, q1))
    n_converged = _count_near(game, starts, rule, schedule, horizon,
                              "posterior", True, theta_star, eq_star, 0.05,
                              0.02)
    verdict = ("globally_stable" if n_converged == n_random_starts
               else "inconclusive")
    return {
        "verdict": verdict,
        "witness": None,
        "n_converged": n_converged,
        "n_runs": n_random_starts,
    }


# ---------------------------------------------------------------------------
# Nearest fixed point (used by run summaries and the statistical suites)


def nearest_fixed_point(game, theta, q, clusters=None):
    """Nearest certified fixed point to a terminal state.

    Candidates: each enumerated cluster representative, plus the terminal
    belief with its entries below 0.05 zeroed (the supported-limit candidate).
    Returns (cluster_id or 'self', theta-distance, certificate) or None.
    Each candidate's equilibrium set and certificate are taken at the same
    belief, a list of floats."""
    theta = _floats(theta)
    q = _floats(q)
    _check_profile(q, game)
    best = None

    def consider(tag, theta_bar):
        nonlocal best
        eq = equilibrium_set(game, theta_bar)
        cert = certify_fixed_point(game, theta_bar, eq.project(q))
        if not cert.valid:
            return
        d = max(abs(x - t) for x, t in zip(theta, theta_bar))
        if best is None or d < best[1]:
            best = (tag, d, cert)

    if clusters:
        for cl in clusters:
            consider(cl.cluster_id, list(cl.representative.belief))
    trimmed = [0.0 if x < 0.05 else x for x in theta]
    total = _total(trimmed)
    if total > 0:
        trimmed = [x / total for x in trimmed]
        consider("self", trimmed)
        # an equal candidate has an equal distance, so it could never win
        if trimmed == theta:
            return best
    consider("self", theta)
    return best


# ---------------------------------------------------------------------------
# Serialization


def _field_items(obj):
    """(name, value) of each dataclass field of obj, in definition order."""
    return ((f.name, getattr(obj, f.name)) for f in fields(obj))


def to_jsonable(obj):
    if isinstance(obj, (FixedPointCertificate, StabilityThresholds,
                        StabilityReport)):
        return {k: to_jsonable(v) for k, v in _field_items(obj)}
    if isinstance(obj, FixedPointCluster):
        return {
            "cluster_id": obj.cluster_id,
            "representative": to_jsonable(obj.representative),
            "n_members": len(obj.members),
            "eq_set": to_jsonable(obj.eq_set) if obj.eq_set else None,
        }
    if isinstance(obj, EquilibriumSet):
        return {k: to_jsonable(v) for k, v in _field_items(obj)
                if v is not None}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def report_document(payload):
    return {"schema": REPORT_SCHEMA, **to_jsonable(payload)}
