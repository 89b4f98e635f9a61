"""Analysis toolkit: KL divergence and payoff-equivalence sets,
fixed-point certification/enumeration, convergence-rate estimation, stability
thresholds, martingale/upcrossing diagnostics and Monte Carlo stability
experiments."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import UpdateRule, replica_seed, run
from .games import EquilibriumSet, br_profile, equilibrium_set
from .param_belief import Belief, ContractViolation, UpdateSchedule

INF = float("inf")
KL_TOL = 1e-9
SUPPORT_TOL = 1e-12

REPORT_SCHEMA = "beliefplay/report-v1"


# ---------------------------------------------------------------------------
# KL divergence and payoff equivalence


def kl_divergence(game, s_a, s_b, q):
    """D_KL(phi^{s_a}(.|q) || phi^{s_b}(.|q)) over the likelihood channels.

    Gaussian closed form per channel; +inf when absolute continuity fails
    (zero-variance atom mismatch)."""
    mu_a = game.channel_means(s_a, q)
    mu_b = game.channel_means(s_b, q)
    sig_a = game.channel_sigmas(s_a)
    sig_b = game.channel_sigmas(s_b)
    total = 0.0
    for k in game.likelihood_channels:
        sa, sb = float(sig_a[k]), float(sig_b[k])
        da = float(mu_a[k]) - float(mu_b[k])
        if sa == 0.0 and sb == 0.0:
            if da != 0.0:
                return INF
            continue
        if sa == 0.0 or sb == 0.0:
            return INF
        total += math.log(sb / sa) + (sa * sa + da * da) / (2.0 * sb * sb) - 0.5
    return total


def payoff_equivalent_set(game, q, tol=KL_TOL, support_tol=SUPPORT_TOL):
    """S*(q): parameters whose payoff distribution at q matches the truth's.

    In a finite game, the intersection of these sets over the pure profiles in
    the support of the mixed profile q (probabilities above support_tol)."""
    s_star = game.space.true_index
    if game.kind == "finite":
        profiles = _pure_profiles_in_support(game, q, support_tol)
    else:
        profiles = [q]
    result = range(len(game.space))
    for profile in profiles:
        result = [s for s in result
                  if kl_divergence(game, s_star, s, profile) <= tol]
    return tuple(result)


def _pure_profiles_in_support(game, q, support_tol=SUPPORT_TOL):
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


# ---------------------------------------------------------------------------
# Fixed points


@dataclass(frozen=True)
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


def certify_fixed_point(game, belief, q, tol_kl=KL_TOL, tol_eq=1e-8):
    """Certificate for ([theta] subset of S*(q), q in EQ(theta))."""
    probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, float)
    q = np.asarray(q, dtype=float)
    equiv = payoff_equivalent_set(game, q, tol_kl)
    support = tuple(int(s) for s in np.nonzero(probs > 0.0)[0])
    subset = set(support) <= set(equiv)
    if game.kind == "finite":
        # a mixed block is a best response iff its support lies in the tied
        # optimal actions; residual = mass on suboptimal actions
        from .games import best_response

        residual = 0.0
        for i, sl in enumerate(game.slices):
            tied = best_response(game, probs, i, q).tied_actions
            block = q[sl]
            off = sum(block[a] for a in range(block.size) if a not in tied)
            residual = max(residual, float(off))
    else:
        residual = float(
            np.max(np.abs(br_profile(game, probs, q, current=q) - q))
        )
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


@dataclass
class FixedPointCluster:
    cluster_id: str
    representative: FixedPointCertificate
    members: list
    eq_set: EquilibriumSet | None


def belief_grid(n_params, resolution):
    """Deterministic grid on the simplex (resolution points per edge)."""
    if resolution < 2:
        raise ContractViolation("grid needs at least 2 points per axis")
    g = resolution - 1
    if n_params == 2:
        return [np.asarray([i / g, 1.0 - i / g]) for i in range(g + 1)]
    if n_params == 3:
        grid = []
        for i in range(g + 1):
            for j in range(g + 1 - i):
                grid.append(np.asarray([i / g, j / g, (g - i - j) / g]))
        return grid
    # generic stars-and-bars walk for larger spaces
    grid = []
    for combo in itertools.combinations(range(g + n_params - 1), n_params - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(g + n_params - 2 - prev)
        grid.append(np.asarray(parts, dtype=float) / g)
    return grid


def _link_groups(thetas, qs, link_theta, link_q):
    """Connected components of the graph that links certificates i and j when
    max|theta_i - theta_j| <= link_theta and max|q_i - q_j| <= link_q.

    Each certificate goes into the cell floor(theta / w) with w a hair above
    link_theta, so a linked pair sits in the same or in adjacent cells (exact
    while |theta| / w stays far below 1e7; beliefs lie in [0, 1]).  Each cell
    is compared with itself and with the neighbours whose key is
    lexicographically greater, one cell pair at a time.  Groups come ordered
    by their smallest member, members ascending."""
    thetas = np.asarray(thetas, dtype=float)
    qs = np.asarray(qs, dtype=float)
    n = len(thetas)
    if n == 0:
        return []
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    cells = {}
    keys = np.floor(thetas / (link_theta * (1.0 + 1e-9))).astype(np.int64)
    for idx, key in enumerate(map(tuple, keys.tolist())):
        cells.setdefault(key, []).append(idx)
    cells = {key: np.asarray(members) for key, members in cells.items()}
    zero = (0,) * thetas.shape[1]
    offsets = [off for off in itertools.product((-1, 0, 1), repeat=len(zero))
               if off > zero]
    for key, rows in cells.items():
        th_rows, q_rows = thetas[rows][:, None, :], qs[rows][:, None, :]
        for off in [zero] + offsets:
            cols = cells.get(tuple(k + o for k, o in zip(key, off)))
            if cols is None:
                continue
            close = (
                (np.max(np.abs(thetas[cols] - th_rows), axis=2) <= link_theta)
                & (np.max(np.abs(qs[cols] - q_rows), axis=2) <= link_q)
            )
            if off == zero:
                close = np.triu(close, 1)
            for i in np.flatnonzero(close.any(axis=1)).tolist():
                ra = find(int(rows[i]))
                for b in cols[close[i]].tolist():
                    rb = find(b)
                    if rb != ra:
                        parent[rb] = ra
    groups = {}
    for idx in range(n):
        groups.setdefault(find(idx), []).append(idx)
    return list(groups.values())


def enumerate_fixed_points(game, belief_grid_resolution=51,
                           strategy_grid_resolution=5, tol_kl=KL_TOL,
                           tol_eq=1e-8):
    """Grid-scan beliefs, certify sampled equilibrium members, and cluster the
    valid certificates by connected components in (theta, q).

    Two valid certificates are linked when they are within 2.5 grid steps in
    both coordinates: L-infinity on theta at most 2.5 * d_theta and
    L-infinity on q at most 2.5 * max(d_q, d_theta), where d_theta is the
    belief-grid step and d_q the strategy-grid step.  Clusters are the
    connected components of these links.  Cost: one equilibrium set per grid
    belief and one certificate per sampled member; the linking compares only
    certificates in neighbouring theta cells (see `_link_groups`), so it
    grows with the number of certificates times the cell occupancy instead
    of with its square."""
    if belief_grid_resolution < 2:
        raise ContractViolation("grid needs at least 2 points per axis")
    n = len(game.space)
    valid = []
    d_theta = 1.0 / (belief_grid_resolution - 1)
    for probs in belief_grid(n, belief_grid_resolution):
        belief = Belief.from_probs(probs)
        eq = equilibrium_set(game, belief)
        for q in eq.representatives(strategy_grid_resolution):
            cert = certify_fixed_point(game, belief, q, tol_kl, tol_eq)
            if cert.valid:
                valid.append((cert, eq))
    if not valid:
        return []
    if game.kind == "continuous":
        diam = float(np.max(game.box_hi() - game.box_lo()))
    else:
        diam = 1.0
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


def check_all_fixed_points_complete(game, n_dirichlet=500,
                                    grid_resolution=51, seed=0,
                                    strategy_samples=7, tol_kl=KL_TOL):
    """True iff no belief other than theta* can support a fixed point: for
    every theta != theta* and q in EQ(theta), [theta] \\ S*(q) is non-empty."""
    if game.analytic_eq is None:
        raise ContractViolation("needs an analytic equilibrium description")
    n = len(game.space)
    s_star = game.space.true_index
    rng = np.random.default_rng(seed)
    candidates = belief_grid(n, grid_resolution)
    candidates += [rng.dirichlet(np.ones(n)) for _ in range(n_dirichlet)]
    for probs in candidates:
        if probs[s_star] >= 1.0 - 1e-12:
            continue
        belief = Belief.from_probs(probs)
        eq = equilibrium_set(game, belief)
        support = set(np.nonzero(probs > 0.0)[0].tolist())
        for q in eq.representatives(strategy_samples):
            if support <= set(payoff_equivalent_set(game, q, tol_kl)):
                return False, (tuple(probs.tolist()), tuple(q.tolist()))
    return True, None


def check_complete_info_equilibrium_conditions(game, certificate, xi=0.1,
                                               n_probe=200, seed=0,
                                               tol_kl=KL_TOL, tol_eq=1e-6):
    """Conditions under which a fixed point is a complete-information
    equilibrium: (i) the support stays payoff-equivalent in a xi-ball around
    q_bar; (ii) own-payoffs are concave for supported parameters; also
    verifies EQ(theta_bar) = EQ(theta*)."""
    rng = np.random.default_rng(seed)
    q_bar = np.asarray(certificate.q)
    support = certificate.support
    lo, hi = game.box_lo(), game.box_hi()

    cond_i = True
    counterexample = None
    for _ in range(n_probe):
        q = np.clip(q_bar + (2.0 * rng.random(q_bar.size) - 1.0) * xi, lo, hi)
        if not set(support) <= set(payoff_equivalent_set(game, q, tol_kl)):
            cond_i = False
            counterexample = tuple(q.tolist())
            break

    cond_ii = True
    for s in support:
        for i in range(game.n_players):
            xs = np.linspace(lo[i], hi[i], 21)
            vals = []
            for x in xs:
                trial = q_bar.copy()
                trial[game.slices[i]] = x
                vals.append(game.mean_payoff(s, trial, i))
            vals = np.asarray(vals)
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            if np.any(second > 1e-9):
                cond_ii = False

    eq_bar = equilibrium_set(game, Belief.from_probs(certificate.belief))
    eq_star = equilibrium_set(
        game, Belief.point_mass(len(game.space), game.space.true_index)
    )
    d1 = _directed_hausdorff(eq_bar, eq_star, rng)
    d2 = _directed_hausdorff(eq_star, eq_bar, rng)
    eq_equal = bool(max(d1, d2) <= tol_eq)
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


def stability_thresholds(theta_bar, eps_hat, gamma, n_params=None):
    """The three belief-radius thresholds controlling local stability."""
    probs = (
        theta_bar.probs if isinstance(theta_bar, Belief)
        else np.asarray(theta_bar, float)
    )
    n = int(n_params) if n_params is not None else probs.size
    if not (0.0 < gamma < 1.0):
        raise ContractViolation("gamma must lie in (0,1)")
    if not eps_hat > 0.0:
        raise ContractViolation("eps_hat must be positive")
    support = [s for s in range(probs.size) if probs[s] > 0.0]
    if not support:
        raise ContractViolation("belief support must be non-empty")
    e = n - len(support)  # |S \ [theta_bar]|
    rho1 = min(
        (1.0 - gamma) * probs[s] * eps_hat
        / ((1.0 - gamma + e) * (e + 1) * n + (1.0 - gamma) * eps_hat)
        for s in support
    )
    rho2 = eps_hat / ((e + 1) * n)
    rho3_terms = []
    for s in support:
        t1 = (eps_hat - e * n * rho2 * probs[s]) / (n - e * n * rho2)
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
    """OLS slope of log theta^t(s) against t for t > burn_in, with fit r^2."""
    theta_s = traj.thetas[:, s]
    ts = np.arange(1, traj.horizon + 1)
    mask = ts > burn_in
    ts = ts[mask]
    ys = theta_s[mask]
    zero = np.nonzero(ys <= 0.0)[0]
    if zero.size:
        if zero[0] == 0:
            raise ContractViolation("belief hits zero at the start of the range")
        warnings.warn("belief hits exact zero; truncating the fitted range")
        ts = ts[: zero[0]]
        ys = ys[: zero[0]]
    if ts.size < 2:
        raise ContractViolation("not enough positive samples to fit a rate")
    logy = np.log(ys)
    slope, intercept = np.polyfit(ts, logy, 1)
    fit = slope * ts + intercept
    ss_res = float(np.sum((logy - fit) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def martingale_diagnostic(game, belief, q, n_samples, seed):
    """Monte Carlo one-step update at fixed q under the true parameter.

    Returns per-parameter empirical means/standard errors of the posterior
    ratio theta'(s)/theta'(s*), plus the mean of log theta'(s*) (submartingale
    side).  Normalization cancels inside the ratio."""
    probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, float)
    if np.any(probs <= 0.0):
        raise ContractViolation("diagnostic needs a full-support belief")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    s_star = game.space.true_index
    n_s = len(game.space)
    chans = list(game.likelihood_channels)

    mu_star = np.asarray(game.channel_means(s_star, q), float)[chans]
    sig_star = np.asarray(game.channel_sigmas(s_star), float)[chans]
    draws = mu_star + sig_star * rng.standard_normal((n_samples, len(chans)))

    loglik = np.empty((n_s, n_samples))
    for s in range(n_s):
        mu = np.asarray(game.channel_means(s, q), float)[chans]
        sig = np.asarray(game.channel_sigmas(s), float)[chans]
        z = (draws - mu) / sig
        loglik[s] = np.sum(
            -0.5 * z * z - np.log(sig) - 0.5 * math.log(2.0 * math.pi), axis=1
        )

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


def wilson_ci(successes, n, z=1.959963984540054):
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def sample_belief_ball(theta_bar, eps, rng, max_tries=100000):
    """Uniform draw on the L-infinity ball around theta_bar intersected with
    the (full-support) simplex, by rejection."""
    theta_bar = np.asarray(theta_bar, dtype=float)
    if eps == 0.0:
        return theta_bar.copy()
    n = theta_bar.size
    j = int(np.argmax(theta_bar))
    rest = [i for i in range(n) if i != j]
    lo = np.maximum(theta_bar - eps, 0.0)
    hi = np.minimum(theta_bar + eps, 1.0)
    for _ in range(max_tries):
        x = np.empty(n)
        for i in rest:
            x[i] = lo[i] + (hi[i] - lo[i]) * rng.random()
        x[j] = 1.0 - sum(x[i] for i in rest)
        if x[j] <= 0.0 or abs(x[j] - theta_bar[j]) > eps:
            continue
        if all(x[i] > 0.0 for i in range(n)):
            return x
    warnings.warn("belief-ball rejection failed; shrinking the radius")
    return sample_belief_ball(theta_bar, eps / 2.0, rng, max_tries)


def sample_near_eq(game, eq, delta, rng):
    base = eq.sample(1, rng)[0]
    if delta > 0.0:
        base = base + (2.0 * rng.random(base.size) - 1.0) * delta
    return np.clip(base, game.box_lo(), game.box_hi())


def _directed_hausdorff(eq_from, eq_to, rng, n=256):
    pts = np.vstack([eq_from.representatives(16), eq_from.sample(n, rng)])
    return float(eq_to.distance(pts).max())


def monte_carlo_local_stability(game, certificate, eps1, delta1, eps_bar,
                                eps_x, n_runs, horizon, seed,
                                rule=None, schedule=None,
                                respond_to="posterior",
                                stable_level=0.9, unstable_level=0.5):
    """Estimate Pr(theta^T near theta_bar and q^T near EQ(theta_bar)) from
    runs started in the (eps1, delta1) neighborhoods, with a Wilson 95% CI.
    Strategies respond to ``respond_to``, as in ``run``."""
    rule = rule or UpdateRule.simultaneous()
    schedule = schedule or UpdateSchedule.every_stage()
    theta_bar = np.asarray(certificate.belief, dtype=float)
    eq_bar = equilibrium_set(game, Belief.from_probs(theta_bar))
    stayed = 0
    for k in range(n_runs):
        seed_k = replica_seed(seed, k)
        rng = np.random.default_rng(np.random.SeedSequence(seed_k))
        theta1 = sample_belief_ball(theta_bar, eps1, rng)
        q1 = sample_near_eq(game, eq_bar, delta1, rng)
        if np.all(theta1 > 0.0):
            traj = run(game, rule, schedule, (Belief.from_probs(theta1), q1),
                       horizon, seed_k, respond_to=respond_to)
            final_theta = np.asarray(traj.summary["final_theta"])
            final_q = np.asarray(traj.summary["final_q"])
        else:
            final_theta, final_q = theta1, q1  # frozen degenerate start
        stayed += (
            float(np.max(np.abs(final_theta - theta_bar))) <= eps_bar
            and eq_bar.distance(final_q) <= eps_x
        )
    p = stayed / n_runs if n_runs else 0.0
    lo, hi = wilson_ci(stayed, n_runs)
    if lo >= stable_level:
        verdict = "locally_stable_evidence"
    elif hi <= unstable_level:
        verdict = "unstable_evidence"
    else:
        verdict = "inconclusive"
    return StabilityReport(
        n_runs=n_runs, n_stayed=stayed, stay_probability=p,
        escape_probability=1.0 - p, ci_low=lo, ci_high=hi, verdict=verdict,
        radii={"eps1": eps1, "delta1": delta1, "eps_bar": eps_bar,
               "eps_x": eps_x, "horizon": horizon},
    )


def check_assumption2(game, certificate, eps, delta, n_probe=1000, seed=0,
                      tol_kl=KL_TOL):
    """Sampled evidence for the three local-stability conditions.

    (A2a) equilibrium upper-hemicontinuity in the belief (directed Hausdorff
    envelope shrinking with the sampled radius); (A2b) the delta-neighborhood
    of EQ(theta_bar) is invariant under best response for beliefs in the
    eps-ball; (A2c) the fixed-point support stays payoff-equivalent on the
    delta-neighborhood.  Evidence, never proof."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    theta_bar = np.asarray(certificate.belief, dtype=float)
    eq_bar = equilibrium_set(game, Belief.from_probs(theta_bar))
    support = certificate.support

    # (A2a)
    radii, dists = [], []
    for _ in range(n_probe):
        theta = sample_belief_ball(theta_bar, eps, rng)
        eq = equilibrium_set(game, Belief.from_probs(theta))
        radii.append(float(np.max(np.abs(theta - theta_bar))))
        dists.append(_directed_hausdorff(eq, eq_bar, rng, n=64))
    radii = np.asarray(radii)
    dists = np.asarray(dists)
    order = np.argsort(radii)
    n_bins = 8
    bins = np.array_split(order, n_bins)
    envelope = [float(np.max(dists[b])) if len(b) else 0.0 for b in bins]
    a2a_pass = bool(
        envelope[-1] <= 1e-9
        or envelope[0] <= 0.5 * envelope[-1] + 1e-8
    )

    # (A2b)
    a2b_violations = 0
    a2b_counterexample = None
    for _ in range(n_probe):
        theta = sample_belief_ball(theta_bar, eps, rng)
        q = sample_near_eq(game, eq_bar, delta, rng)
        br = br_profile(game, theta, q, current=q)
        if eq_bar.distance(br) > delta + 1e-12:
            a2b_violations += 1
            if a2b_counterexample is None:
                a2b_counterexample = (tuple(theta.tolist()), tuple(q.tolist()))

    # (A2c)
    a2c_violations = 0
    a2c_counterexample = None
    for _ in range(n_probe):
        q = sample_near_eq(game, eq_bar, delta, rng)
        if not set(support) <= set(payoff_equivalent_set(game, q, tol_kl)):
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


def check_global_stability(game, clusters, n_random_starts=50, horizon=20000,
                           seed=0, rule=None, theta_tol=0.05, q_tol=0.02):
    """Globally stable iff every fixed point is complete-information; verified
    empirically by random-start convergence when the enumerated clusters (from
    enumerate_fixed_points) allow it."""
    rule = rule or UpdateRule.sequential()
    # a single cluster may mix complete-info and other certificates (connected
    # fixed-point families), so scan every member for a witness
    witness = None
    for cl in clusters:
        for cert in cl.members:
            if not cert.is_complete_info:
                witness = cert
                break
        if witness is not None:
            break
    if witness is not None:
        return {
            "verdict": "not_globally_stable",
            "witness": {"belief": witness.belief, "q": witness.q,
                        "cluster": True},
            "n_converged": None,
            "n_runs": 0,
        }
    n = len(game.space)
    s_star = game.space.true_index
    eq_star = equilibrium_set(game, Belief.point_mass(n, s_star))
    theta_star = np.zeros(n)
    theta_star[s_star] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_converged = 0
    schedule = UpdateSchedule.every_stage()
    for k in range(n_random_starts):
        theta1 = rng.dirichlet(np.ones(n))
        q1 = game.random_profile(rng)
        traj = run(game, rule, schedule, (Belief.from_probs(theta1), q1),
                   horizon, replica_seed(seed, k), stop_when_converged=True)
        final_theta = np.asarray(traj.summary["final_theta"])
        final_q = np.asarray(traj.summary["final_q"])
        if (
            float(np.max(np.abs(final_theta - theta_star))) <= theta_tol
            and eq_star.distance(final_q) <= q_tol
        ):
            n_converged += 1
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


def nearest_fixed_point(game, theta, q, clusters=None, zero_tol=0.05):
    """Nearest certified fixed point to a terminal state.

    Candidates: each enumerated cluster representative, plus the terminal
    belief with its small entries zeroed (the supported-limit candidate).
    Returns (cluster_id or 'self', theta-distance, certificate) or None."""
    theta = np.asarray(theta, dtype=float)
    q = np.asarray(q, dtype=float)
    best = None

    def consider(tag, theta_bar):
        nonlocal best
        theta_bar = np.asarray(theta_bar, dtype=float)
        eq = equilibrium_set(game, Belief.from_probs(theta_bar))
        q_bar = eq.project(q)
        cert = certify_fixed_point(game, theta_bar, q_bar)
        if not cert.valid:
            return
        d = float(np.max(np.abs(theta - theta_bar)))
        if best is None or d < best[1]:
            best = (tag, d, cert)

    if clusters:
        for cl in clusters:
            consider(cl.cluster_id, cl.representative.belief)
    trimmed = np.where(theta < zero_tol, 0.0, theta)
    if trimmed.sum() > 0:
        trimmed = trimmed / trimmed.sum()
        consider("self", trimmed)
        # an equal candidate has an equal distance, so it could never win
        if np.array_equal(trimmed, theta):
            return best
    consider("self", theta)
    return best


# ---------------------------------------------------------------------------
# Serialization


def to_jsonable(obj):
    if isinstance(obj, (FixedPointCertificate, StabilityThresholds,
                        StabilityReport)):
        return {k: to_jsonable(v) for k, v in obj.__dict__.items()}
    if isinstance(obj, FixedPointCluster):
        return {
            "cluster_id": obj.cluster_id,
            "representative": to_jsonable(obj.representative),
            "n_members": len(obj.members),
            "eq_set": to_jsonable(obj.eq_set) if obj.eq_set else None,
        }
    if isinstance(obj, EquilibriumSet):
        return {k: to_jsonable(v) for k, v in obj.__dict__.items()
                if v is not None}
    if isinstance(obj, Belief):
        return obj.probs.tolist()
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
