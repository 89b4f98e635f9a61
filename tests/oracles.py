"""Numeric oracles the closed forms of `beliefplay.games` are tested against.

`numeric_best_response` is a golden-section search of player i's expected
payoff over their strategy interval, plus a 201-point grid scan for a flat
argmax.  It reads only ``mean_payoff_fn`` and the strategy box, never the
game's ``analytic_br``, so it checks that closed form independently.
`analytic_interval` reads the closed form's best-response set through
`best_response`, for comparison with the search's interval.
`reference_project` is the projection onto an equilibrium set on numpy
arrays, which the float `EquilibriumSet.project` must equal bit for bit, and
the other `reference_*` functions are the numpy geometry (`sample`,
`representatives`, `box_center`, `random_profile` and the belief grid) that
the float versions must equal bit for bit, with the same draws.
`log_normalize` is the belief normaliser on numpy arrays.
`reference_log_likelihood` is the walk over each parameter's noise scales
that `log_likelihood`'s table sum and atom pass replaced, and
`reference_sample_payoffs` the payoff draw with one scalar normal per
channel or noise source that `sample_payoffs`' one vector draw replaced:
both must be equal bit for bit, the draw with the same stream after it.
"""

import itertools
import math

import numpy as np

from beliefplay.games import (FLAT_TOL, SolverError, best_response,
                             expected_payoff)
from beliefplay.param_belief import (_HALF_LOG_2PI, NEG_INF,
                                     ContractViolation, ImpossibleObservation,
                                     _floats)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, iters=200, tol=1e-10):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    a, b = float(lo), float(hi)
    if b - a <= tol:
        return 0.5 * (a + b)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    else:
        if b - a > 1e-6:
            raise SolverError("golden-section bracket did not close: [%g, %g]" % (a, b))
    return 0.5 * (a + b)


def _flat_interval(f, x_star, lo, hi, n_grid=201):
    """Largest interval around x_star where f is within FLAT_TOL of max: the
    flat run of a grid around x_star, each end then moved by bisection
    between the run's last grid point and the next one off it, to the last
    point where f still equals the max.  (Bisecting on the FLAT_TOL test
    itself would end where f has fallen by FLAT_TOL: on a quadratic
    falloff of weight p, sqrt(FLAT_TOL / p) beyond the end, 5.5e-6 at
    p = 0.033 on zerosum.)"""
    xs = np.linspace(lo, hi, n_grid)
    fx = np.asarray([f(x) for x in xs])
    f_max = max(float(np.max(fx)), f(x_star))
    flat = fx >= f_max - FLAT_TOL
    k = int(np.argmin(np.abs(xs - x_star)))
    if not flat[k]:
        return x_star, x_star
    left = k
    while left > 0 and flat[left - 1]:
        left -= 1
    right = k
    while right < n_grid - 1 and flat[right + 1]:
        right += 1
    if left == right:
        return x_star, x_star

    def edge(inside, outside):
        for _ in range(60):  # halvings of the bracket, to below an ulp
            mid = 0.5 * (inside + outside)
            if f(mid) >= f_max:
                inside = mid
            else:
                outside = mid
        return inside

    a = float(xs[left]) if left == 0 else edge(float(xs[left]),
                                               float(xs[left - 1]))
    b = float(xs[right]) if right == n_grid - 1 else edge(
        float(xs[right]), float(xs[right + 1]))
    return a, b


def numeric_best_response(game, probs, i, q, current=None):
    """Best response of player i in a continuous game by golden-section
    search, with the arguments of `games.best_response`: the pair (point,
    interval).  ``point`` is a canonical maximizer as a tuple (``current``
    clipped to the flat interval when the argmax is set-valued), and
    ``interval`` is ((lo,), (hi,)) when the argmax is set-valued, else
    None."""
    probs = _floats(probs)
    if type(q) is not list:
        q = _floats(q)
    if current is None:
        current = q[game.slices[i]]
    elif type(current) is not list:
        current = _floats(current)
    lo = game.box_lo()[i]
    hi = game.box_hi()[i]
    pos = game.slices[i].start

    def value(x):
        trial = list(q)
        trial[pos] = x
        return expected_payoff(game, probs, trial, i)

    x_star = _golden_max(value, lo, hi)
    f_lo, f_hi = _flat_interval(value, x_star, lo, hi)
    if f_hi - f_lo <= FLAT_TOL:
        return (x_star,), None
    canonical = min(max(float(current[0]), f_lo), f_hi)
    return (canonical,), ((f_lo,), (f_hi,))


def analytic_interval(game, probs, i, q):
    """The ends (lo, hi) of player i's analytic best-response set in a
    continuous game, read through `best_response` itself: with ``current``
    at the box's lo and at its hi, the canonical point is each end of the
    interval (``current`` clipped).  Equal ends mean a single-valued
    response."""
    box = game.boxes[i]
    return (best_response(game, probs, i, q, current=[box[0]])[0],
            best_response(game, probs, i, q, current=[box[1]])[0])


def reference_project(eq, q):
    """The L-infinity projection of one profile (an array) onto ``eq`` on
    numpy arrays: np.clip for a box; for a line the smallest t of least
    distance among t_range's ends and the kinks clipped to it; the first
    nearest member of a finite list."""
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


def log_normalize(lp):
    """The normalised log probabilities (a list) of the scores ``lp`` on
    numpy arrays: ContractViolation on a NaN or +inf score, else
    ImpossibleObservation when every score is -inf, else the scores shifted
    by their max less the `math.log` of their exps' sum (left to right)."""
    lp = np.asarray(lp, dtype=float)
    if np.any(np.isnan(lp)) or np.any(lp == np.inf):
        raise ContractViolation("log-probabilities must be finite or -inf")
    if np.all(lp == -np.inf):
        raise ImpossibleObservation("all parameters carry zero probability")
    shifted = lp - np.max(lp)
    total = 0.0
    for e in np.exp(shifted).tolist():
        total += e
    return (shifted - math.log(total)).tolist()


def reference_log_likelihood(game, q, c):
    """log phi^s(c|q) under every parameter s, walking the likelihood
    channels of each row of ``game.sigmas`` in order, with log sigma taken
    here: a noisy channel adds its Gaussian term, and a noiseless one is an
    atom at its mean, which adds 0 on a hit and ends the walk at -inf on a
    miss, or adds an array of 0 and -inf to an array of samples."""
    out = []
    for mu, sig in zip(game.channel_means(q), game.sigmas):
        total = 0.0
        for k in game.likelihood_channels:
            s = sig[k]
            if s == 0.0:
                if isinstance(c[k], np.ndarray):
                    total = total + np.where(c[k] == mu[k], 0.0, NEG_INF)
                elif c[k] != mu[k]:
                    total = NEG_INF
                    break
                continue
            z = (c[k] - mu[k]) / s
            total += -0.5 * z * z - math.log(s) - _HALF_LOG_2PI
        out.append(total)
    return out


def reference_sample_payoffs(game, s_idx, q, rng):
    """The observed channel vector (a list of floats) under parameter
    s_idx, with one scalar draw from ``rng`` per noise source in source
    order, or per channel in channel order, and none when every channel of
    s_idx is noiseless."""
    mu = game.channel_means(q)[s_idx]
    normal = rng.standard_normal
    if game.noise_loadings is not None:
        z = [normal() for _ in game.noise_loadings[0]]
        out = []
        for m, row in zip(mu, game.noise_loadings):
            total = 0.0
            for w, zj in zip(row, z):
                total += w * zj
            out.append(m + total)
        return out
    sig = game.sigmas[s_idx]
    if not any(sig):
        return list(mu)
    return [m + s * normal() for m, s in zip(mu, sig)]


def reference_sample(eq, n, rng):
    """`EquilibriumSet.sample` on numpy arrays: an (n, q_dim) array."""
    if eq.kind == "point":
        return np.tile(np.asarray(eq.point), (n, 1))
    if eq.kind == "box":
        lo = np.asarray(eq.lo)
        hi = np.asarray(eq.hi)
        return lo + (hi - lo) * rng.random((n, lo.size))
    if eq.kind == "line":
        a, b = eq.t_range
        ts = a + (b - a) * rng.random(n)
        return np.asarray(eq.base) + ts[:, None] * np.asarray(eq.direction)
    idx = rng.integers(0, len(eq.members), size=n)
    return np.asarray([eq.members[i] for i in idx], dtype=float)


def reference_representatives(eq, n=5):
    """`EquilibriumSet.representatives` on numpy arrays."""
    if eq.kind == "point":
        return np.asarray([eq.point], dtype=float)
    if eq.kind == "box":
        lo = np.asarray(eq.lo)
        hi = np.asarray(eq.hi)
        ts = np.linspace(0.0, 1.0, n)
        return lo + ts[:, None] * (hi - lo)
    if eq.kind == "line":
        a, b = eq.t_range
        ts = np.linspace(a, b, n)
        return np.asarray(eq.base) + ts[:, None] * np.asarray(eq.direction)
    return np.asarray(eq.members, dtype=float)


def _reference_box(game, end):
    return np.asarray([b[end] for b in game.boxes], dtype=float)


def reference_box_center(game):
    """`GameModel.box_center` on numpy arrays."""
    if game.kind == "continuous":
        return 0.5 * (_reference_box(game, 0) + _reference_box(game, 1))
    out = np.zeros(game.q_dim)
    for sl, n_act in zip(game.slices, game.boxes):
        out[sl] = 1.0 / n_act
    return out


def reference_random_profile(game, rng):
    """`GameModel.random_profile` on numpy arrays."""
    if game.kind == "finite":
        return np.concatenate([rng.dirichlet(np.ones(n_act))
                               for n_act in game.boxes])
    lo, hi = _reference_box(game, 0), _reference_box(game, 1)
    return lo + (hi - lo) * rng.random(game.n_players)


def reference_grid_points(n_params, resolution):
    """The belief grid of `analysis.belief_grid` as arrays."""
    g = resolution - 1
    if n_params == 2:
        for i in range(g + 1):
            yield np.asarray([i / g, 1.0 - i / g])
        return
    for combo in itertools.combinations(range(g + n_params - 1), n_params - 1):
        prev = -1
        parts = []
        for c in combo:
            parts.append(c - prev - 1)
            prev = c
        parts.append(g + n_params - 2 - prev)
        yield np.asarray(parts, dtype=float) / g
