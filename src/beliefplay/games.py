"""Game abstraction (strategy boxes, parametric mean payoffs, Gaussian
observation channels, best-response and equilibrium oracles) plus the concrete
games used throughout the experiments.

Strategy profiles are flat numpy vectors; ``GameModel.slices`` maps players to
their coordinate blocks.  Finite games use one probability block per player
over their actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .param_belief import Belief, ContractViolation, ParameterSpace

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
FLAT_TOL = 1e-12


class SolverError(RuntimeError):
    """Numeric best-response search failed to converge."""


@dataclass(frozen=True)
class BRResult:
    """One canonical maximizer plus a set descriptor.

    ``interval`` is (lo, hi) per coordinate when the argmax is flat within
    FLAT_TOL; for finite games ``tied_actions`` lists the optimal actions.
    """

    point: np.ndarray
    interval: tuple | None = None
    tied_actions: tuple | None = None

    @property
    def is_set_valued(self):
        if self.tied_actions is not None:
            return len(self.tied_actions) > 1
        if self.interval is None:
            return False
        lo, hi = self.interval
        return bool(np.any(np.asarray(hi) - np.asarray(lo) > 0))


@dataclass(frozen=True)
class EquilibriumSet:
    """Equilibrium strategies for one belief.

    kind: 'point' (q), 'box' (lo, hi per flat coordinate), 'line' (base +
    t*direction for t in t_range) or 'finite_list' (tuple of flat profiles).
    """

    kind: str
    point: tuple | None = None
    lo: tuple | None = None
    hi: tuple | None = None
    base: tuple | None = None
    direction: tuple | None = None
    t_range: tuple | None = None
    members: tuple | None = None

    @classmethod
    def of_point(cls, q):
        return cls(kind="point", point=tuple(np.asarray(q, float).tolist()))

    @classmethod
    def of_box(cls, lo, hi):
        return cls(
            kind="box",
            lo=tuple(np.asarray(lo, float).tolist()),
            hi=tuple(np.asarray(hi, float).tolist()),
        )

    @classmethod
    def of_line(cls, base, direction, t_range):
        return cls(
            kind="line",
            base=tuple(np.asarray(base, float).tolist()),
            direction=tuple(np.asarray(direction, float).tolist()),
            t_range=(float(t_range[0]), float(t_range[1])),
        )

    @classmethod
    def of_finite_list(cls, members):
        return cls(
            kind="finite_list",
            members=tuple(tuple(np.asarray(m, float).tolist()) for m in members),
        )

    def project(self, q):
        """L-infinity nearest member to a flat profile: on a line the one with
        the smallest t, in a finite list the first one."""
        q = np.asarray(q, dtype=float)
        if self.kind == "point":
            return np.asarray(self.point)
        if self.kind == "box":
            return np.clip(q, np.asarray(self.lo), np.asarray(self.hi))
        if self.kind == "line":
            base = np.asarray(self.base)
            d = np.asarray(self.direction)
            r = q - base
            # max_k |r_k - t d_k| is convex and piecewise linear in t, so it is
            # least at an endpoint or a kink; every kink solves
            # r_j - t d_j = +-(r_k - t d_k) for some j, k (j = k included)
            num = np.concatenate([np.add.outer(r, r), np.subtract.outer(r, r)]).ravel()
            den = np.concatenate([np.add.outer(d, d), np.subtract.outer(d, d)]).ravel()
            kinks = num[den != 0.0] / den[den != 0.0]
            ts = np.concatenate([self.t_range, np.clip(kinks, *self.t_range)])
            dist = np.max(np.abs(r - ts[:, None] * d), axis=1)
            return base + np.min(ts[dist == np.min(dist)]) * d
        return np.asarray(
            min(self.members, key=lambda m: float(np.max(np.abs(q - np.asarray(m)))))
        )

    def distance(self, q):
        """L-infinity distance from a flat profile to the set."""
        return float(np.max(np.abs(np.asarray(q, dtype=float) - self.project(q))))

    def sample(self, n, rng):
        """n member profiles (uniform over the set's parametrization)."""
        if self.kind == "point":
            return np.tile(np.asarray(self.point), (n, 1))
        if self.kind == "box":
            lo = np.asarray(self.lo)
            hi = np.asarray(self.hi)
            return lo + (hi - lo) * rng.random((n, lo.size))
        if self.kind == "line":
            a, b = self.t_range
            ts = a + (b - a) * rng.random(n)
            return np.asarray(self.base) + ts[:, None] * np.asarray(self.direction)
        idx = rng.integers(0, len(self.members), size=n)
        return np.asarray([self.members[i] for i in idx], dtype=float)

    def representatives(self, n=5):
        """Deterministic spread of member profiles (endpoints included)."""
        if self.kind == "point":
            return np.asarray([self.point], dtype=float)
        if self.kind == "box":
            lo = np.asarray(self.lo)
            hi = np.asarray(self.hi)
            ts = np.linspace(0.0, 1.0, n)
            return lo + ts[:, None] * (hi - lo)
        if self.kind == "line":
            a, b = self.t_range
            ts = np.linspace(a, b, n)
            return np.asarray(self.base) + ts[:, None] * np.asarray(self.direction)
        return np.asarray(self.members, dtype=float)


@dataclass
class GameModel:
    """Immutable game description; all callables are pure."""

    name: str
    n_players: int
    space: ParameterSpace
    kind: str  # 'continuous' or 'finite'
    boxes: list  # continuous: [(lo, hi)] scalars per player; finite: action counts
    obs_dim: int
    likelihood_channels: tuple
    channel_mean_fn: object
    channel_sigma_fn: object
    mean_payoff_fn: object
    noise_loadings: object = None  # obs_dim x n_noise matrix, or None for diag
    analytic_br: object = None
    analytic_eq: object = None
    lipschitz: float = 10.0
    extras: dict = field(default_factory=dict)

    # -- geometry -----------------------------------------------------------
    @property
    def slices(self):
        if self.kind == "continuous":
            out, pos = [], 0
            for _ in range(self.n_players):
                out.append(slice(pos, pos + 1))
                pos += 1
            return out
        out, pos = [], 0
        for n_act in self.boxes:
            out.append(slice(pos, pos + n_act))
            pos += n_act
        return out

    @property
    def q_dim(self):
        return self.slices[-1].stop

    def _box(self, end):
        if self.kind == "finite":
            raise ContractViolation("finite games have no strategy box")
        return np.asarray([b[end] for b in self.boxes], dtype=float)

    def box_lo(self):
        return self._box(0)

    def box_hi(self):
        return self._box(1)

    def feasible(self, q, tol=1e-9):
        q = np.asarray(q, dtype=float)
        if self.kind == "continuous":
            return bool(
                np.all(q >= self.box_lo() - tol) and np.all(q <= self.box_hi() + tol)
            )
        if np.any(q < -tol):
            return False
        return all(
            abs(float(np.sum(q[sl])) - 1.0) <= 1e-6 for sl in self.slices
        )

    def box_center(self):
        if self.kind == "continuous":
            return 0.5 * (self.box_lo() + self.box_hi())
        out = np.zeros(self.q_dim)
        for sl, n_act in zip(self.slices, self.boxes):
            out[sl] = 1.0 / n_act
        return out

    def random_profile(self, rng):
        """A random start: uniform on the strategy box, or one Dirichlet mixed
        strategy per player in a finite game."""
        if self.kind == "finite":
            return np.concatenate([rng.dirichlet(np.ones(n_act))
                                   for n_act in self.boxes])
        lo, hi = self.box_lo(), self.box_hi()
        return lo + (hi - lo) * rng.random(self.n_players)

    # -- channels -----------------------------------------------------------
    def channel_means(self, s_idx, q):
        return self.channel_mean_fn(s_idx, np.asarray(q, dtype=float))

    def channel_sigmas(self, s_idx):
        return self.channel_sigma_fn(s_idx)

    def mean_payoff(self, s_idx, q, i):
        return float(self.mean_payoff_fn(s_idx, np.asarray(q, dtype=float), i))


def expected_payoff(game, belief, q, i):
    """E_theta[u_i^s(q)]."""
    probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, float)
    total = 0.0
    for s, p in enumerate(probs):
        if p > 0.0:
            total += p * game.mean_payoff(s, q, i)
    return total


def sample_payoffs(game, s_idx, q, rng):
    """Observed channel vector: channel means plus Gaussian noise."""
    mu = np.array(game.channel_means(s_idx, q), dtype=float, copy=True)
    if game.noise_loadings is not None:
        loadings = np.asarray(game.noise_loadings, dtype=float)
        z = rng.standard_normal(loadings.shape[1])
        return mu + loadings @ z
    sig = np.asarray(game.channel_sigmas(s_idx), dtype=float)
    if np.all(sig == 0.0):
        return mu
    return mu + sig * rng.standard_normal(mu.size)


# ---------------------------------------------------------------------------
# Best response


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
    """Largest grid interval around x_star where f is within FLAT_TOL of max."""
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
    return float(xs[left]), float(xs[right])


def best_response(game, belief, i, q, current=None):
    """Best response of player i to the opponents in the profile q.

    Returns a BRResult: a canonical maximizer (the one nearest the player's
    current strategy when the argmax is set-valued) plus a descriptor.
    """
    probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, float)
    q = np.asarray(q, dtype=float)
    if current is None:
        current = q[game.slices[i]]
    current = np.atleast_1d(np.asarray(current, dtype=float))

    if game.analytic_br is not None:
        return game.analytic_br(probs, i, q, current)

    if game.kind == "finite":
        return _finite_best_response(game, probs, i, q, current)

    # golden-section search: the oracle the closed forms are tested against,
    # and the path for games built without an analytic_br
    lo = game.box_lo()[i]
    hi = game.box_hi()[i]
    sl = game.slices[i]

    def value(x):
        trial = q.copy()
        trial[sl] = x
        return sum(
            p * game.mean_payoff(s, trial, i) for s, p in enumerate(probs) if p > 0
        )

    x_star = _golden_max(value, lo, hi)
    f_lo, f_hi = _flat_interval(value, x_star, lo, hi)
    canonical = min(max(float(current[0]), f_lo), f_hi)
    if f_hi - f_lo <= FLAT_TOL:
        canonical = x_star
        return BRResult(point=np.asarray([x_star]))
    return BRResult(point=np.asarray([canonical]), interval=((f_lo,), (f_hi,)))


def _finite_best_response(game, probs, i, q, current):
    n_act = game.boxes[i]
    sl = game.slices[i]
    values = np.empty(n_act)
    for a in range(n_act):
        trial = q.copy()
        trial[sl] = 0.0
        trial[sl.start + a] = 1.0
        values[a] = sum(
            p * game.mean_payoff(s, trial, i) for s, p in enumerate(probs) if p > 0
        )
    best = float(np.max(values))
    tied = tuple(int(a) for a in range(n_act) if values[a] >= best - FLAT_TOL)
    # canonical: keep the current action when it is tied, else lowest index
    cur_act = int(np.argmax(current)) if current.size == n_act else -1
    pick = cur_act if cur_act in tied and current[cur_act] > 1.0 - 1e-9 else tied[0]
    point = np.zeros(n_act)
    point[pick] = 1.0
    return BRResult(point=point, tied_actions=tied)


def br_profile(game, belief, q, current=None):
    """Stack each player's canonical best response into one flat profile."""
    q = np.asarray(q, dtype=float)
    out = q.copy()
    for i in range(game.n_players):
        cur = None if current is None else current[game.slices[i]]
        out[game.slices[i]] = best_response(game, belief, i, q, current=cur).point
    return out


def equilibrium_set(game, belief, n_starts=20, max_iter=2000, tol=1e-10):
    """EQ(theta): analytic when available, else damped iterated best response
    from random starts with limit-point clustering."""
    if game.analytic_eq is not None:
        return game.analytic_eq(
            belief.probs if isinstance(belief, Belief) else np.asarray(belief, float)
        )
    rng = np.random.default_rng(0)
    limits = []
    for _ in range(n_starts):
        q = game.random_profile(rng)
        for it in range(max_iter):
            nxt = 0.5 * q + 0.5 * br_profile(game, belief, q)
            if np.max(np.abs(nxt - q)) < tol:
                q = nxt
                break
            q = nxt
        else:
            continue
        limits.append(q)
    if not limits:
        raise SolverError("no equilibrium found from any start")
    clusters = []
    for q in limits:
        for c in clusters:
            if np.max(np.abs(q - c)) < 1e-6:
                break
        else:
            clusters.append(q)
    return EquilibriumSet.of_finite_list(clusters)


# ---------------------------------------------------------------------------
# Concrete games


def _noise_scale(name, value):
    """A channel noise scale: finite and >= 0 (0 is a degenerate channel)."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ContractViolation("%s must be a finite number >= 0, got %r"
                                % (name, value))
    return value


def _interval_br(lo, hi, current):
    cur = float(np.atleast_1d(current)[0])
    canonical = min(max(cur, lo), hi)
    if hi - lo <= FLAT_TOL:
        return BRResult(point=np.asarray([0.5 * (lo + hi)]))
    return BRResult(point=np.asarray([canonical]), interval=((lo,), (hi,)))


def cournot(sigma=math.sqrt(0.5)):
    """Duopoly with unknown (intercept, slope) of the inverse demand.

    Price = alpha - beta(q1+q2) + eps; each firm's payoff is q_i * price.
    Observed channel: the realized price.
    """
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((2.0, 1.0), (4.0, 3.0)), true_index=0,
                           labels=("s1", "s2"))
    arr = space.as_array()

    def channel_mean(s, q):
        a, b = arr[s]
        return np.asarray([a - b * (q[0] + q[1])])

    def channel_sigma(s):
        return np.asarray([sigma])

    def mean_payoff(s, q, i):
        a, b = arr[s]
        return q[i] * (a - b * (q[0] + q[1]))

    def analytic_br(probs, i, q, current):
        ea = float(probs @ arr[:, 0])
        eb = float(probs @ arr[:, 1])
        j = 1 - i
        x = min(max(ea / (2.0 * eb) - q[j] / 2.0, 0.0), 3.0)
        return BRResult(point=np.asarray([x]))

    def analytic_eq(probs):
        ea = float(probs @ arr[:, 0])
        eb = float(probs @ arr[:, 1])
        r = ea / (2.0 * eb)
        x = min(max(2.0 * r / 3.0, 0.0), 3.0)
        return EquilibriumSet.of_point((x, x))

    return GameModel(
        name="cournot", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 3.0), (0.0, 3.0)], obs_dim=1, likelihood_channels=(0,),
        channel_mean_fn=channel_mean, channel_sigma_fn=channel_sigma,
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
        analytic_eq=analytic_eq, lipschitz=30.0,
    )


def zerosum_example(sigma=1.0):
    """Zero-sum game with a shared convex cost kink at the unknown threshold.

    v^s(q) = (max(|q1-q2|, s) - s)^2 - 2 q1^2; c1 = v + eps, c2 = -c1.
    """
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((1.0,), (3.0,), (5.0,)), true_index=1,
                           labels=("1", "3", "5"))
    svals = space.as_array()[:, 0]

    def v(s, q):
        d = abs(q[0] - q[1])
        return (max(d, svals[s]) - svals[s]) ** 2 - 2.0 * q[0] ** 2

    def channel_mean(s, q):
        val = v(s, q)
        return np.asarray([val, -val])

    def channel_sigma(s):
        return np.asarray([sigma, sigma])

    def mean_payoff(s, q, i):
        return v(s, q) if i == 0 else -v(s, q)

    loadings = np.asarray([[sigma], [-sigma]])

    def analytic_br(probs, i, q, current):
        if i == 0:
            return BRResult(point=np.asarray([0.0]))
        m = float(min(svals[s] for s in range(3) if probs[s] > 0))
        lo = max(q[0] - m, 0.0)
        hi = min(q[0] + m, 6.0)
        return _interval_br(lo, hi, current)

    def analytic_eq(probs):
        m = float(min(svals[s] for s in range(3) if probs[s] > 0))
        return EquilibriumSet.of_box((0.0, 0.0), (0.0, min(m, 6.0)))

    return GameModel(
        name="zerosum", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 6.0), (0.0, 6.0)], obs_dim=2, likelihood_channels=(0,),
        channel_mean_fn=channel_mean, channel_sigma_fn=channel_sigma,
        mean_payoff_fn=mean_payoff, noise_loadings=loadings,
        analytic_br=analytic_br, analytic_eq=analytic_eq, lipschitz=40.0,
    )


def investment(sigmas=(math.sqrt(3.0), math.sqrt(5.0), math.sqrt(10.0))):
    """Two-player investment game with unknown return level.

    Unit return r = s + q1 + q2 + eps (per-state noise scale); player i's
    payoff is q_i (s - 2 q_i + q_{-i} + eps).  Observed channel: r.
    """
    space = ParameterSpace(params=((0.0,), (1.0,), (2.0,)), true_index=1,
                           labels=("l", "m", "h"))
    svals = space.as_array()[:, 0]
    sigmas = tuple(_noise_scale("sigmas", x) for x in sigmas)
    if len(sigmas) != len(space):
        raise ContractViolation("sigmas must have one entry per parameter (%d)"
                                % len(space))

    def channel_mean(s, q):
        return np.asarray([svals[s] + q[0] + q[1]])

    def channel_sigma(s):
        return np.asarray([sigmas[s]])

    def mean_payoff(s, q, i):
        return q[i] * (svals[s] - 2.0 * q[i] + q[1 - i])

    def analytic_br(probs, i, q, current):
        es = float(probs @ svals)
        x = min(max((es + q[1 - i]) / 4.0, 0.0), 1.0)
        return BRResult(point=np.asarray([x]))

    def analytic_eq(probs):
        es = float(probs @ svals)
        x = min(max(es / 3.0, 0.0), 1.0)
        return EquilibriumSet.of_point((x, x))

    return GameModel(
        name="investment", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 1.0), (0.0, 1.0)], obs_dim=1, likelihood_channels=(0,),
        channel_mean_fn=channel_mean, channel_sigma_fn=channel_sigma,
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
        analytic_eq=analytic_eq, lipschitz=10.0,
    )


def coordination_penalty(sigma=1.0):
    """Coordination with an increasing penalty on large strategy gaps.

    Common cost -(q1-q2)^2 when |q1-q2|<=1, else -(1+s(|q1-q2|-1))^2; player 1
    additionally pays q1, player 2 collects q2.  S = {2, 4}, s* = 2.
    """
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((2.0,), (4.0,)), true_index=0, labels=("2", "4"))
    svals = space.as_array()[:, 0]

    def common(s, q):
        d = abs(q[0] - q[1])
        if d <= 1.0:
            return -(q[0] - q[1]) ** 2
        return -((1.0 + svals[s] * (d - 1.0)) ** 2)

    def channel_mean(s, q):
        c = common(s, q)
        return np.asarray([c - q[0], c + q[1]])

    def channel_sigma(s):
        return np.asarray([sigma, sigma])

    def mean_payoff(s, q, i):
        c = common(s, q)
        return c - q[0] if i == 0 else c + q[1]

    def analytic_br(probs, i, q, current):
        if i == 0:
            x = min(max(q[1] - 0.5, 0.0), 2.0)
        else:
            x = min(max(q[0] + 0.5, 1.0), 4.0)
        return BRResult(point=np.asarray([x]))

    def analytic_eq(probs):
        # q2 - q1 = 1/2 clipped to Q1 x Q2
        return EquilibriumSet.of_line(base=(0.5, 1.0), direction=(1.0, 1.0),
                                      t_range=(0.0, 1.5))

    return GameModel(
        name="coordination_penalty", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 2.0), (1.0, 4.0)], obs_dim=2, likelihood_channels=(0, 1),
        channel_mean_fn=channel_mean, channel_sigma_fn=channel_sigma,
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
        analytic_eq=analytic_eq, lipschitz=60.0,
    )


def two_route_congestion(n_players=2, sigma=1.0):
    """Two parallel routes with unknown congestion slope.

    Expected edge cost is E[s] x_e + 1 with x_e the number of players on the
    edge; each player's payoff is minus their own realized route cost.
    """
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((1.0,), (2.0,)), true_index=0, labels=("1", "2"))
    svals = space.as_array()[:, 0]
    n = int(n_players)

    def loads(q):
        # expected load per edge given a (possibly mixed) flat profile
        x = np.zeros(2)
        for i in range(n):
            x += q[2 * i: 2 * i + 2]
        return x

    def channel_mean(s, q):
        x = loads(q)
        # player i's chosen edge = their argmax block entry (pure profiles)
        out = np.empty(n)
        for i in range(n):
            e = int(np.argmax(q[2 * i: 2 * i + 2]))
            out[i] = svals[s] * x[e] + 1.0
        return out

    def channel_sigma(s):
        return np.full(n, sigma)

    def mean_payoff(s, q, i):
        x = loads(q)
        qi = q[2 * i: 2 * i + 2]
        # expected cost: own mixture over edges, counting self in the load
        others = x - qi
        cost = sum(
            qi[e] * (svals[s] * (1.0 + others[e]) + 1.0) for e in range(2)
        )
        return -cost

    def analytic_eq(probs):
        if n != 2:
            return None
        return EquilibriumSet.of_finite_list([
            (1.0, 0.0, 0.0, 1.0),
            (0.0, 1.0, 1.0, 0.0),
            (0.5, 0.5, 0.5, 0.5),
        ])

    return GameModel(
        name="two_route_congestion", n_players=n, space=space, kind="finite",
        boxes=[2] * n, obs_dim=n, likelihood_channels=tuple(range(n)),
        channel_mean_fn=channel_mean, channel_sigma_fn=channel_sigma,
        mean_payoff_fn=mean_payoff,
        analytic_eq=analytic_eq if n == 2 else None, lipschitz=10.0,
    )


def affine_game(alpha, beta, sigma, grid=None, true_grid_index=0):
    """Affine payoff family c_i = (q, 1) . s_i + eps_i on the box [0, 1]^n.

    alpha: (n, n) slope rows; beta: (n,) intercepts.  ``grid`` optionally
    supplies alternative (alpha, beta) vectors of length n^2 + n forming a
    finite parameter grid for MAP experiments; the truth is entry
    ``true_grid_index`` (which must reproduce alpha/beta).

    Player i's expected payoff is linear in its own strategy, with slope
    m_i = sum over s with p_s > 0 of p_s alpha^s_ii, so its best response is
    the whole box when |m_i| (hi - lo) <= FLAT_TOL (canonical point: the
    current strategy clipped to the box), else hi when m_i > 0 and lo when
    m_i < 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1] or alpha.size == 0:
        raise ContractViolation("alpha must be a non-empty n x n matrix, got "
                                "shape %s" % (alpha.shape,))
    n = alpha.shape[0]
    if beta.shape != (n,):
        raise ContractViolation("beta must have length %d, got shape %s"
                                % (n, beta.shape))
    sigma = _noise_scale("sigma", sigma)
    if grid is None:
        grid = [np.concatenate([alpha.ravel(), beta])]
        true_grid_index = 0
    vecs = [np.asarray(g, float).ravel() for g in grid]
    if any(v.size != n * n + n for v in vecs):
        raise ContractViolation("every grid entry must have length n^2 + n = %d"
                                % (n * n + n))
    if not np.all(np.isfinite(np.concatenate([alpha.ravel(), beta, *vecs]))):
        raise ContractViolation("alpha, beta and grid values must be finite")
    params = tuple(tuple(v.tolist()) for v in vecs)
    space = ParameterSpace(params=params, true_index=true_grid_index)
    # own slopes alpha^s_ii, one row per grid entry
    own_slopes = np.asarray([v[: n * n].reshape(n, n).diagonal() for v in vecs])
    lo, hi = 0.0, 1.0

    def unpack(s):
        vec = np.asarray(space.params[s])
        a = vec[: n * n].reshape(n, n)
        b = vec[n * n:]
        return a, b

    def channel_mean(s, q):
        a, b = unpack(s)
        return a @ q + b

    def channel_sigma(s):
        return np.full(n, sigma)

    def mean_payoff(s, q, i):
        a, b = unpack(s)
        return float(a[i] @ q + b[i])

    def analytic_br(probs, i, q, current):
        m = float(probs @ own_slopes[:, i])
        if abs(m) * (hi - lo) <= FLAT_TOL:
            return _interval_br(lo, hi, current)
        return BRResult(point=np.asarray([hi if m > 0.0 else lo]))

    return GameModel(
        name="affine", n_players=n, space=space, kind="continuous",
        boxes=[(lo, hi)] * n, obs_dim=n, likelihood_channels=tuple(range(n)),
        channel_mean_fn=channel_mean, channel_sigma_fn=channel_sigma,
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
        lipschitz=float(np.abs(alpha).sum() + 1.0),
    )
