"""Game abstraction (strategy boxes, parametric mean payoffs, Gaussian
observation channels, best-response and equilibrium oracles) plus the concrete
games used throughout the experiments.

Strategy profiles are flat vectors; ``GameModel.slices`` maps players to
their coordinate blocks.  Finite games use one probability block per player
over their actions.

The kernels the stage loop calls are float-native.  ``channel_means(q)``
returns the channel means under all |S| parameters at once, one row of
``obs_dim`` Python floats per parameter, built from ``space.params`` when the
game is built; ``GameModel.sigmas`` is the matching (|S|, obs_dim) table of
noise scales and ``log_sigmas`` their logs, computed once.  Best responses
are closed forms: every continuous game supplies an ``analytic_br``, and a
finite game without one plays one of its `tied_actions`, the optimal
actions under the belief.  Both take lists of floats, and `best_response`
returns the player's block as a tuple of floats.  `EquilibriumSet.project`
is the one projection onto an equilibrium set, or a strategy box.  The
geometry helpers (``box_lo``/``box_hi``/``box_center``/``random_profile``,
`EquilibriumSet.sample`/``representatives``) return lists of floats.

Bit rule: every sum over the parameters or over a probability vector runs
left to right in plain float arithmetic: each expectation under the belief
in a best response, in an ``analytic_eq`` and in `expected_payoff`, and the
affine game's slope contraction in its channel means.  It is written as
`_expect`, `_total` or an inline loop, never through ``@``, ``dot`` or
``einsum``, whose BLAS kernels round differently with the batch shape, nor
through ``np.sum`` or the builtin ``sum()``, which is a compensated sum from
Python 3.12 on.  The same expression evaluated on one profile or inside a
batch then gives the same bits, and a best response and EQ(theta) read the
same expectation.  ``tests/test_bit_rule.py`` checks the rule.  A clip in a
hot best response is written as two comparisons, ``if 0.0 > x: x = 0.0``
then ``if hi < x: x = hi``, which keep the value ``min(max(x, 0.0), hi)``
picks on -0.0 and NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .param_belief import (NEG_INF, ContractViolation, ParameterSpace,
                           _check_length, _check_profile, _expect, _floats,
                           _is_count, _total)

FLAT_TOL = 1e-12


class SolverError(RuntimeError):
    """The numeric equilibrium search (`equilibrium_set` on a game without
    an ``analytic_eq``) found no equilibrium from any start."""


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
        return cls(kind="point", point=tuple(map(float, q)))

    @classmethod
    def of_box(cls, lo, hi):
        return cls(kind="box", lo=tuple(map(float, lo)),
                   hi=tuple(map(float, hi)))

    @classmethod
    def of_line(cls, base, direction, t_range):
        return cls(kind="line", base=tuple(map(float, base)),
                   direction=tuple(map(float, direction)),
                   t_range=(float(t_range[0]), float(t_range[1])))

    @classmethod
    def of_finite_list(cls, members):
        return cls(kind="finite_list",
                   members=tuple(tuple(map(float, m)) for m in members))

    def project(self, q):
        """The L-infinity nearest member to one flat profile (a sequence of
        floats), as a list of floats: a box clips in np.clip's order, so a
        coordinate equal to a bound comes out as the bound, signed zero
        included; a line takes the smallest nearest t, a finite list its
        first nearest member.  On a line, max_k |r_k - t d_k| (r = q - base)
        is convex and piecewise linear in t, so it is least at an end of
        t_range or at a kink, where r_j - t d_j = +-(r_k - t d_k)."""
        if type(q) is not list and type(q) is not tuple:
            q = _floats(q)
        if self.kind == "box":
            out = []
            for x, lo, hi in zip(q, self.lo, self.hi):
                x = x if x > lo else lo
                out.append(x if x < hi else hi)
            return out
        if self.kind == "point":
            return list(self.point)
        if self.kind == "line":
            (a, b), d = self.t_range, self.direction
            r = [x - c for x, c in zip(q, self.base)]
            ts = [a, b]  # then the kinks, sums before differences
            for sign in (1.0, -1.0):  # x + -1.0 * y is x - y exactly
                for rj, dj in zip(r, d):
                    for rk, dk in zip(r, d):
                        if dj + sign * dk != 0.0:
                            t = (rj + sign * rk) / (dj + sign * dk)
                            t = t if t > a else a
                            ts.append(t if t < b else b)
            gaps = [max(abs(rk - t * dk) for rk, dk in zip(r, d)) for t in ts]
            least = min(gaps)
            t = min(t for t, gap in zip(ts, gaps) if gap == least)
            return [c + t * dk for c, dk in zip(self.base, d)]
        gaps = [max(abs(x - y) for x, y in zip(q, m)) for m in self.members]
        return list(self.members[gaps.index(min(gaps))])

    def distance(self, q):
        """The L-infinity distance from one flat profile to the set, a float:
        max_k |q_k - p_k| at p = `project(q)`, or at a point set's point."""
        if type(q) is not list and type(q) is not tuple:
            q = _floats(q)
        p = self.point if self.kind == "point" else self.project(q)
        gap = 0.0
        for x, y in zip(q, p):
            if abs(x - y) > gap:
                gap = abs(x - y)
        return gap

    def sample(self, n, rng):
        """n member profiles (uniform over the set's parametrization), a list
        of n lists of floats."""
        if self.kind == "point":
            return [list(self.point) for _ in range(n)]
        if self.kind == "box":
            return [[lo + (hi - lo) * u for lo, hi, u in zip(self.lo, self.hi,
                                                             row)]
                    for row in rng.random((n, len(self.lo))).tolist()]
        if self.kind == "line":
            a, b = self.t_range
            return [[c + t * d for c, d in zip(self.base, self.direction)]
                    for t in [a + (b - a) * u for u in rng.random(n).tolist()]]
        return [list(self.members[i])
                for i in rng.integers(0, len(self.members), size=n).tolist()]

    def representatives(self, n=5):
        """Deterministic spread of member profiles (endpoints included), a
        list of lists of floats."""
        if self.kind == "point":
            return [list(self.point)]
        if self.kind == "box":
            return [[lo + t * (hi - lo) for lo, hi in zip(self.lo, self.hi)]
                    for t in np.linspace(0.0, 1.0, n).tolist()]
        if self.kind == "line":
            return [[c + t * d for c, d in zip(self.base, self.direction)]
                    for t in np.linspace(*self.t_range, n).tolist()]
        return [list(m) for m in self.members]


@dataclass
class GameModel:
    """Immutable game description; all callables are pure.

    ``channel_mean_fn(q)`` maps a list of floats to the channel means under
    every parameter (|S| rows of ``obs_dim`` floats), ``sigmas`` holds the
    noise scale of each (parameter, channel) pair (0 is a noiseless channel)
    and ``mean_payoff_fn(s, q, i)`` is player i's mean payoff under
    parameter s at a list of floats q.  ``analytic_br(probs, i, q, current)``
    is player i's closed-form best response, a tuple of floats; a continuous
    game must supply one, a finite game may.
    """

    name: str
    n_players: int
    space: ParameterSpace
    kind: str  # 'continuous' or 'finite'
    boxes: list  # continuous: [(lo, hi)] scalars per player; finite: action counts
    obs_dim: int
    likelihood_channels: tuple
    channel_mean_fn: object
    sigmas: tuple  # (|S|, obs_dim) noise scales
    mean_payoff_fn: object
    noise_loadings: object = None  # obs_dim x n_noise matrix, or None for diag
    analytic_br: object = None
    analytic_eq: object = None
    log_sigmas: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind == "continuous" and self.analytic_br is None:
            raise ContractViolation("a continuous game needs an analytic_br")
        self.sigmas = tuple(tuple(float(x) for x in row) for row in self.sigmas)
        if len(self.sigmas) != len(self.space) or any(
                len(row) != self.obs_dim for row in self.sigmas):
            raise ContractViolation("sigmas must be a (%d, %d) table"
                                    % (len(self.space), self.obs_dim))
        # log 0 = -inf is never read: the likelihood treats a noiseless
        # channel as an atom
        self.log_sigmas = tuple(
            tuple(math.log(x) if x > 0.0 else NEG_INF for x in row)
            for row in self.sigmas)

    # -- geometry -----------------------------------------------------------
    # computed once: the stage loop reads them several times per stage
    @cached_property
    def slices(self):
        """Each player's coordinate block of a flat profile (a tuple)."""
        if self.kind == "continuous":
            return tuple(slice(i, i + 1) for i in range(self.n_players))
        out, pos = [], 0
        for n_act in self.boxes:
            out.append(slice(pos, pos + n_act))
            pos += n_act
        return tuple(out)

    @cached_property
    def q_dim(self):
        return self.slices[-1].stop

    def _box(self, end):
        if self.kind == "finite":
            raise ContractViolation("finite games have no strategy box")
        return [float(b[end]) for b in self.boxes]

    def box_lo(self):
        return self._box(0)

    def box_hi(self):
        return self._box(1)

    def feasible(self, q):
        """Whether q has q_dim entries and lies in the strategy set: to 1e-9
        per entry, and 1e-6 on each finite block's left-to-right sum."""
        q = _floats(q)
        if len(q) != self.q_dim:
            return False
        if self.kind == "continuous":
            return all(lo - 1e-9 <= x <= hi + 1e-9 for x, lo, hi in
                       zip(q, self.box_lo(), self.box_hi()))
        return (all(x >= -1e-9 for x in q)
                and all(abs(_total(q[sl]) - 1.0) <= 1e-6 for sl in self.slices))

    def box_center(self):
        if self.kind == "continuous":
            return [0.5 * (lo + hi) for lo, hi in zip(self.box_lo(),
                                                      self.box_hi())]
        return [1.0 / n_act for n_act in self.boxes for _ in range(n_act)]

    def random_profile(self, rng):
        """A random start, a list of floats: uniform on the strategy box, or
        one Dirichlet mixed strategy per player in a finite game."""
        if self.kind == "finite":
            return [x for n_act in self.boxes
                    for x in rng.dirichlet(np.ones(n_act)).tolist()]
        return [lo + (hi - lo) * u for lo, hi, u in zip(
            self.box_lo(), self.box_hi(), rng.random(self.n_players).tolist())]

    # -- channels -----------------------------------------------------------
    def channel_means(self, q):
        """Channel means at profile q under every parameter: a list of |S|
        rows, each a list of obs_dim floats."""
        return self.channel_mean_fn(q if type(q) is list else _floats(q))

    def mean_payoff(self, s_idx, q, i):
        return float(self.mean_payoff_fn(s_idx, _floats(q), i))


def expected_payoff(game, belief, q, i):
    """E_theta[u_i^s(q)], summed over the parameters with positive
    probability, left to right."""
    probs = _floats(belief)
    _check_length(probs, game)
    q = _floats(q)
    _check_profile(q, game)
    total = 0.0
    for s, p in enumerate(probs):
        if p > 0.0:
            total += p * game.mean_payoff(s, q, i)
    return total


def sample_payoffs(game, s_idx, q, rng, *, means=None):
    """Observed channel vector (a list of floats): the channel means under
    parameter s_idx plus Gaussian noise.  ``means``, when given, is taken as
    ``game.channel_means(q)`` instead of working it out again."""
    if means is None:
        means = game.channel_means(q)
    mu = means[s_idx]
    loadings = game.noise_loadings
    if loadings is not None:
        z = rng.standard_normal(len(loadings[0])).tolist()
        out = []
        for m, row in zip(mu, loadings):
            noise = 0.0
            for w, zj in zip(row, z):
                noise += w * zj
            out.append(m + noise)
        return out
    sig = game.sigmas[s_idx]
    if not any(sig):
        return list(mu)
    # one scalar draw per channel, in channel order: the same stream and
    # values as one draw of obs_dim normals
    normal = rng.standard_normal
    out = []
    for m, s in zip(mu, sig):
        out.append(m + s * normal())
    return out


# ---------------------------------------------------------------------------
# Best response


def best_response(game, belief, i, q, current=None):
    """Best response of player i to the opponents in the profile q.

    ``belief`` (a probability vector), ``q`` and ``current`` (player i's
    current block, by default read from q) are arrays, sequences or lists of
    floats.  Returns a canonical maximizer as a tuple of floats (the one
    nearest the player's current strategy when the argmax is set-valued).
    The game's ``analytic_br`` answers when it has one, which every
    continuous game does; a finite game without one plays the current pure
    action if it is among the `tied_actions`, else the lowest of them.
    There is no numeric search.  A belief whose length is not |S| raises
    ContractViolation.
    """
    # the stage loop passes lists of floats, which need no conversion
    probs = belief if type(belief) is list else _floats(belief)
    if len(probs) != len(game.space.params):  # one comparison per call
        _check_length(probs, game)
    if type(q) is not list:
        q = _floats(q)
    if current is None:
        current = q[game.slices[i]]
    elif type(current) is not list:
        current = _floats(current)

    analytic_br = game.analytic_br
    if analytic_br is not None:
        return analytic_br(probs, i, q, current)
    tied = tied_actions(game, probs, i, q)
    n_act = game.boxes[i]
    cur_act = current.index(max(current)) if len(current) == n_act else -1
    pick = cur_act if cur_act in tied and current[cur_act] > 1.0 - 1e-9 else tied[0]
    return tuple(float(a == pick) for a in range(n_act))


def tied_actions(game, belief, i, q):
    """The optimal pure actions of player i in a finite game, lowest first:
    each action's expected payoff summed over the parameters left to right,
    within FLAT_TOL of the best.  One trial profile serves every action: the
    action's entry is set, read and cleared."""
    probs = _floats(belief)
    if len(probs) != len(game.space.params):
        _check_length(probs, game)
    q = _floats(q)
    n_act = game.boxes[i]
    sl = game.slices[i]
    payoff = game.mean_payoff_fn
    weights = [(s, p) for s, p in enumerate(probs) if p > 0.0]
    trial = list(q)
    trial[sl] = [0.0] * n_act
    values = []
    for pos in range(sl.start, sl.stop):
        trial[pos] = 1.0
        value = 0.0
        for s, p in weights:
            value += p * payoff(s, trial, i)
        trial[pos] = 0.0
        values.append(value)
    best = max(values)
    return tuple(a for a in range(n_act) if values[a] >= best - FLAT_TOL)


def br_profile(game, belief, q, current=None):
    """Stack each player's canonical best response into one flat profile, a
    list of floats.  The belief and the profiles become lists of floats once,
    here; a list is taken to hold floats already."""
    probs = _floats(belief)
    flat = _floats(q)
    _check_profile(flat, game)
    current = flat if current is None else _floats(current)
    out = []
    for i, sl in enumerate(game.slices):
        out += best_response(game, probs, i, flat, current=current[sl])
    return out


def equilibrium_set(game, belief):
    """EQ(theta): analytic when available, else damped iterated best response
    from 20 random starts (seed 0), each run for at most 2,000 steps until a
    step moves less than 1e-10; limit points within 1e-6 of an earlier one
    join its cluster."""
    probs = _floats(belief)
    _check_length(probs, game)
    if game.analytic_eq is not None:
        return game.analytic_eq(probs)
    rng = np.random.default_rng(0)
    limits = []
    for _ in range(20):
        q = np.asarray(game.random_profile(rng))
        for it in range(2000):
            nxt = 0.5 * q + 0.5 * np.asarray(br_profile(game, probs, q))
            if np.max(np.abs(nxt - q)) < 1e-10:
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
    if hi - lo <= FLAT_TOL:
        return (0.5 * (lo + hi),)
    return (min(max(current[0], lo), hi),)


def cournot(sigma=math.sqrt(0.5)):
    """Duopoly with unknown (intercept, slope) of the inverse demand.

    Price = alpha - beta(q1+q2) + eps; each firm's payoff is q_i * price.
    Observed channel: the realized price.
    """
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((2.0, 1.0), (4.0, 3.0)), true_index=0)
    intercepts = [a for a, _ in space.params]
    slopes = [b for _, b in space.params]

    def channel_mean(q):
        x = q[0] + q[1]
        return [[a - b * x] for a, b in space.params]

    def mean_payoff(s, q, i):
        a, b = space.params[s]
        return q[i] * (a - b * (q[0] + q[1]))

    def analytic_br(probs, i, q, current):
        ea = eb = 0.0
        for p, a, b in zip(probs, intercepts, slopes):
            ea += p * a
            eb += p * b
        x = ea / (2.0 * eb) - q[1 - i] / 2.0
        if 0.0 > x:
            x = 0.0
        if 3.0 < x:
            x = 3.0
        return (x,)

    def analytic_eq(probs):
        r = _expect(probs, intercepts) / (2.0 * _expect(probs, slopes))
        x = min(max(2.0 * r / 3.0, 0.0), 3.0)
        return EquilibriumSet.of_point((x, x))

    return GameModel(
        name="cournot", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 3.0), (0.0, 3.0)], obs_dim=1, likelihood_channels=(0,),
        channel_mean_fn=channel_mean, sigmas=[[sigma]] * len(space),
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
        analytic_eq=analytic_eq,
    )


def zerosum_example(sigma=1.0):
    """Zero-sum game with a shared convex cost kink at the unknown threshold.

    v^s(q) = (max(|q1-q2|, s) - s)^2 - 2 q1^2; c1 = v + eps, c2 = -c1.
    """
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((1.0,), (3.0,), (5.0,)), true_index=1)
    svals = space.as_array()[:, 0].tolist()

    def v(sv, q):
        d = abs(q[0] - q[1])
        return (max(d, sv) - sv) ** 2 - 2.0 * q[0] ** 2

    def channel_mean(q):
        out = []
        for sv in svals:
            val = v(sv, q)
            out.append([val, -val])
        return out

    def mean_payoff(s, q, i):
        return v(svals[s], q) if i == 0 else -v(svals[s], q)

    def analytic_br(probs, i, q, current):
        if i == 0:
            return (0.0,)
        m = min(sv for sv, p in zip(svals, probs) if p > 0)
        lo = max(q[0] - m, 0.0)
        hi = min(q[0] + m, 6.0)
        return _interval_br(lo, hi, current)

    def analytic_eq(probs):
        m = float(min(svals[s] for s in range(3) if probs[s] > 0))
        return EquilibriumSet.of_box((0.0, 0.0), (0.0, min(m, 6.0)))

    return GameModel(
        name="zerosum", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 6.0), (0.0, 6.0)], obs_dim=2, likelihood_channels=(0,),
        channel_mean_fn=channel_mean, sigmas=[[sigma, sigma]] * len(space),
        mean_payoff_fn=mean_payoff, noise_loadings=[[sigma], [-sigma]],
        analytic_br=analytic_br, analytic_eq=analytic_eq,
    )


def investment(sigmas=(math.sqrt(3.0), math.sqrt(5.0), math.sqrt(10.0))):
    """Two-player investment game with unknown return level.

    Unit return r = s + q1 + q2 + eps (per-state noise scale); player i's
    payoff is q_i (s - 2 q_i + q_{-i} + eps).  Observed channel: r.
    """
    space = ParameterSpace(params=((0.0,), (1.0,), (2.0,)), true_index=1)
    svals = space.as_array()[:, 0].tolist()
    sigmas = tuple(_noise_scale("sigmas", x) for x in sigmas)
    if len(sigmas) != len(space):
        raise ContractViolation("sigmas must have one entry per parameter (%d)"
                                % len(space))

    def channel_mean(q):
        return [[sv + q[0] + q[1]] for sv in svals]

    def mean_payoff(s, q, i):
        return q[i] * (svals[s] - 2.0 * q[i] + q[1 - i])

    def analytic_br(probs, i, q, current):
        es = 0.0
        for p, sv in zip(probs, svals):
            es += p * sv
        x = (es + q[1 - i]) / 4.0
        if 0.0 > x:
            x = 0.0
        if 1.0 < x:
            x = 1.0
        return (x,)

    def analytic_eq(probs):
        es = _expect(probs, svals)
        x = min(max(es / 3.0, 0.0), 1.0)
        return EquilibriumSet.of_point((x, x))

    return GameModel(
        name="investment", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 1.0), (0.0, 1.0)], obs_dim=1, likelihood_channels=(0,),
        channel_mean_fn=channel_mean, sigmas=[[x] for x in sigmas],
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
        analytic_eq=analytic_eq,
    )


def coordination_penalty(sigma=1.0):
    """Coordination with an increasing penalty on large strategy gaps.

    Common cost -(q1-q2)^2 when |q1-q2|<=1, else -(1+s(|q1-q2|-1))^2; player 1
    additionally pays q1, player 2 collects q2.  S = {2, 4}, s* = 2.
    """
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((2.0,), (4.0,)), true_index=0)
    svals = space.as_array()[:, 0].tolist()

    def common(sv, q):
        d = abs(q[0] - q[1])
        if d <= 1.0:
            return -(q[0] - q[1]) ** 2
        return -((1.0 + sv * (d - 1.0)) ** 2)

    def channel_mean(q):
        out = []
        for sv in svals:
            c = common(sv, q)
            out.append([c - q[0], c + q[1]])
        return out

    def mean_payoff(s, q, i):
        c = common(svals[s], q)
        return c - q[0] if i == 0 else c + q[1]

    def analytic_br(probs, i, q, current):
        if i == 0:
            x = min(max(q[1] - 0.5, 0.0), 2.0)
        else:
            x = min(max(q[0] + 0.5, 1.0), 4.0)
        return (x,)

    def analytic_eq(probs):
        # q2 - q1 = 1/2 clipped to Q1 x Q2
        return EquilibriumSet.of_line(base=(0.5, 1.0), direction=(1.0, 1.0),
                                      t_range=(0.0, 1.5))

    return GameModel(
        name="coordination_penalty", n_players=2, space=space, kind="continuous",
        boxes=[(0.0, 2.0), (1.0, 4.0)], obs_dim=2, likelihood_channels=(0, 1),
        channel_mean_fn=channel_mean, sigmas=[[sigma, sigma]] * len(space),
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
        analytic_eq=analytic_eq,
    )


def two_route_congestion(n_players=2, sigma=1.0):
    """Two parallel routes with unknown congestion slope.

    Expected edge cost is E[s] x_e + 1 with x_e the number of players on the
    edge; each player's payoff is minus their own realized route cost.
    ``n_players`` must be an integer >= 1 (bools are rejected).
    """
    if not _is_count(n_players):
        raise ContractViolation("n_players must be an integer >= 1, got %r"
                                % (n_players,))
    sigma = _noise_scale("sigma", sigma)
    space = ParameterSpace(params=((1.0,), (2.0,)), true_index=0)
    svals = space.as_array()[:, 0].tolist()
    n = int(n_players)

    def loads(q):
        # expected load per edge given a (possibly mixed) flat profile
        x0 = x1 = 0.0
        for i in range(n):
            x0 += q[2 * i]
            x1 += q[2 * i + 1]
        return x0, x1

    def channel_mean(q):
        x = loads(q)
        # player i's chosen edge = their argmax block entry (pure profiles)
        chosen = [x[1] if q[2 * i + 1] > q[2 * i] else x[0] for i in range(n)]
        return [[sv * xe + 1.0 for xe in chosen] for sv in svals]

    def mean_payoff(s, q, i):
        x = loads(q)
        sv = svals[s]
        # expected cost: own mixture over edges, counting self in the load
        cost = 0.0
        for e in (0, 1):
            qie = q[2 * i + e]
            cost += qie * (sv * (1.0 + (x[e] - qie)) + 1.0)
        return -cost

    def analytic_eq(probs):
        return EquilibriumSet.of_finite_list([
            (1.0, 0.0, 0.0, 1.0),
            (0.0, 1.0, 1.0, 0.0),
            (0.5, 0.5, 0.5, 0.5),
        ])

    return GameModel(
        name="two_route_congestion", n_players=n, space=space, kind="finite",
        boxes=[2] * n, obs_dim=n, likelihood_channels=tuple(range(n)),
        channel_mean_fn=channel_mean, sigmas=[[sigma] * n] * len(space),
        mean_payoff_fn=mean_payoff,
        analytic_eq=analytic_eq if n == 2 else None,
    )


def affine_game(alpha, beta, sigma, grid=None, true_grid_index=0):
    """Affine payoff family c_i = (q, 1) . s_i + eps_i on the box [0, 1]^n.

    alpha: (n, n) slope rows; beta: (n,) intercepts.  ``grid`` optionally
    supplies alternative (alpha, beta) vectors of length n^2 + n forming a
    finite parameter grid for MAP experiments; the truth is entry
    ``true_grid_index`` (which must reproduce alpha/beta).  The channel
    means sum each slope row times q left to right, then add the intercept.

    Every row must have a finite sum_j |alpha_ij| + |beta_i|, so that the
    channel means are finite everywhere on the box.

    Player i's expected payoff is linear in its own strategy, with slope
    m_i = sum over s of p_s alpha^s_ii (left to right), so its best response
    is the whole box when |m_i| (hi - lo) <= FLAT_TOL (canonical point: the
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
    # per grid entry: slope rows alpha^s_i and intercepts beta^s_i as floats
    rows = [[p[i * n:(i + 1) * n] for i in range(n)] for p in space.params]
    intercepts = [p[n * n:] for p in space.params]
    # |channel mean i| <= sum_j |alpha_ij| + |beta_i| on [0, 1]^n, and
    # rounding keeps the left-to-right sums within that bound
    for s, (a, b) in enumerate(zip(rows, intercepts)):
        for i, (a_i, b_i) in enumerate(zip(a, b)):
            bound = 0.0
            for a_ij in a_i:
                bound += abs(a_ij)
            if not math.isfinite(bound + abs(b_i)):
                raise ContractViolation(
                    "channel means must stay finite on [0, 1]^n: sum_j "
                    "|alpha_ij| + |beta_i| overflows in row %d of grid entry "
                    "%d" % (i, s))
    # own slopes alpha^s_ii, one column per player
    own_slopes = [[r[i][i] for r in rows] for i in range(n)]
    lo, hi = 0.0, 1.0

    def channel_mean(q):
        out = []
        for a, b in zip(rows, intercepts):
            means = []
            for a_i, b_i in zip(a, b):
                total = 0.0
                for a_ij, q_j in zip(a_i, q):
                    total += a_ij * q_j
                means.append(total + b_i)
            out.append(means)
        return out

    def mean_payoff(s, q, i):
        return _expect(q, rows[s][i]) + intercepts[s][i]

    def analytic_br(probs, i, q, current):
        m = _expect(probs, own_slopes[i])
        if abs(m) * (hi - lo) <= FLAT_TOL:
            return _interval_br(lo, hi, current)
        return (hi if m > 0.0 else lo,)

    return GameModel(
        name="affine", n_players=n, space=space, kind="continuous",
        boxes=[(lo, hi)] * n, obs_dim=n, likelihood_channels=tuple(range(n)),
        channel_mean_fn=channel_mean, sigmas=[[sigma] * n] * len(space),
        mean_payoff_fn=mean_payoff, analytic_br=analytic_br,
    )
