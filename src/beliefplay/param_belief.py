"""Parameter spaces, beliefs, Bayesian/MAP/OLS estimators and
belief-update schedules.

A belief is a probability vector, one entry per parameter.  `run` and the
estimators carry it as log probabilities (`log_belief`) because posterior
mass on distinguishable parameters decays exponentially over long horizons.
Exact zeros are represented by a -inf sentinel; there is no probability
floor.  One normaliser, `_normalize`, turns summed log scores into the
log probabilities and the probabilities: `log_belief`, `bayes_update`,
`map_update` and `run`'s update all go through it, so all of them raise
ContractViolation on a NaN or +inf score and ImpossibleObservation when
every score is -inf.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class ContractViolation(ValueError):
    """A documented precondition was violated."""


class ImpossibleObservation(RuntimeError):
    """Every parameter assigns zero likelihood to the batch (misspecification)."""


class Unidentifiable(RuntimeError):
    """Rank-deficient least-squares design."""

    def __init__(self, null_directions):
        self.null_directions = np.asarray(null_directions)
        super().__init__(
            "design matrix is rank deficient; null directions: %s"
            % np.array2string(self.null_directions, precision=6)
        )


@dataclass(frozen=True)
class ParameterSpace:
    """Finite set of parameter vectors with a designated true index."""

    params: tuple
    true_index: int

    def __post_init__(self):
        params = tuple(tuple(float(x) for x in np.atleast_1d(p)) for p in self.params)
        object.__setattr__(self, "params", params)
        if not params:
            raise ContractViolation("parameter set must be non-empty")
        dims = {len(p) for p in params}
        if len(dims) != 1:
            raise ContractViolation("parameter vectors must share one dimension")
        if not (0 <= self.true_index < len(params)):
            raise ContractViolation("true_index out of range")
        if len(set(params)) != len(params):
            raise ContractViolation("parameter vectors must be distinct")

    def __len__(self):
        return len(self.params)

    @property
    def dim(self):
        return len(self.params[0])

    def as_array(self):
        return np.asarray(self.params, dtype=float)


def _floats(x):
    """A flat list of floats; a list is taken to hold floats already."""
    if type(x) is list:
        return x
    return np.asarray(x, dtype=float).ravel().tolist()


def _check_length(probs, game):
    """Raise ContractViolation unless ``probs`` has one entry per parameter."""
    if len(probs) != len(game.space):
        raise ContractViolation("belief has %d entries, expected %d (one per "
                                "parameter)" % (len(probs), len(game.space)))


def _check_profile(q, game):
    """Raise ContractViolation unless the profile ``q`` has q_dim entries."""
    if len(q) != game.q_dim:
        raise ContractViolation("strategy profile has %d entries, expected %d"
                                % (len(q), game.q_dim))


def log_belief(probs):
    """The log probabilities (a list) of the belief proportional to
    ``probs``: log(p / total) by `np.log`, with the total summed left to
    right and -inf for a zero, then normalised by `_normalize`.  Finite
    weights whose total overflows are first scaled by a power of two, so
    that their largest lies in [0.5, 1); the scaling is exact unless a
    weight falls below the normal range.  A negative weight, and failing
    that a NaN or +inf one, raises ContractViolation."""
    p = _floats(probs)
    if any(x < 0.0 for x in p):
        raise ContractViolation("probabilities must be non-negative")
    if not all(map(math.isfinite, p)):  # +inf or NaN
        raise ContractViolation("probabilities must be finite")
    total = _total(p)
    if total == math.inf:
        shift = -math.frexp(max(p))[1]
        p = [math.ldexp(x, shift) for x in p]
        total = _total(p)
    if not total > 0:
        raise ContractViolation("probabilities must have positive mass")
    ratios = [x / total for x in p]
    # log(0) is -inf; np.log of a zero would warn
    logs = iter(np.log([r for r in ratios if r != 0.0]).tolist())
    return _normalize([NEG_INF if r == 0.0 else next(logs)
                       for r in ratios])[0]


def _total(xs):
    """sum_k xs[k], accumulated left to right."""
    total = 0.0
    for x in xs:
        total += x
    return total


def _expect(probs, values):
    """sum_s probs[s] * values[s], accumulated left to right."""
    total = 0.0
    for p, v in zip(probs, values):
        total += p * v
    return total


# np.exp is exactly 0.0 below this bound; the last input with a subnormal
# exp is -745.1332191019411
_EXP_UNDERFLOW = -746.0


def _shift_exp(lp):
    """The scores ``lp`` (a list of floats) shifted by their max, the exps of
    the shifted scores and the log of the exps' sum, built in one pass.  The
    sum runs left to right and its log is `math.log`, so the result does not
    depend on how many beliefs are normalised at once.  A NaN or +inf score
    raises ContractViolation; failing that, scores that are all -inf raise
    ImpossibleObservation.

    Each exp has the bits of `np.exp` of the list of shifted scores, but
    only a live score takes one, an `np.exp` of its Python float: the max
    (a shifted score of 0.0) gets 1.0, and a score below `_EXP_UNDERFLOW`
    gets 0.0.  Once the posterior has all but converged to a point mass, no
    `np.exp` is taken at all."""
    m = max(lp)
    if m == NEG_INF and all(x == NEG_INF for x in lp):
        raise ImpossibleObservation("all parameters carry zero probability")
    shifted = []
    exps = []
    total = 0.0
    for x in lp:
        x -= m
        if x < _EXP_UNDERFLOW:
            e = 0.0
        elif x == 0.0:
            e = 1.0
        elif x < 0.0:
            e = float(np.exp(x))
        else:
            # a NaN score, or a max of +inf or -inf, leaves a NaN here
            raise ContractViolation("log-probabilities must be finite or -inf")
        shifted.append(x)
        exps.append(e)
        total += e
    return shifted, exps, math.log(total)


def _normalize(lp):
    """The log-probabilities and the probabilities (two lists of floats) of
    the scores ``lp``: the shifted scores of `_shift_exp` less the log of
    their exps' sum, and the exps of those, with the bits of `np.exp` of the
    list and an `np.exp` only for a score at or above `_EXP_UNDERFLOW`.
    When the exps of the shifted scores sum to exactly one, as they do once
    the posterior is concentrated, the log of the sum is 0.0 and x - 0.0 ==
    x, so those exps are already the probabilities and the second pass is
    skipped."""
    shifted, exps, log_total = _shift_exp(lp)
    if log_total == 0.0:
        return shifted, exps
    log_probs = []
    probs = []
    for x in shifted:
        x -= log_total
        log_probs.append(x)
        probs.append(0.0 if x < _EXP_UNDERFLOW else float(np.exp(x)))
    return log_probs, probs


def log_likelihood(game, q, c, *, means=None):
    """log phi^s(c|q) under every parameter s: a list of |S| values.

    The one Gaussian kernel.  It reads the channel means at q under all
    parameters (`GameModel.channel_means`) and the game's sigma table, and
    sums the game's likelihood channels left to right.  A noiseless channel
    (sigma 0) is an atom at its mean: it adds 0 when c hits it and makes the
    value -inf otherwise.  ``c`` holds one value per channel, or one array of
    samples per likelihood channel; the values are then arrays of the same
    shape.  ``means``, when given, is taken as ``game.channel_means(q)``
    instead of working it out again.
    """
    if len(c) != game.obs_dim:
        raise ContractViolation(
            "observation has %d channels, expected %d" % (len(c), game.obs_dim)
        )
    if type(c) is not list and isinstance(c, np.ndarray) and c.ndim == 1:
        c = c.tolist()  # Python floats: the same arithmetic, less overhead
    if means is None:
        means = game.channel_means(q)
    channels = game.likelihood_channels
    out = []
    for mu, sig, log_sig in zip(means, game.sigmas, game.log_sigmas):
        total = 0.0
        for k in channels:
            s = sig[k]
            if s == 0.0:
                if isinstance(c[k], np.ndarray):
                    total = total + np.where(c[k] == mu[k], 0.0, NEG_INF)
                elif c[k] != mu[k]:
                    total = NEG_INF
                    break
                continue
            z = (c[k] - mu[k]) / s
            total += -0.5 * z * z - log_sig[k] - _HALF_LOG_2PI
        out.append(total)
    return out


def batch_log_likelihoods(belief_or_space, batch, game):
    """Accumulated log-likelihood of a batch of records under every
    parameter: a list of |S| floats.  A record is (q, c), or (q, c, means)
    with ``means`` equal to ``game.channel_means(q)``, which `run` has
    already worked out to sample c.  The first argument is unused."""
    acc = None
    for record in batch:
        ll = log_likelihood(game, record[0], record[1],
                            means=record[2] if len(record) > 2 else None)
        acc = ll if acc is None else [a + x for a, x in zip(acc, ll)]
    return [0.0] * len(game.space) if acc is None else acc


def bayes_update(belief, batch, game):
    """Posterior log probabilities given prior ones and a batch, a list of
    (q, c) records: theta(s) prop. to theta_prev(s) * prod_t phi^s(c^t|q^t),
    summed and normalised as `run` sums and normalises it."""
    if len(batch) == 0:
        raise ContractViolation("batch must be non-empty")
    prior = _floats(belief)
    _check_length(prior, game)
    return _normalize([lp + ll for lp, ll in zip(
        prior, batch_log_likelihoods(prior, batch, game))])[0]


def map_update(prior, batch, game):
    """The mode of `bayes_update`'s posterior, lowest index on ties: the
    parameter that `run` responds to with ``respond_to="map"``."""
    log_probs = bayes_update(prior, batch, game)
    return log_probs.index(max(log_probs))


# ---------------------------------------------------------------------------
# Update schedules


SCHEDULE_KINDS = ("every_stage", "fixed_batch", "geometric", "two_timescale")


def _is_count(x):
    """An integer >= 1 that is not a bool."""
    return (isinstance(x, numbers.Integral) and not isinstance(x, bool)
            and x >= 1)


@dataclass(frozen=True)
class UpdateSchedule:
    """The belief-update stages k_1 < k_2 < ..., as `next_update_stage`
    reads them: a frozen value with no clock, so one schedule may drive any
    number of runs.  ``batch_size`` is an integer >= 1, ``p`` a real number
    in (0, 1] and ``gap_fn`` a callable."""

    kind: str
    batch_size: int | None = None
    p: float | None = None
    gap_fn: object = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ContractViolation("unknown schedule kind %r" % (self.kind,))
        if self.kind == "fixed_batch" and not _is_count(self.batch_size):
            raise ContractViolation("fixed_batch needs an integer batch size "
                                    ">= 1, got %r" % (self.batch_size,))
        if self.kind == "geometric" and not (
                isinstance(self.p, numbers.Real)
                and not isinstance(self.p, bool) and 0.0 < self.p <= 1.0):
            raise ContractViolation("geometric needs a success probability in "
                                    "(0,1], got %r" % (self.p,))
        if self.kind == "two_timescale" and not callable(self.gap_fn):
            raise ContractViolation("two_timescale needs a gap function")

    @classmethod
    def every_stage(cls):
        return cls("every_stage")

    @classmethod
    def fixed_batch(cls, batch_size):
        return cls("fixed_batch", batch_size=batch_size)

    @classmethod
    def geometric(cls, p):
        return cls("geometric", p=p)

    @classmethod
    def two_timescale(cls, gap_fn):
        return cls("two_timescale", gap_fn=gap_fn)


def next_update_stage(schedule, k, n, rng=None):
    """The stage of update n + 1, given that update n came at stage k; before
    the first update, k = 1 and n = 0.  A geometric gap is one draw from
    ``rng``; a two_timescale gap is ``gap_fn(n + 1)``, which must be an
    integer >= 1."""
    kind = schedule.kind
    if kind == "every_stage":
        return k + 1
    if kind == "fixed_batch":
        return k + schedule.batch_size
    if kind == "geometric":
        if rng is None:
            raise ContractViolation("geometric schedule needs an RNG")
        return k + int(rng.geometric(schedule.p))
    gap = schedule.gap_fn(n + 1)
    if not _is_count(gap):
        raise ContractViolation("two_timescale gap must be an integer >= 1, "
                                "got %r" % (gap,))
    return k + int(gap)


# ---------------------------------------------------------------------------
# Least squares


def ols_solve(design, responses):
    """Per-player coefficient estimates s_i = (Q~'Q~)^-1 Q~'Y_i from the
    (n, q_dim + 1) design rows (q, 1) and the (n, n_players) payoffs."""
    design = np.asarray(design, dtype=float)
    responses = np.asarray(responses, dtype=float)
    if (design.ndim != 2 or responses.ndim != 2
            or responses.shape[0] != design.shape[0]):
        raise ContractViolation(
            "OLS needs (n, k) design rows and (n, players) responses, got "
            "shapes %s and %s" % (design.shape, responses.shape))
    if design.shape[0] == 0:
        raise Unidentifiable(np.eye(design.shape[1]))
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    rcond = 1e-10  # least singular-value ratio of a full-rank design
    if sv[0] == 0 or sv[-1] / sv[0] < rcond:
        null = vt[sv < sv[0] * rcond if sv[0] > 0 else slice(None)]
        raise Unidentifiable(null if len(null) else vt)
    coeffs, *_ = np.linalg.lstsq(design, responses, rcond=None)
    return coeffs.T  # shape (n_players, q_dim + 1)
