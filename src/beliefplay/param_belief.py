"""Parameter spaces, simplex beliefs, Bayesian/MAP/OLS estimators and
belief-update schedules.

Beliefs are stored in log-space (normalized with log-sum-exp) because
posterior mass on distinguishable parameters decays exponentially over long
horizons.  Exact zeros are represented by a -inf sentinel; there is no
probability floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    labels: tuple | None = None

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
        if self.labels is not None and len(self.labels) != len(params):
            raise ContractViolation("labels length mismatch")

    def __len__(self):
        return len(self.params)

    @property
    def dim(self):
        return len(self.params[0])

    def as_array(self):
        return np.asarray(self.params, dtype=float)


@dataclass(frozen=True)
class Belief:
    """Probability vector on a ParameterSpace, canonical storage in log-space."""

    log_probs: tuple

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=float)
        if lp.size == 0:
            raise ContractViolation("belief must have at least one entry")
        if np.any(np.isnan(lp)) or np.any(lp == np.inf):
            raise ContractViolation("log-probabilities must be finite or -inf")
        # normalize so exp sums to 1
        lp = _log_normalize(lp)
        object.__setattr__(self, "log_probs", tuple(lp.tolist()))

    @classmethod
    def from_probs(cls, probs):
        p = np.asarray(probs, dtype=float)
        if np.any(p < 0):
            raise ContractViolation("probabilities must be non-negative")
        total = p.sum()
        if not total > 0:
            raise ContractViolation("probabilities must have positive mass")
        with np.errstate(divide="ignore"):
            return cls(tuple(np.log(p / total).tolist()))

    @classmethod
    def uniform(cls, n):
        return cls.from_probs(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n, idx):
        p = np.zeros(n)
        p[idx] = 1.0
        return cls.from_probs(p)

    @property
    def probs(self):
        return np.exp(np.asarray(self.log_probs, dtype=float))

    @property
    def support(self):
        return tuple(i for i, lp in enumerate(self.log_probs) if lp != NEG_INF)

    def full_support(self):
        return all(lp != NEG_INF for lp in self.log_probs)

    def __len__(self):
        return len(self.log_probs)


def _log_normalize(lp):
    m = lp.max()
    if m == NEG_INF:
        raise ImpossibleObservation("all parameters carry zero probability")
    shifted = lp - m
    return shifted - math.log(np.exp(shifted).sum())


@dataclass
class ObservationBatch:
    """Strategy/payoff records collected between consecutive update stages."""

    records: list = field(default_factory=list)

    def append(self, q, c):
        self.records.append((np.asarray(q, dtype=float), np.asarray(c, dtype=float)))

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def log_likelihood(space, s_idx, game, q, c):
    """log phi^s(c|q) for the game's observed channels; -inf on a zero-density
    observation (degenerate channel mismatch)."""
    if not (0 <= s_idx < len(space)):
        raise ContractViolation("parameter index out of range")
    c = np.asarray(c, dtype=float)
    if c.shape != (game.obs_dim,):
        raise ContractViolation(
            "observation has dimension %s, expected %d" % (c.shape, game.obs_dim)
        )
    # Python floats: the same IEEE arithmetic as numpy scalars, less overhead
    c = c.tolist()
    mu = np.asarray(game.channel_means(s_idx, q), dtype=float).tolist()
    sig = np.asarray(game.channel_sigmas(s_idx), dtype=float).tolist()
    total = 0.0
    for k in game.likelihood_channels:
        s = sig[k]
        if s == 0.0:
            if c[k] != mu[k]:
                return NEG_INF
            # degenerate channel observed exactly at its atom
            continue
        z = (c[k] - mu[k]) / s
        total += -0.5 * z * z - math.log(s) - _HALF_LOG_2PI
    return total


def batch_log_likelihoods(belief_or_space, batch, game):
    """Accumulated log-likelihood of a batch for every parameter (vector)."""
    space = game.space
    acc = [0.0] * len(space)
    for q, c in batch:
        for s, total in enumerate(acc):
            if total != NEG_INF:
                acc[s] = total + log_likelihood(space, s, game, q, c)
    return np.asarray(acc)


def _posterior_scores(prior, batch, game):
    """Unnormalized log-posterior: log prior(s) + sum_t log phi^s(c^t|q^t)."""
    if len(batch) == 0:
        raise ContractViolation("batch must be non-empty")
    scores = np.asarray(prior.log_probs, dtype=float) + batch_log_likelihoods(
        prior, batch, game
    )
    if np.max(scores) == NEG_INF:
        raise ImpossibleObservation("all parameters carry zero likelihood")
    return scores


def bayes_update(belief, batch, game):
    """Posterior over parameters given a batch: theta(s) prop. to
    theta_prev(s) * prod_t phi^s(c^t|q^t), in log-space."""
    # Belief normalizes the scores; normalizing here too would round twice
    return Belief(tuple(_posterior_scores(belief, batch, game).tolist()))


def map_update(space, prior, batch, game):
    """argmax_s prior(s) * prod phi^s(c|q), lowest index on ties."""
    return int(np.argmax(_posterior_scores(prior, batch, game)))


# ---------------------------------------------------------------------------
# Update schedules


class UpdateSchedule:
    """Generator of strictly increasing belief-update stages k_1 < k_2 < ...

    Holds a mutable counter; each run should own a fresh clone.
    """

    def __init__(self, kind, batch_size=None, p=None, gap_fn=None):
        if kind not in ("every_stage", "fixed_batch", "geometric", "two_timescale"):
            raise ContractViolation("unknown schedule kind %r" % kind)
        if kind == "fixed_batch" and (batch_size is None or batch_size < 1):
            raise ContractViolation("fixed_batch needs a positive batch size")
        if kind == "geometric" and not (p is not None and 0.0 < p <= 1.0):
            raise ContractViolation("geometric needs a success probability in (0,1]")
        if kind == "two_timescale" and gap_fn is None:
            raise ContractViolation("two_timescale needs a gap function")
        self.kind = kind
        self.batch_size = batch_size
        self.p = p
        self.gap_fn = gap_fn
        self.last_k = 1
        self.t_index = 0  # number of updates generated so far

    @classmethod
    def every_stage(cls):
        return cls("every_stage")

    @classmethod
    def fixed_batch(cls, batch_size):
        return cls("fixed_batch", batch_size=int(batch_size))

    @classmethod
    def geometric(cls, p):
        return cls("geometric", p=float(p))

    @classmethod
    def two_timescale(cls, gap_fn):
        return cls("two_timescale", gap_fn=gap_fn)

    def clone(self):
        fresh = UpdateSchedule(
            self.kind, batch_size=self.batch_size, p=self.p, gap_fn=self.gap_fn
        )
        return fresh


def next_update_stage(schedule, rng=None):
    """Advance the schedule and return the next update stage k_{t+1}."""
    schedule.t_index += 1
    if schedule.kind == "every_stage":
        gap = 1
    elif schedule.kind == "fixed_batch":
        gap = schedule.batch_size
    elif schedule.kind == "geometric":
        if rng is None:
            raise ContractViolation("geometric schedule needs an RNG")
        gap = int(rng.geometric(schedule.p))
    else:  # two_timescale
        gap = int(schedule.gap_fn(schedule.t_index))
        if gap < 1:
            raise ContractViolation("two_timescale gap must be >= 1")
    schedule.last_k += gap
    return schedule.last_k


# ---------------------------------------------------------------------------
# Online OLS


class OlsState:
    """Running least-squares state over design rows (q, 1).

    Persistent value: ols_ingest returns a new state sharing the append-only
    row buffer, so accumulation is O(1) per record without mutation semantics.
    """

    def __init__(self, q_dim, n_players):
        self.q_dim = int(q_dim)
        self.n_players = int(n_players)
        self._rows = []  # shared append-only buffer
        self._responses = []  # rows of per-player payoffs
        self.n_records = 0

    def _snapshot(self):
        out = OlsState(self.q_dim, self.n_players)
        out._rows = self._rows
        out._responses = self._responses
        out.n_records = self.n_records
        return out

    @property
    def design_rows(self):
        return np.asarray(self._rows[: self.n_records], dtype=float).reshape(
            self.n_records, self.q_dim + 1
        )

    @property
    def response_columns(self):
        return np.asarray(self._responses[: self.n_records], dtype=float).reshape(
            self.n_records, self.n_players
        ).T


def ols_ingest(state, q, c):
    """Append one record: design row (q, 1) and per-player payoffs c."""
    q = np.atleast_1d(np.asarray(q, dtype=float)).ravel()
    c = np.atleast_1d(np.asarray(c, dtype=float)).ravel()
    if q.size != state.q_dim or c.size != state.n_players:
        raise ContractViolation("OLS record dimension mismatch")
    row = np.concatenate([q, [1.0]])
    out = state._snapshot()
    if len(out._rows) != out.n_records:
        # the shared buffer diverged (ingest on a non-tip state): copy
        out._rows = list(out._rows[: out.n_records])
        out._responses = list(out._responses[: out.n_records])
    out._rows.append(row)
    out._responses.append(c)
    out.n_records += 1
    return out


def ols_solve(state, rcond_threshold=1e-10):
    """Per-player coefficient estimates s_i = (Q~'Q~)^-1 Q~'Y_i."""
    if state.n_records == 0:
        raise Unidentifiable(np.eye(state.q_dim + 1))
    design = state.design_rows
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    if sv[0] == 0 or sv[-1] / sv[0] < rcond_threshold:
        null = vt[sv < sv[0] * rcond_threshold if sv[0] > 0 else slice(None)]
        raise Unidentifiable(null if len(null) else vt)
    coeffs, *_ = np.linalg.lstsq(design, state.response_columns.T, rcond=None)
    return coeffs.T  # shape (n_players, q_dim + 1)
