"""Coupled learning loop: scheduled Bayesian belief updates interleaved with
best-response strategy updates, trajectory recording, and the finite-game
fictitious-play variant.

`run` is the one stage loop.  Each stage realizes the profile, works out
the channel means at it once (`GameModel.channel_means`), samples the
payoffs from them, updates the belief when the schedule says so and applies
the strategy rule; the pending records keep the means, so the likelihood
reads them instead of working them out again.  The loop is float-native: it
carries the profile q, the belief probabilities and the payoffs c between
stages as lists of Python floats.  What stays the same from stage to stage
is worked out once per run: the geometry, the rule's step (`_rule_step`)
and, when nothing else in a stage reads the rng (a continuous game, or
fictitious play, under any schedule but the geometric one), the payoff
noise, drawn `NOISE_BLOCK` stages at a time (`_noise_rows`) and handed to
`sample_payoffs`.  numpy appears in the normaliser's `np.exp`, those block
draws, the finite games' action draws and the trajectory rows: each
stage's values go into flat lists, which are copied into arrays allocated
once per run every `FLUSH_ROWS` stages (at most half of `CONV_WINDOW`), on
an early stop and at the end, so the convergence window always compares
the current belief with a copied row and the lists never outgrow a block.
A belief update normalises the log probabilities plus the batch's
log-likelihoods with `_normalize`, as `bayes_update` does, so a NaN score
raises ContractViolation at once.  It takes one scalar `np.exp` per
losing score at or above the exp's underflow point (see `_shift_exp`), and
as many again unless the shifted exps sum to exactly 1.0, as they do once
the posterior is concentrated; once every losing score lies below that
point it takes none.  Every kernel a stage calls follows the bit rule
stated in `games`, and none takes an `np.log`, so one replica's arithmetic
is the same as it would be inside a batch of replicas.  `run` reproduces
the plain per-stage loop it replaced bit for bit (pinned by an
exact-equality test).

`_map_replicas` is the one way to run many independent replicas: it
spreads them over the CPUs this process may use, in forked workers, and
returns their results in job order.
"""

from __future__ import annotations

import itertools
import numbers
import os
from dataclasses import dataclass, field
from operator import add

import numpy as np

from .games import best_response, sample_payoffs, tied_actions
from .param_belief import (
    NEG_INF,
    ContractViolation,
    _check_length,
    _check_profile,
    _is_count,
    _normalize,
    _total,
    batch_log_likelihoods,
    log_belief,
    next_update_stage,
)

CONV_WINDOW = 500
CONV_TOL = 1e-5
RULE_KINDS = ("simultaneous", "sequential", "linear", "fictitious_play")
# stages of noise drawn by one rng call; a block draw releases the GIL, and
# releases less than the switch interval (5 ms) apart keep a thread waiting
# for the GIL from ever taking it, so a block spans several times that
NOISE_BLOCK = 4096
FLUSH_ROWS = 128  # most stages whose rows wait in lists for the arrays


@dataclass(frozen=True)
class UpdateRule:
    """Strategy update rule: one of RULE_KINDS; linear carries a stepsize
    schedule, a callable t -> alpha^t (1/t by default)."""

    kind: str
    alpha_schedule: object = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ContractViolation("unknown update rule %r" % self.kind)
        if self.kind == "linear" and self.alpha_schedule is None:
            object.__setattr__(self, "alpha_schedule", lambda t: 1.0 / t)
        if self.alpha_schedule is not None and not callable(self.alpha_schedule):
            raise ContractViolation("alpha_schedule must be callable, got %r"
                                    % (self.alpha_schedule,))

    @classmethod
    def simultaneous(cls):
        return cls("simultaneous")

    @classmethod
    def sequential(cls):
        return cls("sequential")

    @classmethod
    def linear(cls, alpha_schedule=None):
        return cls("linear", alpha_schedule=alpha_schedule)

    @classmethod
    def fictitious_play(cls):
        return cls("fictitious_play")


@dataclass
class Trajectory:
    """Per-stage record of the learning dynamics plus a terminal summary."""

    thetas: np.ndarray  # (T, |S|)
    log_thetas: np.ndarray  # (T, |S|); np.exp(log_thetas) is thetas
    qs: np.ndarray  # (T, q_dim)
    cs: np.ndarray  # (T, obs_dim)
    updated: np.ndarray  # (T,) bool
    actions: np.ndarray | None  # (T, n_players) ints, finite games only
    summary: dict = field(default_factory=dict)

    @property
    def horizon(self):
        return self.thetas.shape[0]


def _realized_profile(game, slices, fictitious, probs, q, rng):
    """Finite games: the one-hot action profile at which payoffs realize this
    stage, and the actions.  Actions are drawn from the mixed strategy,
    except under fictitious play where each player best responds (lowest
    index on ties) to the opponents' empirical frequencies under ``probs``.
    """
    out = [0.0] * len(q)
    actions = []
    for i, sl in enumerate(slices):
        if fictitious:
            a = tied_actions(game, probs, i, q)[0]
        else:
            block = q[sl]
            top = max(block)
            if top > 1.0 - 1e-12:
                a = block.index(top)
            else:
                a = int(rng.choice(len(block),
                                   p=np.asarray(block) / _total(block)))
        actions.append(a)
        out[sl.start + a] = 1.0
    return out, tuple(actions)


def _rule_step(game, rule):
    """The strategy update of ``rule`` on ``game``, resolved once per run: a
    function (probs, q, t, profile) -> q^{t+1} of the (already updated)
    belief probabilities, the profile q^t, the stage t and the realized
    profile, all lists of floats; fictitious play averages in the realized
    profile.  The best responses go through the module's `best_response`."""
    slices = game.slices
    kind = rule.kind
    if kind == "fictitious_play":
        def step(probs, q, t, profile):
            # empirical frequency of realized actions
            return [(t * x + p) / (t + 1.0) for x, p in zip(q, profile)]
    elif kind == "sequential":
        n_players = game.n_players

        def step(probs, q, t, profile):
            i = (t - 1) % n_players
            sl = slices[i]
            out = list(q)
            out[sl] = best_response(game, probs, i, q, q[sl])
            return out
    elif kind == "simultaneous":
        def step(probs, q, t, profile):
            br = []
            for i, sl in enumerate(slices):
                br += best_response(game, probs, i, q, q[sl])
            return br
    else:
        alpha_at = rule.alpha_schedule

        def step(probs, q, t, profile):
            alpha = alpha_at(t)
            if type(alpha) is not float:
                alpha = float(alpha)
            if not 0.0 <= alpha <= 1.0:
                raise ContractViolation("linear stepsize must lie in [0, 1]")
            keep = 1.0 - alpha
            out = []
            for i, sl in enumerate(slices):
                block = q[sl]
                for x, b in zip(block, best_response(game, probs, i, q, block)):
                    out.append(keep * x + alpha * b)
            return out
    return step


def _noise_rows(rng, width, horizon):
    """The stage noise of a run whose stages read nothing else from ``rng``,
    as an iterator: one row of ``width`` standard normals per stage, a tuple
    of floats, drawn `NOISE_BLOCK` stages at a time when the iterator
    reaches them.  The rows hold the values, in the order, that one draw per
    channel per stage takes from the same stream."""
    return itertools.chain.from_iterable(
        zip(*[iter(rng.standard_normal(
            min(NOISE_BLOCK, horizon - start) * width).tolist())] * width)
        for start in range(0, horizon, NOISE_BLOCK))


def _within(row, flat, b, tol):
    """Whether |row[j] - flat[b + j]| < tol for every entry of ``row``; a NaN
    is not."""
    for x in row:
        if not abs(x - flat[b]) < tol:
            return False
        b += 1
    return True


def _is_seed(x):
    """An integer >= 0 that is not a bool."""
    return (isinstance(x, numbers.Integral) and not isinstance(x, bool)
            and x >= 0)


def run(game, rule, schedule, init, horizon, seed, stop_when_converged=False,
        respond_to="posterior"):
    """Run the learning dynamics; deterministic given the seed.

    ``init`` is (theta1, q1): a full-support probability vector, one entry
    per parameter, and a profile.  ``horizon`` is an integer >= 1 and
    ``seed`` an integer >= 0 (bools are rejected).  Convergence is declared
    when over the last `CONV_WINDOW` stages every strategy step is below
    `CONV_TOL` (max norm) and the belief moved less than `CONV_TOL` across
    the window, both read at call time.  Strategies respond to the posterior
    or, with ``respond_to="map"``, to its mode.
    """
    if not _is_count(horizon):
        raise ContractViolation("horizon must be an integer >= 1, got %r"
                                % (horizon,))
    if not _is_seed(seed):
        raise ContractViolation("seed must be an integer >= 0, got %r"
                                % (seed,))
    if respond_to not in ("posterior", "map"):
        raise ContractViolation("unknown respond_to %r" % (respond_to,))
    theta1, q0 = init
    log_probs = log_belief(theta1)
    _check_length(log_probs, game)
    if NEG_INF in log_probs:
        raise ContractViolation("initial belief must have full support")
    q = np.asarray(q0, dtype=float).tolist()
    if len(q) != game.q_dim:
        raise ContractViolation("initial strategy has %d entries, expected %d"
                                % (len(q), game.q_dim))
    if not game.feasible(q):
        raise ContractViolation("initial strategy outside the strategy set")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_updates = 0
    next_k = next_update_stage(schedule, 1, n_updates, rng)

    n_s, n_q, n_c = len(game.space), game.q_dim, game.obs_dim
    thetas = np.empty((horizon, n_s))
    log_thetas = np.empty((horizon, n_s))
    qs = np.empty((horizon, n_q))
    cs = np.empty((horizon, n_c))
    upd = np.zeros(horizon, dtype=bool)
    acts = np.empty((horizon, game.n_players), dtype=np.int64) \
        if game.kind == "finite" else None
    # the rows of the last stages are kept in flat lists and copied into the
    # arrays every `flush_every` stages; the window test reads a row
    # `CONV_WINDOW` >= 2 * flush_every stages back, which is always copied
    window, tol = CONV_WINDOW, CONV_TOL
    flush_every = max(1, min(FLUSH_ROWS, window // 2))
    theta_buf, log_buf, q_buf, c_buf = buffers = ([], [], [], [])
    arrays = (thetas, log_thetas, qs, cs)
    theta_flat = memoryview(thetas).cast("B").cast("d")
    flushed = 0  # stages whose rows are in the arrays

    slices = game.slices
    true_index = game.space.true_index
    fictitious = rule.kind == "fictitious_play"
    respond_map = respond_to == "map"
    step = _rule_step(game, rule)
    # the noise is drawn in blocks when nothing else in a stage reads the
    # rng: no action draws and no geometric gaps
    noise = itertools.repeat(None)
    if (acts is None or fictitious) and schedule.kind != "geometric":
        loadings = game.noise_loadings
        noise = _noise_rows(rng, n_c if loadings is None else len(loadings[0]),
                            horizon)
    probs = np.exp(log_probs).tolist()
    pending = []
    last_big_move = 0  # last stage with a strategy step >= CONV_TOL
    converged = False
    t_stop = horizon

    for t in range(1, horizon + 1):
        if len(q) != n_q:
            _check_profile(q, game)
        row = probs
        theta_buf += probs
        log_buf += log_probs
        q_buf += q
        if acts is not None:
            profile, acts[t - 1] = _realized_profile(game, slices, fictitious,
                                                     probs, q, rng)
        else:
            profile = q
        means = game.channel_means(profile)
        c = sample_payoffs(game, true_index, profile, rng, means=means,
                           noise=next(noise))
        if len(c) != n_c:
            raise ContractViolation("observation has %d channels, expected "
                                    "%d" % (len(c), n_c))
        c_buf += c
        pending.append((profile, c, means))
        if t + 1 == next_k:
            scores = batch_log_likelihoods(None, pending, game)
            log_probs, probs = _normalize(list(map(add, log_probs, scores)))
            pending = []
            n_updates += 1
            next_k = next_update_stage(schedule, next_k, n_updates, rng)
            upd[t - 1] = True
        # fictitious play responds to the pre-update belief via its realized
        # actions; the other rules respond to the freshest belief
        if respond_map:
            respond = [0.0] * n_s
            respond[log_probs.index(max(log_probs))] = 1.0
        else:
            respond = probs
        q_next = step(respond, q, t, profile)
        for a, b in zip(q_next, q):
            if abs(a - b) >= tol:
                last_big_move = t
                break
        q = q_next
        if t - flushed == flush_every:
            _flush(buffers, arrays, flushed, t)
            flushed = t
        if (
            not converged
            and t >= window + 1
            and t - last_big_move >= window
            and _within(row, theta_flat, (t - 1 - window) * n_s, tol)
        ):
            converged = True
            t_stop = t
            if stop_when_converged:
                break
    _flush(buffers, arrays, flushed, t)
    if t < horizon:  # an early stop
        thetas = thetas[:t]
        log_thetas = log_thetas[:t]
        qs = qs[:t]
        cs = cs[:t]
        upd = upd[:t]
        if acts is not None:
            acts = acts[:t]

    cycle = _detect_cycle(qs) if not converged else None
    summary = {
        "converged": bool(converged),
        "t_stop": int(t_stop if converged else thetas.shape[0]),
        "final_theta": probs,
        "final_q": q,
        "seed": int(seed),
        "rule": rule.kind,
        "schedule": schedule.kind,
        "game": game.name,
    }
    if cycle is not None:
        summary["cycle_detected"] = True
        summary["cycle_period"] = int(cycle)
    # an update marked at row i takes effect at stage i + 2
    summary["update_stages"] = (np.flatnonzero(upd) + 2).tolist()
    return Trajectory(thetas=thetas, log_thetas=log_thetas, qs=qs, cs=cs,
                      updated=upd, actions=acts, summary=summary)


def _flush(buffers, arrays, start, end):
    """Copy the rows of stages start + 1..end, held flat in ``buffers``, into
    rows start..end - 1 of ``arrays``, and empty the buffers."""
    for buf, arr in zip(buffers, arrays):
        width = arr.shape[1]
        arr.reshape(-1)[start * width:end * width] = buf
        buf.clear()


def _detect_cycle(qs, max_period=8, min_repeats=4):
    """Smallest period p >= 2 with exact repetition over the trailing window."""
    T = qs.shape[0]
    for p in range(2, max_period + 1):
        need = p * min_repeats
        if T < need + p:
            continue
        tail = qs[T - need:]
        if np.array_equal(tail[:-p], qs[T - need + p:]) and not np.array_equal(
            tail[:-1], qs[T - need + 1:]
        ):
            # rule out any smaller period dividing p
            smaller = any(
                np.array_equal(tail[:-d], qs[T - need + d:])
                for d in range(1, p)
            )
            if not smaller:
                return p
    return None


def replica_seed(master_seed, replica_index):
    """Deterministic per-replica seed derived from a master seed."""
    return int(
        np.random.SeedSequence(master_seed, spawn_key=(replica_index,))
        .generate_state(1)[0]
    )


def _usable_cpus():
    """The number of CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_worker_fn = None  # set in each forked replica worker


def _init_worker(fn):
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(k):
    return _worker_fn(k)


def _map_replicas(fn, n):
    """``[fn(0), ..., fn(n - 1)]``, with the jobs spread over the usable CPUs.

    Each job must depend only on its index (its own seeded stream), so the
    results do not depend on where it runs.  With P = min(n, usable CPUs)
    >= 2 and the fork start method available, this process runs the jobs
    k = 0, P, 2P, ... and P - 1 forked workers run the rest.  ``fn`` reaches
    the workers through the fork and need not pickle; job indices and
    results are pickled.  If jobs fail, the exception of the lowest failing
    index is raised, as the serial loop would raise it.  The workers are
    joined before this returns or raises.
    """
    n_proc = min(n, _usable_cpus())
    if n_proc < 2:
        return [fn(k) for k in range(n)]
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(k) for k in range(n)]
    from concurrent.futures import ProcessPoolExecutor

    results = [None] * n
    failed, error = n, None  # lowest failing index and its exception
    pool = ProcessPoolExecutor(
        max_workers=n_proc - 1, mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker, initargs=(fn,))
    try:
        futures = {k: pool.submit(_call_worker_fn, k)
                   for k in range(n) if k % n_proc}
        for k in range(0, n, n_proc):
            try:
                results[k] = fn(k)
            except Exception as exc:
                failed, error = k, exc
                break
        for k, future in futures.items():  # in job order
            if k > failed:
                break
            try:
                results[k] = future.result()
            except Exception as exc:
                failed, error = k, exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if error is not None:
        raise error
    return results


# ---------------------------------------------------------------------------
# Export


_CSV_BLOCK = 256  # rows converted to Python floats at once


def trajectory_to_csv(traj, path, config_hash=None, master_seed=None):
    """CSV columns: t, theta_*, q_flat..., c_flat..., updated; 17 significant
    digits, '\\n' line endings; metadata comment header.  Each row is one
    format call on Python floats, which gives the digits of
    format(float(x), ".17g")."""
    n_s = traj.thetas.shape[1]
    n_q = traj.qs.shape[1]
    n_c = traj.cs.shape[1]
    cols = (
        ["t"]
        + ["theta_%d" % i for i in range(n_s)]
        + ["q_%d" % i for i in range(n_q)]
        + ["c_%d" % i for i in range(n_c)]
        + ["updated"]
    )
    lines = []
    if config_hash is not None or master_seed is not None:
        lines.append("# config_hash=%s master_seed=%s" % (config_hash, master_seed))
    lines.append(",".join(cols))
    row = ",".join(["%d"] + ["%.17g"] * (n_s + n_q + n_c) + ["%d"])
    # a block of rows at a time, so that the Python floats never outweigh
    # the lines
    for start in range(0, traj.horizon, _CSV_BLOCK):
        end = start + _CSV_BLOCK
        for t, (theta, q, c, updated) in enumerate(zip(
                traj.thetas[start:end].tolist(), traj.qs[start:end].tolist(),
                traj.cs[start:end].tolist(), traj.updated[start:end].tolist()),
                start=start + 1):
            lines.append(row % (t, *theta, *q, *c, updated))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
