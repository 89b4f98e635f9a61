"""Coupled learning loop: scheduled Bayesian belief updates interleaved with
best-response strategy updates, trajectory recording, and the finite-game
fictitious-play variant.

`run` is the one stage loop.  Each stage realizes the profile, works out
the channel means at it once (`GameModel.channel_means`), samples the
payoffs from them, updates the belief when the schedule says so and applies
the strategy rule; the pending records keep the means, so the likelihood
reads them instead of working them out again.  The loop is float-native: it
carries the profile q, the belief probabilities and the payoffs c between
stages as lists of Python floats; numpy appears only in the normaliser's
`np.exp` and the finite games' action draws.  The trajectory rows live in
arrays allocated once per run, are written value by value through flat
views of them, and the convergence window compares two rows on those views.
A belief update normalises the log probabilities plus the batch's
log-likelihoods with `_normalize`, as `bayes_update` does, so a NaN score
raises ContractViolation at once.  It takes one scalar `np.exp` per
losing score at or above the exp's underflow point (see `_shift_exp`), and
as many again unless the shifted exps sum to exactly 1.0, as they do once
the posterior is concentrated; once every losing score lies below that
point it takes none.  The loop reads the game's geometry once per run.
Every kernel a stage calls follows the bit rule stated in `games`, and none
takes an `np.log`, so one replica's arithmetic is the same as it would be
inside a batch of replicas.  `run` reproduces the plain per-stage loop it
replaced bit for bit (pinned by an exact-equality test).

`_map_replicas` is the one way to run many independent replicas: it
spreads them over the CPUs this process may use, in forked workers, and
returns their results in job order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .games import best_response, sample_payoffs, tied_actions
from .param_belief import (
    NEG_INF,
    ContractViolation,
    _check_length,
    _check_profile,
    _normalize,
    _total,
    batch_log_likelihoods,
    log_belief,
    next_update_stage,
)

CONV_WINDOW = 500
CONV_TOL = 1e-5
RULE_KINDS = ("simultaneous", "sequential", "linear", "fictitious_play")


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


def _apply_rule(game, rule, slices, probs, q, t, profile):
    """Produce q^{t+1} from q^t under the (already updated) belief
    probabilities; fictitious play averages in the realized profile."""
    kind = rule.kind
    if kind == "fictitious_play":
        # empirical frequency of realized actions
        return [(t * x + p) / (t + 1.0) for x, p in zip(q, profile)]
    if kind == "sequential":
        i = (t - 1) % game.n_players
        sl = slices[i]
        out = list(q)
        out[sl] = best_response(game, probs, i, q, q[sl])
        return out
    if kind == "simultaneous":
        br = []
        for i, sl in enumerate(slices):
            br += best_response(game, probs, i, q, q[sl])
        return br
    alpha = rule.alpha_schedule(t)
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


def _within(flat, a, b, n, tol):
    """Whether |flat[a + j] - flat[b + j]| < tol for j < n; a NaN is not."""
    for j in range(n):
        if not abs(flat[a + j] - flat[b + j]) < tol:
            return False
    return True


def run(game, rule, schedule, init, horizon, seed, stop_when_converged=False,
        respond_to="posterior"):
    """Run the learning dynamics; deterministic given the seed.

    ``init`` is (theta1, q1): a full-support probability vector, one entry
    per parameter, and a profile.  Convergence is declared when over the
    last `CONV_WINDOW` stages every strategy step is below `CONV_TOL` (max
    norm) and the belief moved less than `CONV_TOL` across the window, both
    read at call time.  Strategies respond to the posterior or, with
    ``respond_to="map"``, to its mode.
    """
    theta1, q0 = init
    if horizon < 1:
        raise ContractViolation("horizon must be >= 1")
    if respond_to not in ("posterior", "map"):
        raise ContractViolation("unknown respond_to %r" % (respond_to,))
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
    # flat float views of the rows: one item assignment per value costs
    # less than converting a list for a numpy row assignment
    theta_flat = memoryview(thetas).cast("B").cast("d")
    log_flat = memoryview(log_thetas).cast("B").cast("d")
    q_flat = memoryview(qs).cast("B").cast("d")
    c_flat = memoryview(cs).cast("B").cast("d")

    slices = game.slices
    true_index = game.space.true_index
    fictitious = rule.kind == "fictitious_play"
    respond_map = respond_to == "map"
    probs = np.exp(log_probs).tolist()
    pending = []
    last_big_move = 0  # last stage with a strategy step >= CONV_TOL
    converged = False
    t_stop = horizon

    for t in range(1, horizon + 1):
        if len(q) != n_q:
            _check_profile(q, game)
        k = (t - 1) * n_s
        for x, lx in zip(probs, log_probs):
            theta_flat[k] = x
            log_flat[k] = lx
            k += 1
        k = (t - 1) * n_q
        for x in q:
            q_flat[k] = x
            k += 1
        if acts is not None:
            profile, acts[t - 1] = _realized_profile(game, slices, fictitious,
                                                     probs, q, rng)
        else:
            profile = q
        means = game.channel_means(profile)
        c = sample_payoffs(game, true_index, profile, rng, means=means)
        if len(c) != n_c:
            raise ContractViolation("observation has %d channels, expected "
                                    "%d" % (len(c), n_c))
        k = (t - 1) * n_c
        for x in c:
            c_flat[k] = x
            k += 1
        pending.append((profile, c, means))
        if t + 1 == next_k:
            scores = batch_log_likelihoods(None, pending, game)
            summed = []
            for lp, ll in zip(log_probs, scores):
                summed.append(lp + ll)
            log_probs, probs = _normalize(summed)
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
        q_next = _apply_rule(game, rule, slices, respond, q, t, profile)
        for a, b in zip(q_next, q):
            if abs(a - b) >= CONV_TOL:
                last_big_move = t
                break
        q = q_next
        if (
            not converged
            and t >= CONV_WINDOW + 1
            and t - last_big_move >= CONV_WINDOW
            and _within(theta_flat, (t - 1) * n_s, (t - 1 - CONV_WINDOW) * n_s,
                        n_s, CONV_TOL)
        ):
            converged = True
            t_stop = t
            if stop_when_converged:
                thetas = thetas[:t]
                log_thetas = log_thetas[:t]
                qs = qs[:t]
                cs = cs[:t]
                upd = upd[:t]
                if acts is not None:
                    acts = acts[:t]
                break

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
