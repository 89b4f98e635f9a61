"""Coupled learning loop: scheduled Bayesian belief updates interleaved with
best-response strategy updates, trajectory recording, and the finite-game
fictitious-play variant.

The hot loop (`run`) and the public single-step operation (`step`) play each
stage through one stage function (`_stage_fn`), so they are behaviorally
identical.  It computes exp(log_probs) once per belief update and reads the
game's geometry once per run, and its arithmetic is the same, operation for
operation, as the plain per-stage loop it replaced: `run` reproduces that
loop's trajectories bit for bit (pinned by an exact-equality test).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .games import best_response, sample_payoffs
from .param_belief import (
    Belief,
    ContractViolation,
    ObservationBatch,
    _log_normalize,
    batch_log_likelihoods,
    next_update_stage,
)

CONV_WINDOW = 500
CONV_TOL = 1e-5


@dataclass(frozen=True)
class UpdateRule:
    """Strategy update rule: simultaneous, sequential, linear or
    fictitious_play; linear carries a stepsize schedule t -> alpha^t."""

    kind: str
    alpha_schedule: object = None

    def __post_init__(self):
        if self.kind not in ("simultaneous", "sequential", "linear",
                             "fictitious_play"):
            raise ContractViolation("unknown update rule %r" % self.kind)
        if self.kind == "linear" and self.alpha_schedule is None:
            object.__setattr__(self, "alpha_schedule", lambda t: 1.0 / t)

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
class LearnerState:
    t: int
    belief: Belief
    strategy: np.ndarray
    pending: ObservationBatch
    next_k: int
    last_obs: np.ndarray | None = None
    last_updated: bool = False
    last_actions: tuple | None = None


@dataclass
class Trajectory:
    """Per-stage record of the learning dynamics plus a terminal summary."""

    thetas: np.ndarray  # (T, |S|)
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
    out = np.zeros_like(q)
    actions = []
    for i, sl in enumerate(slices):
        if fictitious:
            a = best_response(game, probs, i, q).tied_actions[0]
        else:
            block = q[sl]
            if block.max() > 1.0 - 1e-12:
                a = int(block.argmax())
            else:
                a = int(rng.choice(block.size, p=block / block.sum()))
        actions.append(a)
        out[sl.start + a] = 1.0
    return out, tuple(actions)


def _apply_rule(game, rule, slices, probs, q, t, profile):
    """Produce q^{t+1} from q^t under the (already updated) belief
    probabilities; fictitious play averages in the realized profile."""
    kind = rule.kind
    if kind == "fictitious_play":
        # empirical frequency of realized actions
        return (t * q + profile) / (t + 1.0)
    if kind == "sequential":
        i = (t - 1) % game.n_players
        sl = slices[i]
        out = q.copy()
        out[sl] = best_response(game, probs, i, q, current=q[sl]).point
        return out
    if kind == "linear":
        alpha = float(rule.alpha_schedule(t))
        if not 0.0 <= alpha <= 1.0:
            raise ContractViolation("linear stepsize must lie in [0, 1]")
    br = q.copy()
    for i, sl in enumerate(slices):
        br[sl] = best_response(game, probs, i, q, current=q[sl]).point
    if kind == "simultaneous":
        return br
    return (1.0 - alpha) * q + alpha * br


def _stage_fn(game, rule, schedule, rng, respond_to="posterior"):
    """The one stage function, shared by `run` and `step`.

    Returns ``stage(log_probs, probs, q, pending, next_k, t)``, which plays
    stage t: realize the profile, sample the payoffs, update the belief when
    t + 1 is the next update stage, apply the strategy rule.  It returns
    ``(log_probs, probs, q_next, pending, next_k, c, updated, actions)``.
    ``probs`` is exp(log_probs), carried between stages so that it is
    computed once per belief update.
    """
    slices = game.slices
    true_index = game.space.true_index
    finite = game.kind == "finite"
    fictitious = rule.kind == "fictitious_play"
    respond_map = respond_to == "map"

    def stage(log_probs, probs, q, pending, next_k, t):
        if finite:
            profile, actions = _realized_profile(game, slices, fictitious,
                                                 probs, q, rng)
        else:
            profile, actions = q, None
        c = sample_payoffs(game, true_index, profile, rng)
        pending.append((profile, c))
        updated = t + 1 == next_k
        if updated:
            log_probs = _log_normalize(
                log_probs + batch_log_likelihoods(None, pending, game)
            )
            probs = np.exp(log_probs)
            pending = []
            next_k = next_update_stage(schedule, rng)
        # fictitious play responds to the pre-update belief via its realized
        # actions; the other rules respond to the freshest belief
        if respond_map:
            respond = np.zeros_like(probs)
            respond[int(np.argmax(log_probs))] = 1.0
        else:
            respond = probs
        q_next = _apply_rule(game, rule, slices, respond, q, t, profile)
        return log_probs, probs, q_next, pending, next_k, c, updated, actions

    return stage


def step(state, rule, schedule, game, rng):
    """Public single-step operation on LearnerState."""
    lp = np.asarray(state.belief.log_probs, dtype=float)
    stage = _stage_fn(game, rule, schedule, rng)
    lp2, _, q2, pending2, next_k2, c, updated, actions = stage(
        lp, np.exp(lp), np.asarray(state.strategy, float),
        list(state.pending.records), state.next_k, state.t,
    )
    return LearnerState(
        t=state.t + 1,
        belief=Belief(tuple(lp2.tolist())),
        strategy=q2,
        pending=ObservationBatch(pending2),
        next_k=next_k2,
        last_obs=c,
        last_updated=updated,
        last_actions=actions,
    )


def initial_state(game, belief, q, schedule, rng=None):
    if not belief.full_support():
        raise ContractViolation("initial belief must have full support")
    q = np.asarray(q, dtype=float)
    if not game.feasible(q):
        raise ContractViolation("initial strategy outside the strategy set")
    return LearnerState(
        t=1, belief=belief, strategy=q, pending=ObservationBatch([]),
        next_k=next_update_stage(schedule, rng),
    )


def run(game, rule, schedule, init, horizon, seed, stop_when_converged=False,
        conv_window=CONV_WINDOW, conv_tol=CONV_TOL, respond_to="posterior"):
    """Run the learning dynamics; deterministic given the seed.

    Convergence is declared when over the last `conv_window` stages every
    strategy step is below `conv_tol` (max norm) and the belief moved less
    than `conv_tol` across the window.
    """
    belief, q0 = init
    if horizon < 1:
        raise ContractViolation("horizon must be >= 1")
    if not belief.full_support():
        raise ContractViolation("initial belief must have full support")
    q0 = np.asarray(q0, dtype=float)
    if not game.feasible(q0):
        raise ContractViolation("initial strategy outside the strategy set")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    schedule = schedule.clone()
    next_k = next_update_stage(schedule, rng)

    n_s = len(game.space)
    thetas = np.empty((horizon, n_s))
    qs = np.empty((horizon, game.q_dim))
    cs = np.empty((horizon, game.obs_dim))
    upd = np.zeros(horizon, dtype=bool)
    acts = np.empty((horizon, game.n_players), dtype=np.int64) \
        if game.kind == "finite" else None

    log_probs = np.asarray(belief.log_probs, dtype=float)
    probs = np.exp(log_probs)
    q = q0.copy()
    pending = []
    last_big_move = 0  # last stage with a strategy step >= conv_tol
    converged = False
    t_stop = horizon
    eq_checkpoints = []
    stage = _stage_fn(game, rule, schedule, rng, respond_to)

    for t in range(1, horizon + 1):
        thetas[t - 1] = probs
        qs[t - 1] = q
        log_probs, probs, q_next, pending, next_k, c, updated, actions = stage(
            log_probs, probs, q, pending, next_k, t
        )
        cs[t - 1] = c
        if updated:
            upd[t - 1] = True
            eq_checkpoints.append(t + 1)
        if actions is not None:
            acts[t - 1] = actions
        if abs(q_next - q).max() >= conv_tol:
            last_big_move = t
        q = q_next
        if (
            not converged
            and t >= conv_window + 1
            and t - last_big_move >= conv_window
            and abs(thetas[t - 1] - thetas[t - 1 - conv_window]).max()
            < conv_tol
        ):
            converged = True
            t_stop = t
            if stop_when_converged:
                thetas = thetas[:t]
                qs = qs[:t]
                cs = cs[:t]
                upd = upd[:t]
                if acts is not None:
                    acts = acts[:t]
                break

    final_theta = probs
    cycle = _detect_cycle(qs) if not converged else None
    summary = {
        "converged": bool(converged),
        "t_stop": int(t_stop if converged else thetas.shape[0]),
        "final_theta": final_theta.tolist(),
        "final_q": q.tolist(),
        "seed": int(seed),
        "rule": rule.kind,
        "schedule": schedule.kind,
        "game": game.name,
    }
    if cycle is not None:
        summary["cycle_detected"] = True
        summary["cycle_period"] = int(cycle)
    traj = Trajectory(thetas=thetas, qs=qs, cs=cs, updated=upd, actions=acts,
                      summary=summary)
    traj.summary["update_stages"] = eq_checkpoints
    return traj


def run_two_timescale(game, rule, gap_fn, init, horizon, seed,
                      stop_when_converged=False, respond_to="posterior"):
    """Run with a growing-gap schedule; additionally records, at each belief
    update, the distance of the current strategy to EQ(theta)."""
    from .games import equilibrium_set
    from .param_belief import UpdateSchedule

    schedule = UpdateSchedule.two_timescale(gap_fn)
    traj = run(game, rule, schedule, init, horizon, seed,
               stop_when_converged=stop_when_converged, respond_to=respond_to)
    distances = []
    for k in traj.summary["update_stages"]:
        idx = k - 1
        if idx >= traj.horizon:
            continue
        belief = Belief.from_probs(traj.thetas[idx])
        eq = equilibrium_set(game, belief)
        distances.append((int(k), float(eq.distance(traj.qs[idx]))))
    traj.summary["eq_distance_at_updates"] = distances
    return traj


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


# ---------------------------------------------------------------------------
# Export


def _fmt(x):
    return format(float(x), ".17g")


def trajectory_to_csv(traj, path, config_hash=None, master_seed=None):
    """CSV columns: t, theta_*, q_flat..., c_flat..., updated; 17 significant
    digits, '\\n' line endings; metadata comment header."""
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
    for t in range(traj.horizon):
        row = (
            [str(t + 1)]
            + [_fmt(x) for x in traj.thetas[t]]
            + [_fmt(x) for x in traj.qs[t]]
            + [_fmt(x) for x in traj.cs[t]]
            + [str(int(traj.updated[t]))]
        )
        lines.append(",".join(row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
