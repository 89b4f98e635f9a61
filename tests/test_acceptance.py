"""End-to-end acceptance suite.

Eleven numbered criteria covering fixed-point ground truth, statistical
convergence, the rate law, martingale diagnostics, stability thresholds,
local-consistency certification, Monte Carlo local/global stability, the
cycling counterexample, the estimator variants and the oracle equivalences.
Each test records a single PASS/FAIL line that is echoed after the pytest
summary (see conftest).  Tolerances and sample sizes are pinned; the whole
module is budgeted to finish in well under fifteen minutes.
"""

import dataclasses
import json
import math
import time
import warnings

import numpy as np
import pytest

from beliefplay import games
from beliefplay.analysis import (
    certify_fixed_point,
    check_assumption2,
    check_global_stability,
    enumerate_fixed_points,
    estimate_convergence_rate,
    kl_divergence,
    martingale_diagnostic,
    monte_carlo_local_stability,
    stability_thresholds,
    upcrossing_count,
)
from beliefplay.cli import main
from beliefplay.dynamics import (
    Trajectory,
    UpdateRule,
    replica_seed,
    run,
    run_two_timescale,
)
from beliefplay.games import best_response, equilibrium_set
from beliefplay.param_belief import (
    Belief,
    ObservationBatch,
    UpdateSchedule,
    map_update,
)


# ---------------------------------------------------------------------------
# 1. Fixed-point ground truth


def test_criterion_1_fixed_point_ground_truth(criterion):
    fails = []
    times = {}

    t0 = time.monotonic()
    clusters = enumerate_fixed_points(games.cournot())
    times["cournot"] = time.monotonic() - t0
    by_id = {c.cluster_id: c.representative for c in clusters}
    if sorted(by_id) != ["complete_info", "theta_dagger"]:
        fails.append("cournot clusters %s" % sorted(by_id))
    else:
        star, dag = by_id["complete_info"], by_id["theta_dagger"]
        if not (np.allclose(star.belief, [1.0, 0.0], atol=1e-6)
                and np.allclose(star.q, [2.0 / 3.0] * 2, atol=1e-6)):
            fails.append("cournot complete-info rep %s %s"
                         % (star.belief, star.q))
        if not (np.allclose(dag.belief, [0.5, 0.5], atol=1e-6)
                and np.allclose(dag.q, [0.5, 0.5], atol=1e-6)):
            fails.append("cournot frozen rep %s %s" % (dag.belief, dag.q))

    t0 = time.monotonic()
    clusters = enumerate_fixed_points(games.investment())
    times["investment"] = time.monotonic() - t0
    if len(clusters) != 1 or clusters[0].cluster_id != "complete_info":
        fails.append("investment clusters %s"
                     % [c.cluster_id for c in clusters])
    else:
        rep = clusters[0].representative
        if not (np.allclose(rep.belief, [0.0, 1.0, 0.0], atol=1e-6)
                and np.allclose(rep.q, [1.0 / 3.0] * 2, atol=1e-6)):
            fails.append("investment rep %s %s" % (rep.belief, rep.q))

    t0 = time.monotonic()
    clusters = enumerate_fixed_points(games.zerosum_example())
    times["zerosum"] = time.monotonic() - t0
    members = [m for c in clusters for m in c.members]
    if not all(m.valid for m in members):
        fails.append("zerosum has invalid members")
    complete = [m for m in members if m.is_complete_info]
    family = [m for m in members if not m.is_complete_info]
    if not complete or not family:
        fails.append("zerosum missing a family: %d complete, %d other"
                     % (len(complete), len(family)))
    else:
        q2 = [m.q[1] for m in complete]
        if max(abs(m.q[0]) for m in members) > 1e-9:
            fails.append("zerosum member leaves the q1=0 face")
        if min(q2) > 0.1 or max(q2) < 2.9 or max(q2) > 3.0 + 1e-9:
            fails.append("zerosum complete-info box q2 range [%g, %g]"
                         % (min(q2), max(q2)))
        if not any(len(m.support) >= 2 for m in family):
            fails.append("zerosum family has no mixed-support member")
    for name, dt in times.items():
        if dt >= 30.0:
            fails.append("%s enumeration %.1fs >= 30s" % (name, dt))

    criterion(1, not fails, "; ".join(fails) or
              "exact clusters on all three games, slowest %.1fs"
              % max(times.values()))


# ---------------------------------------------------------------------------
# 2. Convergence to certified fixed points, three games x three rules


def test_criterion_2_convergence_statistics(criterion):
    combos = {}
    t_start = time.monotonic()
    n_seeds = 50
    for gname, game in (("cournot", games.cournot()),
                        ("zerosum", games.zerosum_example()),
                        ("investment", games.investment())):
        clusters = enumerate_fixed_points(game)
        beliefs = np.vstack([np.asarray(m.belief)
                             for c in clusters for m in c.members])
        lo, hi = game.box_lo(), game.box_hi()
        n = len(game.space)
        for rname, make_rule in (("simultaneous", UpdateRule.simultaneous),
                                 ("sequential", UpdateRule.sequential),
                                 ("linear", UpdateRule.linear)):
            ok = 0
            for k in range(n_seeds):
                sk = replica_seed(1000, k)
                rng = np.random.default_rng(np.random.SeedSequence(sk ^ 0x5A))
                theta1 = rng.dirichlet(np.ones(n))
                q1 = lo + (hi - lo) * rng.random(lo.size)
                traj = run(game, make_rule(), UpdateSchedule.every_stage(),
                           (Belief.from_probs(theta1), q1), 50000, seed=sk,
                           stop_when_converged=True)
                theta_t = np.asarray(traj.summary["final_theta"])
                q_t = np.asarray(traj.summary["final_q"])
                d_theta = float(np.min(np.max(np.abs(beliefs - theta_t),
                                              axis=1)))
                d_q = equilibrium_set(game,
                                      Belief.from_probs(theta_t)).distance(q_t)
                ok += d_theta <= 0.05 and d_q <= 0.02
            combos["%s/%s" % (gname, rname)] = ok
    elapsed = time.monotonic() - t_start
    worst = min(combos, key=combos.get)
    fails = ["%s only %d/%d" % (c, k, n_seeds)
             for c, k in combos.items() if k < 48]
    if elapsed >= 300.0:
        fails.append("runtime %.0fs >= 300s" % elapsed)
    criterion(2, not fails, "; ".join(fails) or
              "worst combo %s %d/%d, %.0fs"
              % (worst, combos[worst], n_seeds, elapsed))


# ---------------------------------------------------------------------------
# 3. Exponential decay rate of excluded-parameter beliefs


def _synthetic_exponential(rate, horizon=400):
    ts = np.arange(1, horizon + 1)
    theta_s = np.exp(rate * ts)
    return Trajectory(thetas=np.column_stack([theta_s, 1.0 - theta_s]),
                      qs=np.zeros((horizon, 2)), cs=np.zeros((horizon, 1)),
                      updated=np.ones(horizon, dtype=bool), actions=None)


def test_criterion_3_rate_law(criterion):
    fails = []
    t0 = time.monotonic()
    slope, _ = estimate_convergence_rate(_synthetic_exponential(-0.1), s=0)
    if abs(slope + 0.1) > 1e-12:
        fails.append("synthetic slope %.3e off" % (slope + 0.1))

    game = games.investment()
    q_limit = np.asarray([1.0 / 3.0, 1.0 / 3.0])
    slopes = {0: [], 2: []}
    for k in range(20):
        traj = run(game, UpdateRule.simultaneous(),
                   UpdateSchedule.every_stage(),
                   (Belief.uniform(3), np.asarray([0.5, 0.5])), 2500,
                   seed=replica_seed(300, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for s in (0, 2):
                sl, _ = estimate_convergence_rate(traj, s=s, burn_in=500)
                slopes[s].append(sl)
    rels = {}
    for s in (0, 2):
        kl = kl_divergence(game, game.space.true_index, s, q_limit)
        rels[s] = abs(float(np.mean(slopes[s])) + kl) / kl
        if rels[s] > 0.2:
            fails.append("s=%d pooled slope off by %.0f%%" % (s, 100 * rels[s]))
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        fails.append("runtime %.0fs >= 60s" % elapsed)
    criterion(3, not fails, "; ".join(fails) or
              "pooled-slope errors %.1f%% / %.1f%% vs KL, %.0fs"
              % (100 * rels[0], 100 * rels[2], elapsed))


# ---------------------------------------------------------------------------
# 4. Martingale / submartingale one-step diagnostics


def test_criterion_4_martingale_diagnostics(criterion):
    probes = [
        (games.cournot(), Belief.uniform(2), [1.0, 1.0]),
        (games.cournot(), Belief.uniform(2), [0.6, 0.8]),
        (games.investment(), Belief.uniform(3), [1.0 / 3.0, 1.0 / 3.0]),
        (games.investment(), Belief.uniform(3), [0.8, 0.2]),
    ]
    fails = []
    t0 = time.monotonic()
    for j, (game, belief, q) in enumerate(probes):
        diag = martingale_diagnostic(game, belief, np.asarray(q),
                                     n_samples=100000, seed=40 + j)
        for s in range(len(game.space)):
            err = abs(diag["ratio_mean"][s] - diag["prior_ratio"][s])
            if err > 3.0 * max(diag["ratio_se"][s], 1e-15):
                fails.append("%s probe %d: ratio s=%d off by %.1f SE"
                             % (game.name, j, s,
                                err / max(diag["ratio_se"][s], 1e-300)))
        drop = (diag["log_theta_star_prior"] - diag["log_theta_star_mean"])
        if drop > 3.0 * diag["log_theta_star_se"]:
            fails.append("%s probe %d: log theta(s*) not a submartingale"
                         % (game.name, j))
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        fails.append("runtime %.0fs >= 30s" % elapsed)
    criterion(4, not fails, "; ".join(fails) or
              "all one-step means within 3 SE at n=1e5, %.0fs" % elapsed)


# ---------------------------------------------------------------------------
# 5. Stability thresholds: orderings and the hand case


def test_criterion_5_stability_thresholds(criterion):
    fails = []
    th = stability_thresholds([1.0, 0.0], eps_hat=0.3, gamma=0.9)
    for name, got, want in (("rho1", th.rho1, 0.03 / 4.43),
                            ("rho2", th.rho2, 0.075),
                            ("rho3", th.rho3, 0.3 / 4.3)):
        if abs(got - want) > 1e-12:
            fails.append("hand case %s off by %.2e" % (name, got - want))

    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        support_size = int(rng.integers(1, n))  # always >= 1 excluded
        probs = np.zeros(n)
        idx = rng.choice(n, size=support_size, replace=False)
        w = rng.random(support_size) + 0.05
        probs[idx] = w / w.sum()
        eps_hat = float(rng.uniform(0.01, 0.99))
        gamma = float(rng.uniform(0.01, 0.99))
        th = stability_thresholds(probs, eps_hat, gamma)
        if not (0.0 < th.rho1 < th.rho2 < eps_hat / n):
            fails.append("trial %d: ordering broken" % trial)
            break
        if th.rho3 > probs[probs > 0.0].min() + 1e-15:
            fails.append("trial %d: rho3 exceeds min support mass" % trial)
            break
    criterion(5, not fails, "; ".join(fails) or
              "hand case to 1e-12 and orderings on 1000 random inputs")


# ---------------------------------------------------------------------------
# 6. Local-consistency certification at the example fixed points


def test_criterion_6_assumption_certification(criterion):
    fails = []
    cournot = games.cournot()
    star = certify_fixed_point(cournot, Belief.point_mass(2, 0),
                               [2.0 / 3.0, 2.0 / 3.0])
    out = check_assumption2(cournot, star, eps=1.0 / 3.0, delta=1.0,
                            n_probe=1000, seed=0)
    if not (out["A2a"]["pass"] and out["A2b"]["pass"] and out["A2c"]["pass"]):
        fails.append("cournot complete-info point fails a condition")
    if out["A2b"]["violations"] or out["A2c"]["violations"]:
        fails.append("cournot complete-info point has counterexamples")

    dagger = certify_fixed_point(cournot, Belief.uniform(2), [0.5, 0.5])
    out = check_assumption2(cournot, dagger, eps=1.0 / 3.0, delta=0.1,
                            n_probe=1000, seed=0)
    if out["A2c"]["pass"] or out["A2c"]["counterexample"] is None:
        fails.append("belief-frozen point not caught by the consistency check")

    zerosum = games.zerosum_example()
    zcert = certify_fixed_point(zerosum, Belief.point_mass(3, 1), [0.0, 1.5])
    out = check_assumption2(zerosum, zcert, eps=0.5, delta=6.0, n_probe=1000,
                            seed=0)
    if not (out["A2a"]["pass"] and out["A2b"]["pass"] and out["A2c"]["pass"]):
        fails.append("zerosum point fails at (1/2, 6)")
    criterion(6, not fails, "; ".join(fails) or
              "complete-info points certified, frozen point exposes a "
              "consistency counterexample")


# ---------------------------------------------------------------------------
# 7. Local stability Monte Carlo at the two Cournot fixed points
#
# Protocol: 200 replicas per point, start radii 0.02 in belief and strategy,
# horizon 2e4, stay region 0.1; both points use the linear adjustment rule
# with its default 1/t stepsize.  Under the simultaneous rule the strategy
# feeds the belief multiplicative noise that stochastically pins the frozen
# point; the decaying stepsize removes that artifact and shows the instability
# while leaving the complete-information point firmly attracting.


@pytest.mark.slow
def test_criterion_7_local_stability_monte_carlo(criterion):
    game = games.cournot()
    fails = []
    t0 = time.monotonic()
    star = certify_fixed_point(game, Belief.point_mass(2, 0),
                               [2.0 / 3.0, 2.0 / 3.0])
    rep = monte_carlo_local_stability(game, star, eps1=0.02, delta1=0.02,
                                      eps_bar=0.1, eps_x=0.1, n_runs=200,
                                      horizon=20000, seed=2025,
                                      rule=UpdateRule.linear())
    stay = rep.stay_probability
    if stay < 0.9:
        fails.append("complete-info stay %.3f < 0.9" % stay)

    dagger = certify_fixed_point(game, Belief.uniform(2), [0.5, 0.5])
    rep = monte_carlo_local_stability(game, dagger, eps1=0.02, delta1=0.02,
                                      eps_bar=0.1, eps_x=0.1, n_runs=200,
                                      horizon=20000, seed=2026,
                                      rule=UpdateRule.linear())
    escape = rep.escape_probability
    if escape < 0.5:
        fails.append("belief-frozen escape %.3f < 0.5" % escape)
    elapsed = time.monotonic() - t0
    criterion(7, not fails, "; ".join(fails) or
              "stay %.3f, escape %.3f at n=200, %.0fs" % (stay, escape,
                                                          elapsed))


# ---------------------------------------------------------------------------
# 8. Global stability verdicts


@pytest.mark.slow
def test_criterion_8_global_stability(criterion):
    fails = []
    game = games.investment()
    out = check_global_stability(game, enumerate_fixed_points(game), seed=0)
    if out["verdict"] != "globally_stable":
        fails.append("investment verdict %r" % out["verdict"])
    if out["n_converged"] != out["n_runs"] or out["n_runs"] != 50:
        fails.append("investment converged %s/%s"
                     % (out["n_converged"], out["n_runs"]))
    for name, game in (("cournot", games.cournot()),
                       ("zerosum", games.zerosum_example())):
        out = check_global_stability(game, enumerate_fixed_points(game),
                                     seed=0)
        if out["verdict"] != "not_globally_stable":
            fails.append("%s verdict %r" % (name, out["verdict"]))
        elif out["witness"] is None:
            fails.append("%s missing a witness" % name)
    criterion(8, not fails, "; ".join(fails) or
              "investment 50/50 globally stable; cournot and zerosum "
              "rejected with witnesses")


# ---------------------------------------------------------------------------
# 9. Exact period-2 cycle in the noiseless routing game


def test_criterion_9_period_two_cycle(criterion):
    game = games.two_route_congestion(sigma=0.0)
    traj = run(game, UpdateRule.simultaneous(), UpdateSchedule.every_stage(),
               (Belief.uniform(2), np.asarray([0.5, 0.5, 0.5, 0.5])), 10000,
               seed=0)
    fails = []
    if traj.summary["converged"]:
        fails.append("flagged converged")
    if not traj.summary.get("cycle_detected"):
        fails.append("no cycle detected")
    elif traj.summary["cycle_period"] != 2:
        fails.append("period %s != 2" % traj.summary["cycle_period"])
    if not np.array_equal(traj.qs[2:-2], traj.qs[4:]):
        fails.append("q^t != q^{t+2} somewhere (not an exact cycle)")
    criterion(9, not fails, "; ".join(fails) or
              "exact period-2 strategy cycle over all 1e4 stages")


# ---------------------------------------------------------------------------
# 10. Estimator variants: OLS recovery, MAP selection, two-timescale runs


def test_criterion_10_estimator_variants(criterion, tmp_path):
    fails = []
    cfg = tmp_path / "ols.json"
    cfg.write_text(json.dumps({"game": "affine", "estimator": "ols",
                               "horizon": 10000, "seed": 0,
                               "output_dir": str(tmp_path)}))
    if main(["run", "--config", str(cfg)]) != 0:
        fails.append("ols run exited nonzero")
    else:
        err = json.loads((tmp_path / "summary.json").read_text())
        err = err["ols_runs"][0]["max_abs_error"]
        if err >= 0.1:
            fails.append("ols max abs error %.3f >= 0.1" % err)

    truth = np.array([-2.0, 1.0, 1.0, -2.0, 1.0, 1.0])
    grid = [truth,
            truth + np.array([0.0, 0.0, 0.0, 0.0, 0.1, 0.0]),
            truth + np.array([0.0, 0.0, 0.0, 0.0, 0.0, -0.1])]
    game = games.affine_game([[-2.0, 1.0], [1.0, -2.0]], [1.0, 1.0], 0.5,
                             grid=grid, true_grid_index=0)
    q = np.asarray([0.5, 0.5])
    hits = 0
    for k in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(replica_seed(77,
                                                                        k)))
        batch = ObservationBatch(records=[])
        for _ in range(1000):
            batch.append(q, games.sample_payoffs(game, 0, q, rng))
        hits += map_update(game.space, Belief.uniform(3), batch, game) == 0
    if hits < 95:
        fails.append("map hit %d/100 < 95" % hits)

    traj = run_two_timescale(games.investment(), UpdateRule.simultaneous(),
                             lambda t: 10 * t,
                             (Belief.uniform(3), np.asarray([0.9, 0.9])),
                             1500, seed=4)
    dists = traj.summary["eq_distance_at_updates"]
    if len(dists) < 5:
        fails.append("only %d belief updates recorded" % len(dists))
    elif any(d >= 1e-3 for _, d in dists[4:]):
        fails.append("equilibrium distance >= 1e-3 after the 5th update")
    criterion(10, not fails, "; ".join(fails) or
              "ols within 0.1, map %d/100, two-timescale equilibrated" % hits)


# ---------------------------------------------------------------------------
# 11. Oracle equivalences


def _upcrossings_brute(series, lo, hi):
    # independent state machine: wait for a strict sub-lo entry, then count
    # when a strict super-hi entry follows
    count = 0
    below = False
    for x in series:
        if not below and x < lo:
            below = True
        elif below and x > hi:
            below = False
            count += 1
    return count


def test_criterion_11_oracle_equivalences(criterion):
    fails = []
    rng = np.random.default_rng(99)

    for trial in range(1000):
        n = int(rng.integers(0, 80))
        if trial % 2:
            series = rng.choice([0.0, 0.2, 0.3, 0.45, 0.6, 0.8], size=n)
        else:
            series = rng.random(n)
        if upcrossing_count(series, 0.3, 0.6) != _upcrossings_brute(series,
                                                                    0.3, 0.6):
            fails.append("upcrossing mismatch on trial %d" % trial)
            break

    for make in (games.cournot, games.zerosum_example, games.investment,
                 games.coordination_penalty):
        game = make()
        numeric = dataclasses.replace(game, analytic_br=None)
        n = len(game.space)
        worst = 0.0
        for _ in range(100):
            probs = rng.dirichlet(np.ones(n))
            q = game.box_lo() + (game.box_hi()
                                 - game.box_lo()) * rng.random(2)
            for i in range(2):
                ana = best_response(game, probs, i, q)
                num = best_response(numeric, probs, i, q)
                if ana.is_set_valued:
                    lo, hi = ana.interval
                    gap = max(lo[0] - num.point[0], num.point[0] - hi[0], 0.0)
                else:
                    gap = abs(num.point[0] - ana.point[0])
                worst = max(worst, gap)
        if worst > 1e-6:
            fails.append("%s numeric vs analytic gap %.2e" % (game.name,
                                                              worst))

    # posterior-odds paths theta(0)/theta(1) in the investment game at a
    # payoff-revealing strategy are a nonnegative martingale started at 1/3;
    # the expected number of [0.1, 0.2] upcrossings is bounded by
    # a / (b - a) = 1
    game = games.investment()
    q = np.asarray([1.0 / 3.0, 1.0 / 3.0])
    mu0 = np.asarray(game.channel_means(0, q), dtype=float)
    mu1 = np.asarray(game.channel_means(1, q), dtype=float)
    sig0 = np.asarray(game.channel_sigmas(0), dtype=float)
    sig1 = np.asarray(game.channel_sigmas(1), dtype=float)
    z = rng.standard_normal((1000, 300, mu1.size))
    c = mu1 + sig1 * z
    log_ratio = (-np.log(sig0) - (c - mu0) ** 2 / (2.0 * sig0 ** 2)
                 + np.log(sig1) + (c - mu1) ** 2 / (2.0 * sig1 ** 2))
    paths = (1.0 / 3.0) * np.exp(np.cumsum(log_ratio.sum(axis=2), axis=1))
    mean_up = float(np.mean([upcrossing_count(p, 0.1, 0.2) for p in paths]))
    if mean_up > 1.0:
        fails.append("mean upcrossings %.3f exceed the bound 1" % mean_up)

    criterion(11, not fails, "; ".join(fails) or
              "upcrossings exact on 1000 sequences, BR gap <= 1e-6, mean "
              "upcrossings %.3f <= 1" % mean_up)
