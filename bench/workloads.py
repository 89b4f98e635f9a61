"""The benchmark's workloads: fixed sets of `beliefplay` CLI ops on configs
generated from the benchmark's `--seed`.

Seed 0 gives the acceptance-criteria seeds (2025/2026 for the local-stability
Monte Carlo, 0 for the fixed-point and global-stability checks).  The program
only ever receives the generated config files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict

    def argv(self, config_path, out_dir):
        return [self.command, "--config", config_path, "--out", out_dir,
                "--threads", "1"]

    @property
    def seeds(self):
        if "seeds" in self.config:
            spec = self.config["seeds"]
            return [spec["start"] + k for k in range(spec["count"])]
        return [self.config.get("seed", 0)]


# Criterion-7 radii with 2 replicas per cluster instead of 200.
STABILITY_RUNS = 2


def _stability(seed):
    radii = {"eps1": 0.02, "delta1": 0.02, "eps_bar": 0.1, "eps_x": 0.1,
             "n_runs": STABILITY_RUNS}
    return [
        Op("stability_cournot_%s" % cluster, "stability",
           {"game": "cournot", "rule": "linear", "horizon": 20000,
            "seed": base + seed,
            "analysis": {"stability": dict(radii, cluster=cluster)}})
        for cluster, base in (("complete_info", 2025), ("theta_dagger", 2026))
    ]


def _fixed_points(seed):
    return [
        Op("fixed_points_%s" % game, "fixed-points",
           {"game": game, "horizon": 20000, "seed": seed})
        for game in ("zerosum", "cournot")
    ]


def _mixed_cli(seed):
    return [
        # 50 random starts that stop early at ragged stages
        Op("fixed_points_investment", "fixed-points",
           {"game": "investment", "horizon": 20000, "seed": seed}),
        # batched likelihood, multi-seed CSV/JSON export
        Op("run_investment_batch", "run",
           {"game": "investment", "rule": "sequential",
            "schedule": {"kind": "fixed_batch", "batch": 10},
            "horizon": 2000, "seeds": {"start": seed, "count": 3}}),
        # finite game: action draws and the finite best response
        Op("run_routing_fictitious", "run",
           {"game": "two_route_congestion", "rule": "fictitious_play",
            "horizon": 2000, "seed": seed}),
        # numeric golden-section best response, numeric equilibrium set in
        # nearest_fixed_point, and a schedule that draws from the stream
        Op("run_affine_geometric", "run",
           {"game": "affine", "schedule": {"kind": "geometric", "p": 0.5},
            "horizon": 300, "seed": seed}),
    ]


# Import sites ("module:attribute") that each workload must reach in a traced
# run; a site that records no call means a renamed or rebound import would
# silently zero a layer, so the traced run fails instead.
_CORE_SITES = ("cli:main", "cli:parse_config", "analysis:enumerate_fixed_points",
               "analysis:equilibrium_set", "analysis:certify_fixed_point",
               "analysis:kl_divergence", "games:best_response",
               "games:GameModel.channel_means")
_LOOP_SITES = ("dynamics:best_response", "dynamics:sample_payoffs",
               "dynamics:batch_log_likelihoods", "dynamics:next_update_stage",
               "param_belief:log_likelihood", "analysis:run")

WORKLOADS = {"stability_mc": _stability, "fixed_points": _fixed_points,
             "mixed_cli": _mixed_cli}

SITES = {
    "stability_mc": _CORE_SITES + _LOOP_SITES + (
        "cli:cmd_stability", "analysis:check_assumption2",
        "analysis:monte_carlo_local_stability", "analysis:replica_seed",
        "analysis:br_profile", "analysis:stability_thresholds"),
    "fixed_points": _CORE_SITES + (
        "cli:cmd_fixed_points", "analysis:check_all_fixed_points_complete",
        "analysis:check_global_stability", "analysis:br_profile"),
    "mixed_cli": _CORE_SITES + _LOOP_SITES + (
        "cli:cmd_run", "cli:cmd_fixed_points", "cli:run",
        "cli:trajectory_to_csv", "analysis:nearest_fixed_point",
        "analysis:check_global_stability", "analysis:replica_seed",
        "games:br_profile"),
}


def build(workload, seed, work_dir):
    """Write one config file per op under work_dir; returns [(op, path)]."""
    os.makedirs(work_dir, exist_ok=True)
    out = []
    for op in WORKLOADS[workload](seed):
        path = os.path.join(work_dir, op.name + ".json")
        with open(path, "w") as fh:
            json.dump(op.config, fh, sort_keys=True)
        out.append((op, path))
    return out
