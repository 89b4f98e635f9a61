"""Stochastic learning dynamics in repeated games with an unknown
payoff-relevant parameter: belief estimators, best-response strategy updates,
fixed-point certification and stability analysis."""

from . import analysis, cli, dynamics, games, param_belief
from .dynamics import Trajectory, UpdateRule, run
from .games import (
    EquilibriumSet,
    GameModel,
    affine_game,
    best_response,
    cournot,
    coordination_penalty,
    equilibrium_set,
    expected_payoff,
    investment,
    sample_payoffs,
    two_route_congestion,
    zerosum_example,
)
from .param_belief import (
    ParameterSpace,
    UpdateSchedule,
    bayes_update,
    log_belief,
    log_likelihood,
    map_update,
    next_update_stage,
    ols_solve,
)

__version__ = "0.1.0"
