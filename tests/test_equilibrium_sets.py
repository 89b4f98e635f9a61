"""The closed-form equilibrium sets against the definition of an equilibrium.

A profile is an equilibrium when no player gains by deviating.  Player i's
best-response residual at q is their gain from moving to the point that
`oracles.numeric_best_response` finds from the game's payoffs alone
(golden-section search, and the current strategy clipped to the flat
interval around it), or 0.0 when that gain is negative; a profile's
residual is its players' largest.  (A position residual would not do: the
search finds a smooth maximum only to about 1e-8.)  For each continuous
game with an ``analytic_eq``, on a belief grid that holds every enumerated
cluster's belief:
- each of EQ(theta)'s 7 representatives has residual <= 1e-9 (no spurious
  member);
- each profile of a 25 x 25 grid on the strategy box whose residual is 0
  lies within 1e-9 of EQ(theta) (no missing member).
In the 2-player routing game, a finite game, player i's residual is the
mass of their mixed strategy off `tied_actions`, the optimal pure actions:
each member of EQ(theta) has residual 0, and each profile of a 21 x 21 grid
of mixed profiles whose residual is 0 is a member.
"""

import numpy as np
import pytest

from beliefplay import games
from beliefplay.analysis import belief_grid, enumerate_fixed_points
from beliefplay.games import equilibrium_set, expected_payoff, tied_actions
from oracles import numeric_best_response

TOL = 1e-9
GAMES = {"cournot": games.cournot, "investment": games.investment,
         "zerosum": games.zerosum_example,
         "coordination_penalty": games.coordination_penalty}


def _beliefs(game):
    """The 5-point belief grid plus each enumerated cluster's belief."""
    beliefs = belief_grid(len(game.space), 5)
    for cluster in enumerate_fixed_points(game):
        belief = list(cluster.representative.belief)
        if belief not in beliefs:
            beliefs.append(belief)
    return beliefs


def _gain(game, probs, i, q, response):
    """Player i's residual at q, given ``numeric_best_response`` at q."""
    (point,), interval = response
    if interval is not None:
        (lo,), (hi,) = interval
        point = min(max(q[i], lo), hi)
    trial = list(q)
    trial[i] = point
    return max(expected_payoff(game, probs, trial, i)
               - expected_payoff(game, probs, q, i), 0.0)


@pytest.mark.parametrize("game_id", list(GAMES))
def test_equilibrium_sets_hold_the_equilibria_and_nothing_else(game_id):
    game = GAMES[game_id]()
    axes = [np.linspace(lo, hi, 25).tolist()
            for lo, hi in zip(game.box_lo(), game.box_hi())]
    for probs in _beliefs(game):
        eq = equilibrium_set(game, probs)
        for q in eq.representatives(7):
            residual = max(_gain(game, probs, i, q, numeric_best_response(
                game, probs, i, q)) for i in range(2))
            assert residual <= TOL, (probs, q)
        # a search reads only the other player's strategy: one search per
        # grid value of the other player serves every value of one's own
        residuals = {}
        for i in range(2):
            for y in axes[1 - i]:
                response = numeric_best_response(game, probs, i, [y, y])
                for x in axes[i]:
                    q = [x, y] if i == 0 else [y, x]
                    key = tuple(q)
                    residuals[key] = max(residuals.get(key, 0.0),
                                         _gain(game, probs, i, q, response))
        for q, residual in residuals.items():
            if residual == 0.0:
                assert eq.distance(q) <= TOL, (probs, q)


def _off_tied_mass(game, probs, q):
    """The largest mass a player puts on actions off `tied_actions`."""
    worst = 0.0
    for i, sl in enumerate(game.slices):
        tied = tied_actions(game, probs, i, q)
        mass = 0.0
        for a, x in enumerate(q[sl]):
            if a not in tied:
                mass += x
        worst = max(worst, mass)
    return worst


def test_routing_equilibrium_set_holds_the_equilibria_and_nothing_else():
    game = games.two_route_congestion()
    axis = np.linspace(0.0, 1.0, 21).tolist()
    grid = [[x, 1.0 - x, y, 1.0 - y] for x in axis for y in axis]
    for probs in _beliefs(game):
        eq = equilibrium_set(game, probs)
        members = eq.representatives()
        assert len(members) == 3
        for q in members:
            assert _off_tied_mass(game, probs, q) == 0.0, (probs, q)
        found = [q for q in grid if _off_tied_mass(game, probs, q) == 0.0]
        # the members lie on the grid, so the grid finds them all
        assert sorted(found) == sorted(members), (probs, found)
