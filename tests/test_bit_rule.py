"""The bit rule stated in the `games` docstring, checked on the source.

Every function that the stage loop, the equilibrium sets or the Monte Carlo
starts reach sums left to right in plain float arithmetic.  This test fails
when one of them uses ``@``, ``.dot(``, ``einsum``, ``np.log``, ``np.sum``,
a ``.sum()`` method or the builtin ``sum()``: BLAS kernels round differently
with the batch shape, numpy's ``sum`` is pairwise from 8 entries on, and the
builtin ``sum()`` of floats is a compensated sum from Python 3.12 on.  The
functions nested in a function are checked with it, and so is every
function nested in a game factory (a function of `games` that returns a
`GameModel`).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beliefplay"

# module -> functions and methods ("Class.method") under the rule
RULED = {
    "dynamics": ("run", "_realized_profile", "_apply_rule"),
    "games": ("best_response", "tied_actions", "_interval_br",
              "sample_payoffs", "expected_payoff", "equilibrium_set",
              "GameModel.channel_means", "GameModel.feasible",
              "GameModel.box_center", "GameModel.random_profile",
              "EquilibriumSet.project", "EquilibriumSet.distance",
              "EquilibriumSet.sample", "EquilibriumSet.representatives"),
    "param_belief": ("_expect", "_total", "log_likelihood",
                     "batch_log_likelihoods", "_shift_exp", "_normalize",
                     "bayes_update", "next_update_stage"),
    "analysis": ("sample_belief_ball", "_grid_points", "_near_eq_sampler",
                 "_extreme_points", "_directed_hausdorff"),
}


def _tree(module):
    path = PACKAGE / (module + ".py")
    return ast.parse(path.read_text(), filename=str(path))


def _top_level(tree):
    """name -> def node, for functions and for the methods of classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out["%s.%s" % (node.name, item.name)] = item
    return out


def _returns_game_model(node):
    return any(isinstance(n, ast.Return) and isinstance(n.value, ast.Call)
               and isinstance(n.value.func, ast.Name)
               and n.value.func.id == "GameModel"
               for n in ast.walk(node))


def _game_factories():
    """name -> def node of each function of `games` that returns a
    `GameModel`."""
    return {name: node for name, node in _top_level(_tree("games")).items()
            if "." not in name and _returns_game_model(node)}


def _ruled_functions():
    """(label, def node) for every function under the rule."""
    for module, names in RULED.items():
        defs = _top_level(_tree(module))
        for name in names:
            yield "%s.%s" % (module, name), defs[name]
    for name, node in _game_factories().items():
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.FunctionDef):
                yield "games.%s.%s" % (name, inner.name), inner


def _is_np(node):
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def violations(node):
    """What the function at ``node`` does against the rule, one string per
    offending expression, with its line number."""
    out = []
    for n in ast.walk(node):
        what = None
        if isinstance(n, (ast.BinOp, ast.AugAssign)) \
                and isinstance(n.op, ast.MatMult):
            what = "@"
        elif isinstance(n, ast.Attribute):
            if n.attr in ("einsum", "dot"):
                what = n.attr if n.attr == "einsum" else ".dot"
            elif n.attr in ("log", "sum") and _is_np(n.value):
                what = "np." + n.attr
        elif isinstance(n, ast.Name) and n.id == "einsum":
            what = "einsum"
        elif isinstance(n, ast.Call):
            func = n.func
            if isinstance(func, ast.Name) and func.id == "sum":
                what = "builtin sum()"
            elif isinstance(func, ast.Attribute) and func.attr == "sum" \
                    and not _is_np(func.value):
                what = ".sum()"
        if what is not None:
            out.append("%s at line %d" % (what, n.lineno))
    return out


def test_every_ruled_function_is_found():
    labels = [label for label, _ in _ruled_functions()]
    assert len(labels) == len(set(labels))
    assert set(_game_factories()) == {
        "cournot", "zerosum_example", "investment", "coordination_penalty",
        "two_route_congestion", "affine_game"}
    for name in ("analytic_br", "analytic_eq", "channel_mean",
                 "mean_payoff"):
        assert "games.cournot.%s" % name in labels


RULED_DEFS = dict(_ruled_functions())


@pytest.mark.parametrize("label", list(RULED_DEFS))
def test_sums_run_left_to_right(label):
    assert violations(RULED_DEFS[label]) == []


BANNED = {
    "matmul": ("def f(p, v):\n    return p @ v\n", "@"),
    "matmul_assign": ("def f(p, v):\n    x = p\n    x @= v\n    return x\n",
                      "@"),
    "dot_method": ("def f(p, v):\n    return p.dot(v)\n", ".dot"),
    "np_dot": ("def f(p, v):\n    return np.dot(p, v)\n", ".dot"),
    "einsum": ("def f(p, v):\n    return np.einsum('i,i', p, v)\n", "einsum"),
    "np_log": ("def f(p):\n    return np.log(p)\n", "np.log"),
    "np_sum": ("def f(p):\n    return np.sum(p)\n", "np.sum"),
    "sum_method": ("def f(p):\n    return p.sum()\n", ".sum()"),
    "builtin_sum": ("def f(p):\n    return sum(x for x in p)\n",
                    "builtin sum()"),
    "nested_builtin_sum": (
        "def f(p):\n    def g():\n        return sum(p)\n    return g\n",
        "builtin sum()"),
}


@pytest.mark.parametrize("form", list(BANNED))
def test_each_banned_form_is_caught(form):
    source, what = BANNED[form]
    found = violations(ast.parse(source).body[0])
    assert [v.split(" at line")[0] for v in found] == [what]


def test_plain_loops_and_math_log_pass():
    source = ("def f(p, v):\n    total = 0.0\n    for a, b in zip(p, v):\n"
              "        total += a * b\n    return math.log(total) + "
              "np.exp(total)\n")
    assert violations(ast.parse(source).body[0]) == []
