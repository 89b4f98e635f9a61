"""Where the analysis, the dynamics and the CLI take a belief's logs,
checked on the source.

A belief is a probability vector everywhere in the package: a fixed point,
a probe, a run start and a terminal state are lists of floats, and
`equilibrium_set`, `certify_fixed_point`, `br_profile` and `run` take them
as they are.  `log_belief` takes an `np.log`, and reading its result back
takes an `np.exp`, which moves values in their last bits.  So these modules
call it only where the stage loop begins, in `dynamics.run`, which carries
log probabilities from there on.  This test fails when a call of
`log_belief` appears anywhere else in them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beliefplay"

# module -> the top-level functions that may call log_belief
LOG_SITES = {
    "analysis": (),
    "dynamics": ("run",),
    "cli": (),
}


def _tree(module):
    path = PACKAGE / (module + ".py")
    return ast.parse(path.read_text(), filename=str(path))


def _is_log_belief(node):
    return (isinstance(node, ast.Name) and node.id == "log_belief"
            or isinstance(node, ast.Attribute) and node.attr == "log_belief")


def log_calls(tree):
    """(owner, line) of each call of `log_belief` in a module, by name or
    as a module attribute; the owner is the top-level function or class
    around the call, None at module level."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(top):
            if isinstance(n, ast.Call) and _is_log_belief(n.func):
                out.append((owner, n.lineno))
    return out


@pytest.mark.parametrize("module", list(LOG_SITES))
def test_logs_are_taken_only_where_the_stage_loop_begins(module):
    stray = [(owner, line) for owner, line in log_calls(_tree(module))
             if owner not in LOG_SITES[module]]
    assert stray == []


def test_each_allowed_site_takes_the_logs():
    # a renamed site would leave a stale name in LOG_SITES
    for module, owners in LOG_SITES.items():
        assert {owner for owner, _ in log_calls(_tree(module))} == \
            set(owners)


CAUGHT = {
    "by_name": ("def f(p):\n    return log_belief(p)\n", ["f"]),
    "attribute": ("def f(p):\n    return param_belief.log_belief(p)\n",
                  ["f"]),
    "nested": ("def f(p):\n    def g():\n        return log_belief(p)"
               "\n    return g\n", ["f"]),
    "module_level": ("START = log_belief([0.5, 0.5])\n", [None]),
    "reference_only": ("def f():\n    return log_belief\n", []),
}


@pytest.mark.parametrize("form", list(CAUGHT))
def test_each_call_is_caught(form):
    source, owners = CAUGHT[form]
    assert [owner for owner, _ in log_calls(ast.parse(source))] == owners
