"""Where the analysis, the dynamics and the CLI build a `Belief`, checked on
the source.

A fixed point, a probe and a terminal state are probability vectors, and
`equilibrium_set`, `certify_fixed_point` and `br_profile` take them as lists
of floats.  A `Belief` holds log probabilities: building one takes an
`np.log`, and reading it back an `np.exp`, which moves values in their last
bits.  So these modules build one only as the start of a `run`, in
`analysis._final_states` and `cli._configured_run`.  This test fails when a
call of `Belief` or of one of its class methods (``Belief.from_probs``,
``Belief.point_mass``, ...) appears anywhere else in them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beliefplay"

# module -> the top-level functions that may build a Belief
RUN_STARTS = {
    "analysis": ("_final_states",),
    "dynamics": (),
    "cli": ("_configured_run",),
}


def _tree(module):
    path = PACKAGE / (module + ".py")
    return ast.parse(path.read_text(), filename=str(path))


def _is_belief(node):
    return isinstance(node, ast.Name) and node.id == "Belief"


def constructions(tree):
    """(owner, line) of each call of `Belief` or of one of its attributes in
    a module; the owner is the top-level function or class around the
    call, None at module level."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(top):
            if isinstance(n, ast.Call) and (
                    _is_belief(n.func)
                    or isinstance(n.func, ast.Attribute)
                    and _is_belief(n.func.value)):
                out.append((owner, n.lineno))
    return out


@pytest.mark.parametrize("module", list(RUN_STARTS))
def test_beliefs_are_built_only_as_run_starts(module):
    stray = [(owner, line) for owner, line in constructions(_tree(module))
             if owner not in RUN_STARTS[module]]
    assert stray == []


def test_each_run_start_builds_its_belief():
    # a renamed run start would leave a stale name in RUN_STARTS
    for module, owners in RUN_STARTS.items():
        assert {owner for owner, _ in constructions(_tree(module))} == \
            set(owners)


CAUGHT = {
    "constructor": ("def f(lp):\n    return Belief(lp)\n", ["f"]),
    "from_probs": ("def f(p):\n    return Belief.from_probs(p)\n", ["f"]),
    "point_mass": ("def f(n):\n    return Belief.point_mass(n, 0)\n", ["f"]),
    "nested": ("def f(p):\n    def g():\n        return Belief.from_probs(p)"
               "\n    return g\n", ["f"]),
    "module_level": ("START = Belief.uniform(2)\n", [None]),
    "isinstance_only": ("def f(x):\n    return isinstance(x, Belief)\n", []),
}


@pytest.mark.parametrize("form", list(CAUGHT))
def test_each_construction_is_caught(form):
    source, owners = CAUGHT[form]
    assert [owner for owner, _ in constructions(ast.parse(source))] == owners
