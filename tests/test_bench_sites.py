"""The call sites the benchmark pins still exist in the package.

A traced benchmark run (``bench/run.py --trace 1``) fails when a pinned
``module:attr`` site of ``SITES`` in ``bench/workloads.py`` records no call,
and its tracer only wraps public functions of the package's layers.  This
test reads those tables, and the tracer's ``HOOKS``, from the source with
`ast` (it imports nothing from ``bench/`` and writes no bytecode there) and
checks that every site and hook names a function the tracer can wrap.  A
renamed or deleted function fails here.  The stage loop's sites
(``_LOOP_SITES``) are also wrapped and counted over five short runs, one
for each rule a workload's stage loop runs and one on a game whose
likelihood has an atom: each count must be the one the
run's stages, its ``updated`` column and its rule imply (the channel means
and the payoff draw once per stage, a best response once per moving player
per stage, the likelihood once per scored record, the batch once per update
and the schedule once per update plus once at the start).  So a loop site
that one rule's branch stopped calling, or calls on only some stages,
fails here too; a site that moved out of another path of a workload is
still seen only by a traced run.
"""

import ast
import importlib
import inspect
import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assignments(filename):
    """name -> value node of each top-level assignment in a bench file."""
    tree = ast.parse((BENCH / filename).read_text(), filename=filename)
    return {target.id: node.value for node in tree.body
            if isinstance(node, ast.Assign) for target in node.targets
            if isinstance(target, ast.Name)}


def _strings(node):
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


_WORKLOADS = _assignments("workloads.py")
_TRACER = _assignments("tracer.py")
LAYERS = ast.literal_eval(_TRACER["LAYERS"])
SITES = sorted({site for name in ("_CORE_SITES", "_LOOP_SITES", "SITES")
                for site in _strings(_WORKLOADS[name]) if ":" in site})
HOOKS = [key.value for key in _TRACER["HOOKS"].keys]


def _layer_function(layer, name):
    """The public function ``name`` defined in ``beliefplay.<layer>``, or an
    assertion error saying why there is none."""
    module = importlib.import_module("beliefplay." + layer)
    obj = getattr(module, name, None)
    assert inspect.isfunction(obj), "beliefplay.%s has no function %s" % (
        layer, name)
    assert not name.startswith("_"), "%s.%s is private" % (layer, name)
    assert obj.__module__ == module.__name__, "%s.%s is defined in %s" % (
        layer, name, obj.__module__)
    return obj


def test_the_tables_were_read():
    assert len(SITES) >= 20 and "games:best_response" in SITES
    assert len(HOOKS) >= 5 and "games.best_response" in HOOKS
    assert "games" in LAYERS


@pytest.mark.parametrize("site", SITES)
def test_pinned_site_is_a_traced_function(site):
    module, attr = site.split(":")
    assert module in LAYERS
    if "." in attr:  # a method, e.g. GameModel.channel_means
        cls_name, method = attr.split(".")
        cls = getattr(importlib.import_module("beliefplay." + module),
                      cls_name, None)
        assert inspect.isclass(cls), "beliefplay.%s has no class %s" % (
            module, cls_name)
        assert inspect.isfunction(getattr(cls, method, None)), site
        return
    obj = getattr(importlib.import_module("beliefplay." + module), attr, None)
    assert inspect.isfunction(obj), "%s is not bound to a function" % site
    # the tracer wraps it only as a public function of the layer defining it
    layer = obj.__module__.rpartition(".")[2]
    assert layer in LAYERS, "%s is defined outside the layers" % site
    assert _layer_function(layer, obj.__name__) is obj


@pytest.mark.parametrize("hook", HOOKS)
def test_hook_names_a_public_layer_function(hook):
    layer, name = hook.split(".")
    assert layer in LAYERS
    _layer_function(layer, name)


def _positional_reads(hook_fn):
    """(position, name) of each ``_arg(args, kwargs, pos, "name")`` call in
    a hook function of the tracer."""
    return [(call.args[2].value, call.args[3].value)
            for call in ast.walk(hook_fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "_arg"]


_TRACER_TREE = ast.parse((BENCH / "tracer.py").read_text(),
                         filename="tracer.py")
_HOOK_FNS = {node.name: node for node in _TRACER_TREE.body
             if isinstance(node, ast.FunctionDef)}
READS = [(key.value, pos, name)
         for key, value in zip(_TRACER["HOOKS"].keys, _TRACER["HOOKS"].values)
         for pos, name in _positional_reads(_HOOK_FNS[value.id])]


def test_the_positional_reads_were_read():
    assert ("dynamics.run", 4, "horizon") in READS
    assert ("param_belief.batch_log_likelihoods", 1, "batch") in READS
    assert len(READS) >= 5


@pytest.mark.parametrize("hook, pos, name", READS,
                         ids=["%s-%d-%s" % read for read in READS])
def test_tracer_reads_the_named_parameter(hook, pos, name):
    # a hook reads an argument by keyword or, when passed by position, at
    # ``pos``: both must name the same parameter of the hooked function
    layer, attr = hook.split(".")
    params = list(inspect.signature(_layer_function(layer, attr)).parameters)
    assert params[pos:pos + 1] == [name], params



LOOP_SITES = _strings(_WORKLOADS["_LOOP_SITES"])


def _loop_run(which):
    """(game, rule, schedule, theta1, q1) of a short run: Cournot with the
    linear rule, investment with the sequential rule and batches of 10
    (the benchmark's global-stability runs), the same with a noiseless
    channel under s = 0, zerosum with the simultaneous rule, or the CLI's
    default affine game with the geometric schedule (the benchmark's affine
    op)."""
    from beliefplay import games
    from beliefplay.cli import GAMES
    from beliefplay.dynamics import UpdateRule
    from beliefplay.param_belief import UpdateSchedule

    if which == "cournot":
        return (games.cournot(), UpdateRule.linear(),
                UpdateSchedule.every_stage(), [0.5, 0.5], [1.0, 1.0])
    if which in ("investment_sequential", "investment_atom"):
        game = games.investment() if which == "investment_sequential" else \
            games.investment(sigmas=(0.0, math.sqrt(5.0), math.sqrt(10.0)))
        return (game, UpdateRule.sequential(), UpdateSchedule.fixed_batch(10),
                [1.0, 1.0, 1.0], [0.2, 0.7])
    if which == "zerosum_simultaneous":
        return (games.zerosum_example(), UpdateRule.simultaneous(),
                UpdateSchedule.every_stage(), [1.0, 1.0, 1.0], [1.0, 2.0])
    factory, _, defaults = GAMES["affine"]
    return (factory(**defaults), UpdateRule.simultaneous(),
            UpdateSchedule.geometric(0.5), [1.0], [0.5, 0.5])


# calls per stage of each player's best response, by rule
_MOVING = {"linear": "players", "simultaneous": "players", "sequential": 1}


@pytest.mark.parametrize("which", ["cournot", "investment_sequential",
                                   "zerosum_simultaneous", "affine_geometric",
                                   "investment_atom"])
def test_the_stage_loop_reaches_every_loop_site(monkeypatch, which):
    from beliefplay.analysis import _count_near
    from beliefplay.games import EquilibriumSet, GameModel

    assert "dynamics:sample_payoffs" in LOOP_SITES and len(LOOP_SITES) >= 6
    channel_means = "games:GameModel.channel_means"
    calls = dict.fromkeys(LOOP_SITES + [channel_means], 0)
    runs = []
    for site in LOOP_SITES:
        module, attr = site.split(":")
        owner = importlib.import_module("beliefplay." + module)
        fn = getattr(owner, attr)

        def counted(*args, _site=site, _fn=fn, **kwargs):
            calls[_site] += 1
            result = _fn(*args, **kwargs)
            if _site == "analysis:run":
                runs.append(result)
            return result

        monkeypatch.setattr(owner, attr, counted)
    means_fn = GameModel.channel_means

    def counted_means(self, q):
        calls[channel_means] += 1
        return means_fn(self, q)

    monkeypatch.setattr(GameModel, "channel_means", counted_means)
    game, rule, schedule, theta1, q1 = _loop_run(which)
    # one start: `_count_near` runs it in this process, through the `run`
    # that `analysis` calls
    _count_near(game, [(3, theta1, q1)], rule, schedule, 40, "posterior",
                False, theta1, EquilibriumSet.of_point(q1), 1.0, 1.0)
    (traj,) = runs
    # every stage samples once from its channel means and moves its players;
    # every update scores the records since the one before
    stages = traj.horizon
    updated = [t for t, flag in enumerate(traj.updated.tolist()) if flag]
    moving = _MOVING[rule.kind]
    if moving == "players":
        moving = game.n_players
    expected = {
        "analysis:run": 1,
        "dynamics:sample_payoffs": stages,
        channel_means: stages,
        "dynamics:best_response": moving * stages,
        "dynamics:batch_log_likelihoods": len(updated),
        "dynamics:next_update_stage": len(updated) + 1,
        "param_belief:log_likelihood": updated[-1] + 1 if updated else 0,
    }
    assert sorted(expected) == sorted(calls), "a loop site without a count"
    assert calls == expected
