"""The package exposes no option that nothing sets.

Every defaulted parameter of a public function or method in
``src/beliefplay`` must be set by at least one call in ``src/`` or
``tests/``, by keyword or by position.  A value that every caller leaves at
its default is a constant and belongs at its one use.

Calls are matched to definitions by the name they call (``f(...)``,
``mod.f(...)``, ``obj.f(...)``; a class name calls its ``__init__``), so the
check errs toward counting a parameter as set.  A ``**kwargs`` call sets
every option of the name it calls, and a ``*args`` call every positional one.
A ``seed`` stays a parameter whatever its callers pass: it names the random
stream, which is the caller's to choose.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "beliefplay"
EXEMPT = {"seed"}


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_defs():
    """(qualified name, called name, def node, whether the first parameter
    is bound) for every public function and method of the package."""
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield "%s.%s" % (path.stem, node.name), node.name, node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or (
                            item.name.startswith("_") and item.name != "__init__"):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    yield ("%s.%s.%s" % (path.stem, node.name, item.name),
                           called, item, not static)


def _options(node, bound):
    """The defaulted parameters: (name, position or None if keyword-only)."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if bound:
        positional = positional[1:]
    out = [(name, k) for k, name in enumerate(positional)
           if k >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _calls():
    """(called name, positional count, has *args, keywords, has **kwargs)
    for every call in src/ and tests/."""
    for _, tree in _trees(ROOT / "src", ROOT / "tests"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield (name, len(node.args) - starred, starred,
                   keywords - {None}, None in keywords)


def test_every_option_is_set_by_some_call():
    calls = {}
    for name, n_pos, starred, keywords, double in _calls():
        calls.setdefault(name, []).append((n_pos, starred, keywords, double))
    unset = []
    for qualname, called, node, bound in _public_defs():
        for option, pos in _options(node, bound):
            if option in EXEMPT:
                continue
            if not any(double or option in keywords
                       or (pos is not None and (starred or n_pos > pos))
                       for n_pos, starred, keywords, double
                       in calls.get(called, ())):
                unset.append("%s(%s)" % (qualname, option))
    assert not unset, "options that no call sets: " + ", ".join(unset)
