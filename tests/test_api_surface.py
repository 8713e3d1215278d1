"""Every public function and class of the library has a caller outside its
own tests: library code other than its own definition, a demo, the bench
or the acceptance suite; each defaulted parameter of a public function,
and each field of a config dataclass, is set by some call there; and no
such parameter is passed by every call there.  A reference is an AST
name or attribute, so a mention in a docstring or comment does not
count.  The defaulted-parameter checks also cover the public methods of
public classes, `__init__` included, which a call of the class reaches."""

import ast
import pathlib
from dataclasses import fields

from lconv.cli import _DATA_TASKS, _TRAIN_TASKS
from lconv.discovery import OptimizerConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _parse(paths):
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in paths}


LIBRARY = _parse(sorted((ROOT / "src" / "lconv").glob("*.py")))
CALLERS = _parse([*sorted((ROOT / "demos").glob("*.py")),
                  *sorted((ROOT / "bench").glob("*.py")),
                  ROOT / "tests" / "test_acceptance.py"])


def _referenced(tree):
    """The identifiers a tree reads as names or attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


OUTSIDE = set().union(*map(_referenced, CALLERS.values()))
# each top-level library statement with the identifiers it reads
STATEMENTS = [(node, _referenced(node)) for tree in LIBRARY.values()
              for node in tree.body]
PUBLIC = [(f"{name[:-3]}.{node.name}", node)
          for name, tree in LIBRARY.items() for node in tree.body
          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
          and not node.name.startswith("_")]


def test_library_has_public_definitions():
    assert {"layer.LConvLayer", "discovery.train_fixed_angle",
            "cli.main"} <= {symbol for symbol, _ in PUBLIC}


def test_every_public_symbol_has_a_caller():
    uncalled = []
    for symbol, definition in PUBLIC:
        library = set().union(*(refs for node, refs in STATEMENTS
                                if node is not definition))
        if definition.name not in OUTSIDE | library:
            uncalled.append(f"lconv.{symbol}")
    assert not uncalled, (
        f"{', '.join(uncalled)}: referenced by no library code but its own "
        "definition, no demo, no bench script and no acceptance test")


def _targets(expr):
    """The names an expression may call: a name, an attribute, or either
    branch of a conditional expression."""
    if isinstance(expr, ast.IfExp):
        return _targets(expr.body) | _targets(expr.orelse)
    return _referenced(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else set()


TREES = [*LIBRARY.values(), *CALLERS.values()]
# a local name bound to functions, as in `train = train_a if c else train_b`
ALIASES = {}
for node in (n for tree in TREES for n in ast.walk(tree)):
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        ALIASES.setdefault(node.targets[0].id, set()).update(_targets(node.value))
# each call with the function names it may reach
CALLS = [(call, {m for n in _targets(call.func) for m in {n} | ALIASES.get(n, set())})
         for tree in TREES for call in ast.walk(tree) if isinstance(call, ast.Call)]


def _sets(call, position, name):
    """Whether `call` passes the parameter at `position` (None for a
    keyword-only one) called `name`; a * or ** argument may pass any."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def _callables():
    """(symbol, definition, the name a call reaches it by, the number of
    leading parameters a call does not pass) for each public function and
    each public method of a public class, whose `self` no call passes."""
    for symbol, definition in PUBLIC:
        if isinstance(definition, ast.FunctionDef):
            yield symbol, definition, definition.name, 0
            continue
        for method in definition.body:
            if (isinstance(method, ast.FunctionDef)
                    and (method.name == "__init__" or not method.name.startswith("_"))):
                name = definition.name if method.name == "__init__" else method.name
                yield f"{symbol}.{method.name}", method, name, 1


def _defaulted():
    """(symbol, position or None, name, the calls that reach it) for each
    defaulted parameter of each public callable."""
    for symbol, definition, name, skip in _callables():
        args = definition.args
        positional = (args.posonlyargs + args.args)[skip:]
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        calls = [call for call, names in CALLS if name in names]
        for i, arg in defaulted:
            yield symbol, i, arg, calls


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A default no caller overrides is a constant dressed as an option."""
    unset = [f"lconv.{symbol}({arg}=)" for symbol, i, arg, calls in _defaulted()
             if not any(_sets(call, i, arg) for call in calls)]
    assert not unset, (
        f"{', '.join(unset)}: set by no call in library code, a demo, the "
        "bench or the acceptance suite")


def test_no_default_is_passed_by_every_caller():
    """A default every caller overrides serves only the tests.  A call with
    a * or ** argument counts as passing it, so such a call can only make
    this check stricter."""
    always = [f"lconv.{symbol}({arg}=)" for symbol, i, arg, calls in _defaulted()
              if calls and all(_sets(call, i, arg) for call in calls)]
    assert not always, (
        f"{', '.join(always)}: passed by every call in library code, the demos, "
        "the bench and the acceptance suite, so only the tests use the default")


def test_every_config_field_is_set_by_a_caller():
    """A config field no caller passes is a constant dressed as a key."""
    unset = []
    for cls in {OptimizerConfig, *_DATA_TASKS.values(), *_TRAIN_TASKS.values()}:
        calls = [call for call, names in CALLS if cls.__name__ in names]
        unset += [f"lconv.{cls.__name__}({f.name}=)" for i, f in enumerate(fields(cls))
                  if not any(_sets(call, i, f.name) for call in calls)]
    assert not unset, (
        f"{', '.join(sorted(unset))}: passed by no call in library code, a demo, "
        "the bench or the acceptance suite")
