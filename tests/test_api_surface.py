"""Every public function and class of the library has a caller outside its
own tests: library code other than its own definition, a demo, the bench
or the acceptance suite.  A reference is an AST name or attribute, so a
mention in a docstring or comment does not count."""

import ast
import pathlib

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
