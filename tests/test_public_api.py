"""No public API that only tests call.

Every module-level function and class in ``src/cfspectra`` must be referenced
by name somewhere outside the tests: in ``src/`` outside its own definition
(the exports of ``cfspectra/__init__.py`` included), in ``scripts/`` or in
``perfbench/``.  A reference is a ``Name``, an ``Attribute`` or an import
alias; docstrings and other string text do not count.  The only exceptions
are the certificates that the acceptance suite runs, each listed with its
criterion.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cfspectra"

# name -> the acceptance criterion that runs it
ACCEPTANCE_CERTIFICATES = {
    "ergodicity_sweep": 9,
    "label_transport_witness": 9,
    "recurrence_holds_at": 10,
    "float_cluster_check": 2,
}


def _referenced(tree: ast.AST) -> set[str]:
    """The names a tree refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree: ast.Module) -> list:
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _unreferenced(allowed) -> dict[str, str]:
    """Definitions outside ``allowed`` with no reference outside the tests, as name -> module."""
    uses = Counter()   # per name, the top-level src statements and outside files that refer to it
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            uses.update(_referenced(stmt))
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            uses.update(_referenced(_parse(path)))
    missing = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(_parse(path)):
            own = node.name in _referenced(node)   # a recursive call is no caller
            if uses[node.name] - own == 0 and node.name not in allowed:
                missing[node.name] = path.stem
    return missing


def test_every_definition_has_a_caller_outside_the_tests():
    assert _unreferenced(ACCEPTANCE_CERTIFICATES) == {}


def test_each_acceptance_certificate_is_defined_and_called_by_no_code():
    """The allowlist holds exactly the definitions that would be flagged without it."""
    assert set(_unreferenced({})) == set(ACCEPTANCE_CERTIFICATES)
