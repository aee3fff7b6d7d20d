"""No public API that only tests call.

Every module-level function and class in ``src/cfspectra``, and every method
and property in a class body (dunders excluded), must be referenced by name
somewhere outside the tests: in ``src/`` outside its own definition (the
exports of ``cfspectra/__init__.py`` included) or in ``perfbench/``.  A
function or class is referenced by a ``Name``, an ``Attribute`` or an import
alias.  A method is referenced only by an ``x.<name>`` attribute, since a
local variable of the same name calls nothing, or by the benchmark tracer's
target path for it.  Docstrings and other string text do not count.  The only
exceptions are the names that only the acceptance suite calls, each listed
with the criteria that call it.

No field that nothing reads: every field a class stores must be read as an
attribute somewhere, the tests included.

No inexact arithmetic: no float or complex constant, no ``float``, ``complex``
or ``round``, and no ``math`` function beyond the integer ones.

Rung labels stay element indices: ``cocycle`` and ``pairings`` never call
``element_index``.

One copy rule: only ``Level.__init__`` forks on ``reps`` in a conditional
expression, nothing multiplies a ``.z`` by a ``len(...)``, and no ``.z`` is
passed to ``_gap_runs`` as the copy spacing.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cfspectra"
TRACING = ROOT / "perfbench" / "tracing.py"

# name -> the acceptance criteria that call it
ACCEPTANCE_CERTIFICATES = {
    "ergodicity_sweep": (9,),
    "label_transport_witness": (9,),
    "recurrence_holds_at": (10,),
}


def _references(tree: ast.AST) -> Counter:
    """How often a tree refers to each name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names[node.asname] += 1
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _attributes(tree: ast.AST) -> Counter:
    """How often a tree names each attribute, as ``x.<name>``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _definitions(tree: ast.Module) -> list:
    """The module's functions and classes, and the non-dunder methods and properties in its class bodies, as
    (path, node, is a method) with path ``name`` or ``Class.name``."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node, False))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{m.name}", m, True) for m in node.body if isinstance(m, ast.FunctionDef)
                     and not (m.name.startswith("__") and m.name.endswith("__"))]
    return defs


def _traced_targets() -> set[tuple[str, str]]:
    """The (module, path) of every function the benchmark tracer wraps, read from its target lists."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(m, p) for m, p, *_ in tracing.SPANNED + tracing.COUNTED + tracing.TIMED}


def _unreferenced(allowed) -> dict[str, str]:
    """Definitions outside ``allowed`` with no reference outside the tests, as name -> module."""
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    refs = {stem: _references(tree) for stem, tree in trees.items()}
    attrs = {stem: _attributes(tree) for stem, tree in trees.items()}
    outside, outside_attrs = Counter(), Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside.update(_references(_parse(path)))
        outside_attrs.update(_attributes(_parse(path)))
    traced = _traced_targets()
    missing = {}
    for stem, tree in trees.items():
        for path, node, method in _definitions(tree):
            name = node.name
            # references inside the definition itself do not count: a recursive call is no caller
            if method:
                count = sum(a[name] for a in attrs.values()) + outside_attrs[name] - _attributes(node)[name]
                called = count > 0 or (stem, path) in traced
            else:
                count = sum(r[name] for r in refs.values()) + outside[name] - _references(node)[name]
                called = count > 0
            if not called and name not in allowed:
                missing[name] = stem
    return missing


def test_every_definition_has_a_caller_outside_the_tests():
    assert _unreferenced(ACCEPTANCE_CERTIFICATES) == {}


def test_each_acceptance_certificate_is_defined_and_called_by_no_code():
    """The allowlist holds exactly the definitions that would be flagged without it."""
    assert set(_unreferenced({})) == set(ACCEPTANCE_CERTIFICATES)


def _attribute_reads(tree: ast.AST) -> set[str]:
    """The names a tree reads as attributes: ``x.name`` in ``Load`` context."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _fields(cls: ast.ClassDef) -> set[str]:
    """A class's annotated class-body fields and the names it assigns as ``self.<name> = ...``."""
    names = {st.target.id for st in cls.body if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)}
    names.update(node.attr for node in ast.walk(cls)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


def test_every_attribute_is_read():
    """Every field a ``src/cfspectra`` class stores is read as an attribute somewhere.

    A read is an ``ast.Attribute`` in ``Load`` context anywhere in ``src/``,
    ``tests/`` or ``perfbench/``.  The scan goes by name alone,
    so it cannot see a field whose name another class also reads: ``group``
    on a coset space or ``E`` on a system spec would pass it unread.
    """
    reads = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads |= _attribute_reads(_parse(path))
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef):
                unread.update((f"{cls.name}.{name}", path.stem) for name in _fields(cls) - reads)
    assert unread == {}


def test_only_tower_touches_its_cache():
    """Every per-tower table goes through ``Tower.cached``: no ``_cache`` access in ``src/`` outside ``Tower``.

    ``Tower`` clears the cache whenever its levels change, so a table read anywhere else could outlive them.
    """
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        inside = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Tower"
                  for node in ast.walk(cls)}
        outside += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "_cache" and id(node) not in inside]
    assert outside == []


# the math functions that take and return integers (floor and ceil of a Fraction are exact)
_EXACT_MATH = {"gcd", "lcm", "prod", "isqrt", "factorial", "floor", "ceil"}


def test_no_inexact_arithmetic_in_the_package():
    """A ratchet on exactness: nothing in ``src/cfspectra`` can make a float or a complex number."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            where = f"{path.stem}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where} constant {node.value!r}")
            elif isinstance(node, ast.Name) and node.id in ("float", "complex", "round"):
                found.append(f"{where} {node.id}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr not in _EXACT_MATH):
                found.append(f"{where} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where} math.{alias.name}" for alias in node.names if alias.name not in _EXACT_MATH]
    assert found == []


def test_rung_labels_stay_element_indices():
    """A ratchet on the index representation: no ``element_index`` in ``cocycle`` or ``pairings``, where a rung
    label is added and negated as an element index and never taken back from an ``Element``."""
    found = [f"{stem}:{node.lineno}" for stem in ("cocycle", "pairings")
             for node in ast.walk(_parse(PACKAGE / f"{stem}.py"))
             if isinstance(node, ast.Attribute) and node.attr == "element_index"]
    assert found == []



def _is_reps(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "reps" or isinstance(node, ast.Attribute) and node.attr == "reps"


def test_one_copy_rule_for_every_level():
    """A ratchet on the block form: a level's copies are ``stride`` apart and its classes ``class_stride``
    apart, both chosen once in ``Level.__init__``.  So outside it no conditional expression in
    ``src/cfspectra`` forks on ``reps`` against a constant (as ``... if reps > 1 else ...`` did), nothing
    multiplies a ``.z`` by a ``len(...)`` call, and no ``_gap_runs`` call takes a ``.z`` as its stride: ``z`` is
    only the shift."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        init = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Level"
                for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            where = f"{path.stem}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare) and id(node) not in init:
                operands = [node.test.left, *node.test.comparators]
                if any(map(_is_reps, operands)) and all(_is_reps(x) or isinstance(x, ast.Constant) for x in operands):
                    found.append(f"{where} reps fork")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                sides = (node.left, node.right)
                if (any(isinstance(x, ast.Attribute) and x.attr == "z" for x in sides)
                        and any(isinstance(x, ast.Call) and isinstance(x.func, ast.Name) and x.func.id == "len"
                                for x in sides)):
                    found.append(f"{where} z * len")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_gap_runs":
                stride = [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "stride")]
                if any(isinstance(x, ast.Attribute) and x.attr == "z" for x in stride):
                    found.append(f"{where} z as stride")
    assert found == []
