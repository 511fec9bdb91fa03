"""src/ holds what the package itself or the benchmark reaches.

Every top-level function and class of a hybridqmc module must be named by a
Name or Attribute node somewhere else in src/ (not inside its own
definition, and not in __init__.py, whose re-exports reach nothing by
themselves) or in bench/.  Every method and property of such a class other
than the double-underscore ones Python calls by itself must be named by an
Attribute node there, as a local variable of the same name reaches nothing.
An attribute on an instance may reach a member of any class, but one on a
class, C.name with C a class of src/ that defines name, reaches only C's
member.
The benchmark's tracer also binds names by string through getattr, so a
string constant in bench/ that spells the name counts as a reference.  A
function that only tests call belongs in tests/, as their reference.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "hybridqmc").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _references(tree, skip=None, strings=False, names=True, classes=None) -> set:
    """The identifiers of tree's Attribute nodes outside the node skip, with
    names also of its Name nodes, and with strings also its string
    constants.  An attribute C.name with name among classes[C], the members
    of class C, is recorded as the label "C.name"."""
    found, stack, classes = set(), [tree], classes or {}
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if names and isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None)
            found.add(f"{owner}.{node.attr}" if node.attr in classes.get(owner, ()) else node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unreached(strings=True) -> list:
    """The labels of the definitions nothing in src/ or bench/ reaches; with
    strings false, a tracer's name string in bench/ reaches nothing."""
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in MODULES}
    benches = [ast.parse(path.read_text(), path.name) for path in BENCH]
    classes = {}
    for tree in trees.values():
        for _, label in _definitions(tree):
            if "." in label:
                owner, member = label.split(".")
                classes.setdefault(owner, set()).add(member)
    bench = {
        names: set().union(
            *(
                _references(other, strings=strings, names=names, classes=classes)
                for other in benches
            )
        )
        for names in (True, False)
    }
    unreached = []
    for name, tree in trees.items():
        for node, label in _definitions(tree):
            names = "." not in label  # a member is reached through an attribute
            if {node.name, label} & bench[names] or any(
                {node.name, label}
                & _references(other, node if other is tree else None, names=names, classes=classes)
                for other in trees.values()
            ):
                continue
            unreached.append(f"{name}:{label}")
    return unreached


def _definitions(tree):
    """(node, label) of every top-level function and class, and of every
    method and property of those classes that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node, node.name
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(member, ast.FunctionDef) and not (
                member.name.startswith("__") and member.name.endswith("__")
            ):
                yield member, f"{node.name}.{member.name}"


def test_the_modules_and_the_bench_are_found():
    assert {"cli.py", "walsh.py"} <= {path.name for path in MODULES}
    assert "tracing.py" in {path.name for path in BENCH}


def test_methods_and_properties_are_scanned():
    labels = {
        label
        for path in MODULES
        for _, label in _definitions(ast.parse(path.read_text(), path.name))
    }
    assert {"Poly._raw", "Poly.degree", "Certificate.total", "BasePRational.digit"} <= labels
    assert not any(label.endswith(("__init__", "__hash__", "__post_init__")) for label in labels)
    # a member is reached through an attribute, not a local of the same name
    tree = ast.parse("digits = x.digit(1)")
    assert _references(tree, names=False) == {"digit"}
    # a class-qualified attribute reaches only that class's member
    tree = ast.parse("Poly.zero(2), x.zero, Fraction.zero, Poly.other")
    classes = {"Poly": {"zero"}, "BasePRational": {"zero"}}
    assert _references(tree, names=False, classes=classes) == {"Poly.zero", "zero", "other"}


def test_every_top_level_definition_is_reached():
    assert _unreached() == []


def test_the_reference_debt_is_the_listed_move_list():
    # the functions that only a tracer's name string keeps in src/: each is a
    # reference that tests compare the bulk routes against, to move into
    # tests/ once the tracer stops naming it; a new member, or a member that
    # gains a caller, fails here (methods are left out: _Parser.error, say,
    # is called by argparse)
    functions = {label for label in _unreached(strings=False) if "." not in label.split(":")[1]}
    assert functions == {
        "discrepancy.py:star_discrepancy_1d",
        "discrepancy.py:save_point_set",
        "plattice.py:plattice_point_matrix",
        "search.py:negative_control_report",
        "seqgen.py:hybrid_point",
    }
