"""src/ computes no trigonometric floats: Walsh weights are exact in Q(zeta_p).

An `ast` scan of every hybridqmc module fails if one imports cmath, or names
math.sin, math.cos, math.pi or math.fsum, as an attribute of the math module
(under any alias) or imported from it.  Float formulas of that kind belong in
tests/, as oracles.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hybridqmc").glob("*.py"))
FORBIDDEN = {"sin", "cos", "pi", "fsum"}


def _float_uses(tree) -> list:
    """Line-tagged uses of cmath or of a forbidden name of math in tree."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import cmath" for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(f"{node.lineno}: from cmath import")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"{node.lineno}: from math import {a.name}"
                for a in node.names
                if a.name in FORBIDDEN or a.name == "*"
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in FORBIDDEN
        ):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_modules_are_found():
    assert {"walsh.py", "suites.py"} <= {path.name for path in MODULES}


def test_the_scan_sees_each_form():
    source = (
        "import cmath\nimport math\nimport math as m\nfrom math import fsum\n"
        "from cmath import exp\nx = math.sin(m.pi)\ny = math.prod([1])\n"
    )
    assert _float_uses(ast.parse(source)) == [
        "1: import cmath",
        "4: from math import fsum",
        "5: from cmath import",
        "6: math.sin",
        "6: m.pi",
    ]


def test_no_float_trigonometry_in_src():
    found = [
        f"{path.name}:{use}"
        for path in MODULES
        for use in _float_uses(ast.parse(path.read_text(), path.name))
    ]
    assert found == []
