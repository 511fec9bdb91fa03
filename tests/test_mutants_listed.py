"""The committed mutation list, tools/mutants.json, stays applicable: each
listed line still occurs exactly once in its file, and each listed test id
names a top-level test function of its file, so a kernel edit that moves or
rewrites a line, or a test that is renamed or replaced, fails here instead of
leaving the list stale.  The mutants themselves run outside this suite
(python tools/mutants.py)."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_listed_line_occurs_once_in_its_file():
    listed = mutants.load_mutants()
    assert len({m["id"] for m in listed}) == len(listed)
    for m in listed:
        text = (ROOT / m["file"]).read_text()
        mutated = mutants.apply_mutant(text, m["original"], m["replacement"])
        assert mutated != text, m["id"]
        for test in m["tests"]:
            path, _, name = test.partition("::")
            assert (ROOT / path).is_file(), (m["id"], test)
            assert not name or name in _test_functions(path), (m["id"], test)


def _test_functions(path):
    """The names of the top-level test functions of a test file."""
    tree = ast.parse((ROOT / path).read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
