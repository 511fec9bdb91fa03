"""The committed mutation list, tools/mutants.json, stays applicable: each
listed line still occurs exactly once in its file, so a kernel edit that
moves or rewrites it fails here instead of leaving the list stale.  The
mutants themselves run outside this suite (python tools/mutants.py)."""

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
            assert (ROOT / test.split("::")[0]).is_file(), (m["id"], test)
