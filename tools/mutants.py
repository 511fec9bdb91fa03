"""Run the committed mutation list, tools/mutants.json: each mutant is one
single-line fault in an exact kernel of src/, and its focused tests
should fail on it.

    python tools/mutants.py            # every mutant
    python tools/mutants.py ID [ID ...]

Each mutant runs on its own copy of src/ in a temporary directory: the
listed line is replaced there by plain text substitution, and the
focused tests run against the copy in a subprocess with -x -q.  Each
line of output reads killed or survived, with the time taken; a mutant
listed as equivalent computes the same results and is expected to
survive.  The exit status is 1 if any other mutant survives."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = Path(__file__).with_suffix(".json")


def load_mutants() -> list:
    return json.loads(LIST.read_text())["mutants"]


def apply_mutant(text: str, original: str, replacement: str) -> str:
    """text with its one line that reads `original`, indentation stripped,
    replaced by `replacement` at the same indentation."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == original]
    if len(hits) != 1:
        raise ValueError(f"{original!r} occurs {len(hits)} times, not once")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + replacement + "\n"
    return "".join(lines)


def run_mutant(mutant: dict) -> bool:
    """True if the focused tests fail on the mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        target = Path(tmp) / mutant["file"]
        target.write_text(apply_mutant(target.read_text(), mutant["original"], mutant["replacement"]))
        # the ini's pythonpath would put the checkout's src/ first; point it at the copy
        options = ["-x", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={tmp}/src"]
        command = [sys.executable, "-m", "pytest", *options, *[str(ROOT / t) for t in mutant["tests"]]]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        proc = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1):  # 1: a test failed; others: pytest itself did
            raise RuntimeError(f"{mutant['id']}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
        return proc.returncode == 1


def main(argv) -> int:
    mutants = load_mutants()
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print(f"unknown mutant ids: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    failed = 0
    for mutant in mutants:
        start = time.perf_counter()
        killed = run_mutant(mutant)
        note = " (equivalent)" if "equivalent" in mutant else ""
        print(f"{mutant['id']:<24} {'killed' if killed else 'survived'}{note}  {time.perf_counter() - start:.1f} s")
        failed += not killed and not note
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
