"""Write answers.json: the expected answer of every operation any seed can
produce, computed by the current hybridqmc.

    PYTHONPATH=src python3 bench/make_answers.py [workload ...]

Named workloads are recomputed and merged into the existing file; with no
names, the file is rebuilt from every workload.  Run it only when an answer is meant to change, and say why
in the commit that changes answers.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import WORKLOADS  # noqa: E402
from workloads import every_op  # noqa: E402

ANSWERS = BENCH_DIR / "answers.json"


def main(argv=None) -> int:
    named = sys.argv[1:] if argv is None else argv
    names = named or list(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    answers = json.loads(ANSWERS.read_text()) if named and ANSWERS.exists() else {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as workdir:
            for op_id, run in every_op(name, workdir):
                start = time.perf_counter()
                answers[op_id] = run()
                print(f"{name}: {op_id} ({time.perf_counter() - start:.1f} s)", flush=True)
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
