"""Answer checks and fingerprints; imports nothing of hybridqmc."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

WORKLOADS = ("search-t1", "search-t2", "oracle", "verify")
DEFAULT_SEED = 0
# p>2 merits are floats today; an exact rewrite moves them by far less
REL_TOL = 1e-9


def close(a: str, b: str) -> bool:
    x, y = float(Fraction(a)), float(Fraction(b))
    return abs(x - y) <= REL_TOL * abs(y)


def matches(expected, got) -> bool:
    """Exact equality, except that answers recorded with ties (p>2 merits)
    accept a merit within REL_TOL and any best candidate among the ties."""
    if expected is None or got is None:
        return False
    if "ties" not in expected:
        return got == expected
    fixed = ("best", "merit", "ties")
    return (
        got.get("best") in expected["ties"]
        and "merit" in got
        and close(got["merit"], expected["merit"])
        and {k: v for k, v in got.items() if k not in fixed}
        == {k: v for k, v in expected.items() if k not in fixed}
    )


def fingerprint_view(answer):
    """The answer as compared across commits: p>2 merits to 10 significant
    digits and without their tie lists."""
    if not answer or "ties" not in answer:
        return answer
    view = {k: v for k, v in answer.items() if k != "ties"}
    view["merit"] = f"{float(Fraction(answer['merit'])):.9e}"
    return view


def fingerprint(pairs) -> str:
    """sha256 over the (op_id, fingerprint view) pairs of one pass."""
    text = json.dumps([[op, fingerprint_view(a)] for op, a in pairs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
