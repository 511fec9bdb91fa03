"""Exact star discrepancy and the rigorous hybrid-set bound certificate.

The exact oracle walks the critical-corner grid: for every corner whose
coordinates come from the per-dimension candidate sets (distinct point
values plus 1) it evaluates both one-sided deviations, counting strictly
for the open box and inclusively for the closed one.  All arithmetic is
integer-exact after rescaling each dimension to a common denominator;
a numpy cumulative-histogram path accelerates large grids without
leaving integers.

The certificate assembles an upper bound on N~ * D* of every hybrid
prefix from per-level worst cases: digit blocks of size p^u, residue
classes grouped by modulus shape, and the Walsh-sum bound per shape.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .gfpoly import BasePRational, ParseError, Poly, as_prime, poly_gcd
from .plattice import LatticeConfig
from .seqgen import HaltonConfig
from .walsh import _modulus_bound

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

DEFAULT_ORACLE_BUDGET = 10**8
_NUMPY_THRESHOLD = 1 << 14


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its configured budget."""


def oracle_budget() -> int:
    return int(os.environ.get("HYBRIDQMC_ORACLE_BUDGET", DEFAULT_ORACLE_BUDGET))


def _to_fraction(x) -> Fraction:
    if isinstance(x, BasePRational):
        return x.as_fraction()
    return Fraction(x)


class PointSetD:
    """A finite multiset of points in [0,1)^dim with exact coordinates."""

    def __init__(self, points):
        rows = [tuple(pt) for pt in points]
        if not rows:
            raise ValueError("empty point set")
        dim = len(rows[0])
        if dim < 1:
            raise ValueError("points need at least one coordinate")
        fracs = []
        for pt in rows:
            if len(pt) != dim:
                raise ValueError("dimension mismatch")
            row = tuple(_to_fraction(c) for c in pt)
            for c in row:
                if not 0 <= c < 1:
                    raise ValueError("coordinates must lie in [0, 1)")
            fracs.append(row)
        self.points = tuple(rows)
        self.fractions = tuple(fracs)
        self.dim = dim
        self.n = len(rows)

    def project(self, keep) -> "PointSetD":
        keep = tuple(keep)
        return PointSetD([tuple(pt[i] for i in keep) for pt in self.points])

    def prefix(self, count: int) -> "PointSetD":
        if not 1 <= count <= self.n:
            raise ValueError("bad prefix length")
        return PointSetD(self.points[:count])


def counting_function(points: PointSetD, corner) -> int:
    """Exact number of points inside the half-open box [0, corner)."""
    corner = [_to_fraction(c) for c in corner]
    if len(corner) != points.dim:
        raise ValueError("dimension mismatch")
    for c in corner:
        if not 0 < c <= 1:
            raise ValueError("corner coordinates must lie in (0, 1]")
    return sum(
        1 for pt in points.fractions if all(x < c for x, c in zip(pt, corner))
    )


def _rescaled_columns(points: PointSetD, extra_candidates=None):
    """Per-dimension common denominators, point numerators, and candidate
    corner numerators (distinct values plus 1, plus any extras)."""
    denoms = []
    numerators = []
    cands = []
    extras = extra_candidates or [() for _ in range(points.dim)]
    for i in range(points.dim):
        col = [pt[i] for pt in points.fractions]
        extra = [_to_fraction(e) for e in extras[i]]
        d = lcm(*(c.denominator for c in col), *(e.denominator for e in extra), 1)
        nums = [int(c * d) for c in col]
        cand = sorted({*nums, d, *(int(e * d) for e in extra if 0 < e <= 1)})
        denoms.append(d)
        numerators.append(nums)
        cands.append(cand)
    return denoms, numerators, cands


def star_discrepancy_1d(points: PointSetD) -> Fraction:
    """Sorted-order formula for one-dimensional exact star discrepancy."""
    if points.dim != 1:
        raise ValueError("sorted-order formula needs dimension 1")
    xs = sorted(c[0] for c in points.fractions)
    n = points.n
    best = Fraction(0)
    for i, x in enumerate(xs, start=1):
        best = max(best, Fraction(i, n) - x, x - Fraction(i - 1, n))
    return best


def star_discrepancy_exact(
    points: PointSetD,
    budget: int | None = None,
    extra_candidates=None,
) -> Fraction:
    """Exact D* over the critical-corner grid; exact rational result."""
    if points.dim > 4:
        raise ValueError("exact oracle supports dimension <= 4")
    if budget is None:
        budget = oracle_budget()
    denoms, numerators, cands = _rescaled_columns(points, extra_candidates)
    cells = 1
    for c in cands:
        cells *= len(c)
    if cells > budget:
        raise BudgetExceededError(
            f"corner grid of {cells} cells exceeds budget {budget}; "
            "use the 1-D sorted formula or the certificate bound mode"
        )
    n = points.n
    big_q = 1
    for d in denoms:
        big_q *= d
    use_numpy = (
        _np is not None
        and cells >= _NUMPY_THRESHOLD
        and n * big_q < 2**62
    )
    if use_numpy:
        m1, m2 = _grid_extremes_numpy(n, denoms, numerators, cands)
    else:
        m1, m2 = _grid_extremes_python(n, denoms, numerators, cands)
    return Fraction(max(m1, m2, 0), n * big_q)


def _grid_extremes_python(n, denoms, numerators, cands):
    # volume of a corner is prod(c_i)/prod(d_i); scores are kept as the
    # integer numerators over n * prod(d_i)
    big_q = 1
    for d in denoms:
        big_q *= d
    rows = list(zip(*numerators))
    m1 = m2 = None
    for corner in itertools.product(*cands):
        closed = opened = 0
        for row in rows:
            inside_closed = True
            inside_open = True
            for x, c in zip(row, corner):
                if x > c:
                    inside_closed = False
                    inside_open = False
                    break
                if x == c:
                    inside_open = False
            if inside_closed:
                closed += 1
                if inside_open:
                    opened += 1
        vol = 1
        for c in corner:
            vol *= c
        v1 = closed * big_q - n * vol
        v2 = n * vol - opened * big_q
        if m1 is None or v1 > m1:
            m1 = v1
        if m2 is None or v2 > m2:
            m2 = v2
    return m1, m2


def _grid_extremes_numpy(n, denoms, numerators, cands):
    dim = len(denoms)
    big_q = 1
    for d in denoms:
        big_q *= d
    uniq = [sorted(set(col)) for col in numerators]
    hist = _np.zeros([len(u) for u in uniq], dtype=_np.int32)
    idx = tuple(
        _np.searchsorted(_np.asarray(u, dtype=_np.int64), _np.asarray(col, dtype=_np.int64))
        for u, col in zip(uniq, numerators)
    )
    _np.add.at(hist, idx, 1)
    for axis in range(dim):
        hist = hist.cumsum(axis=axis, dtype=_np.int32)
    padded = _np.zeros([s + 1 for s in hist.shape], dtype=_np.int64)
    padded[(slice(1, None),) * dim] = hist
    closed_idx = [
        _np.asarray([bisect_right(u, c) for c in cs], dtype=_np.intp)
        for u, cs in zip(uniq, cands)
    ]
    open_idx = [
        _np.asarray([bisect_left(u, c) for c in cs], dtype=_np.intp)
        for u, cs in zip(uniq, cands)
    ]
    cand_arrays = [_np.asarray(cs, dtype=_np.int64) for cs in cands]
    if dim == 1:
        lead_vol = _np.int64(1)
    else:
        lead_vol = cand_arrays[0]
        for arr in cand_arrays[1:-1]:
            lead_vol = lead_vol[..., None] * arr
    m1 = m2 = None
    last = dim - 1
    for j, c_last in enumerate(cand_arrays[-1].tolist()):
        sel_closed = padded[_np.ix_(*closed_idx[:last], closed_idx[last][j : j + 1])]
        sel_open = padded[_np.ix_(*open_idx[:last], open_idx[last][j : j + 1])]
        sel_closed = sel_closed[..., 0]
        sel_open = sel_open[..., 0]
        vol = lead_vol * c_last
        v1 = int((sel_closed * big_q - n * vol).max())
        v2 = int((n * vol - sel_open * big_q).max())
        if m1 is None or v1 > m1:
            m1 = v1
        if m2 is None or v2 > m2:
            m2 = v2
    return m1, m2


def superposition_bound(parts) -> Fraction:
    """sum N_i * D_i: discrepancy bound for a union of point sets."""
    total = Fraction(0)
    for n_i, d_i in parts:
        if n_i < 1:
            raise ValueError("part sizes must be >= 1")
        total += n_i * d_i
    return total


def prefix_reduction_bound(points: PointSetD, budget: int | None = None) -> Fraction:
    """max over prefixes of N~ * D* of the anchor-stripped projection, plus 1.

    Requires the first coordinate of the n-th point to equal n/N; the value
    bounds N * D* of the anchored set from above.
    """
    n = points.n
    for i, pt in enumerate(points.fractions):
        if pt[0] != Fraction(i, n):
            raise ValueError("first-coordinate pattern violated")
    if points.dim < 2:
        raise ValueError("anchored sets need at least two coordinates")
    tail = points.project(range(1, points.dim))
    best = Fraction(0)
    for count in range(1, n + 1):
        d = star_discrepancy_exact(tail.prefix(count), budget=budget)
        best = max(best, count * d)
    return best + 1


@dataclass(frozen=True)
class ShapeContribution:
    """One modulus shape at one block level of the certificate."""

    exponents: tuple
    deg_modulus: int
    d: int
    multiplicity: int
    class_bound: object

    def as_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "degB": self.deg_modulus,
            "d": self.d,
            "multiplicityBound": self.multiplicity,
            "classBound": float(self.class_bound),
        }


@dataclass(frozen=True)
class LevelBreakdown:
    u: int
    value: object
    shapes: tuple

    def as_dict(self) -> dict:
        return {
            "u": self.u,
            "value": float(self.value),
            "shapes": [s.as_dict() for s in self.shapes],
        }


@dataclass(frozen=True)
class Certificate:
    """Per-level breakdown of the rigorous hybrid discrepancy bound."""

    p: int
    m: int
    s: int
    t: int
    total: object
    per_level: tuple

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "s": self.s,
            "t": self.t,
            "total": float(self.total),
            "perLevel": [lv.as_dict() for lv in self.per_level],
        }

    def recomputed_total(self):
        tail = sum(lv.value for lv in self.per_level[:-1])
        return 1 + self.per_level[-1].value + (self.p - 1) * tail


def discrepancy_certificate(
    m: int, halton_cfg: HaltonConfig, lattice_cfg: LatticeConfig
) -> Certificate:
    """Computable upper bound on N~ * D* of every hybrid prefix N~ <= p^m.

    Levels u = 0..m bound the worst aligned block of p^u indices; at each
    level the anchored-box decomposition is grouped by modulus shape
    prod b_i^(j_i) with 1 <= j_i <= ceil(u/e_i).  A shape contributes its
    class-multiplicity bound times the Walsh-sum bound (or 1 when the
    modulus degree exceeds u).  The multiplicity is prod (p^(e_i) - 1),
    with one extra class at j_i = ceil(u/e_i) covering boxes that span a
    full coordinate.
    """
    p = halton_cfg.p
    if lattice_cfg.p != p:
        raise ValueError("prime mismatch between Halton and lattice parts")
    if lattice_cfg.m != m:
        raise ValueError("lattice modulus degree must equal m")
    for b in halton_cfg.bases:
        if poly_gcd(b, lattice_cfg.modulus).degree != 0:
            raise ValueError("Halton base shares a factor with the lattice modulus")
    degrees = halton_cfg.degrees
    s = halton_cfg.s
    levels = [LevelBreakdown(0, Fraction(1), ())]
    for u in range(1, m + 1):
        f = [-(-u // e) for e in degrees]
        shapes = []
        value = Fraction(s)
        for exps in itertools.product(*(range(1, fi + 1) for fi in f)):
            deg_b = sum(e * j for e, j in zip(degrees, exps))
            mult = 1
            for e, j, fi in zip(degrees, exps, f):
                mult *= (p**e - 1) + (1 if j == fi else 0)
            d = u - deg_b
            if d < 0:
                bound = Fraction(1)
            else:
                modulus = Poly.one(p)
                for b, j in zip(halton_cfg.bases, exps):
                    for _ in range(j):
                        modulus = modulus * b
                bound = _modulus_bound(lattice_cfg, modulus, d)
            shapes.append(ShapeContribution(exps, deg_b, d, mult, bound))
            value += mult * bound
        levels.append(LevelBreakdown(u, value, tuple(shapes)))
    total = 1 + levels[m].value + (p - 1) * sum(lv.value for lv in levels[:m])
    return Certificate(p, m, s, len(lattice_cfg.generators), total, tuple(levels))


_HEADER_KEYS = ("p", "m", "dim", "count")


def _decimal_token(value: Fraction, precision: int) -> str:
    scaled = value * 10**precision
    rounded = scaled.numerator // scaled.denominator
    if 2 * (scaled - rounded) >= 1:
        rounded += 1
    digits = str(rounded).rjust(precision + 1, "0")
    return f"{digits[:-precision]}.{digits[-precision:]}"


def format_point_line(point, fmt: str = "rational", precision: int = 12) -> str:
    """One output line: space-separated coordinate tokens."""
    tokens = []
    for c in point:
        if fmt == "rational":
            if isinstance(c, BasePRational):
                tokens.append(c.token())
            else:
                f = _to_fraction(c)
                tokens.append(f"{f.numerator}/{f.denominator}")
        elif fmt == "decimal":
            tokens.append(_decimal_token(_to_fraction(c), precision))
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return " ".join(tokens)


def save_point_set(path, points, meta: dict, fmt: str = "rational", precision: int = 12):
    """Write header lines '# key=value' then one point per line, atomically."""
    lines = []
    for key in _HEADER_KEYS:
        if key in meta:
            lines.append(f"# {key}={meta[key]}")
    for pt in points:
        lines.append(format_point_line(pt, fmt, precision))
    write_atomic(path, "\n".join(lines) + "\n")


def write_atomic(path, text: str):
    """Write ASCII text to path through a fresh temporary file next to it,
    renamed into place on success and removed on failure."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_point_set(path):
    """Read a point file back; returns (PointSetD, meta)."""
    meta: dict = {}
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = _parse_header_value(key.strip(), val.strip(), line)
                continue
            rows.append(tuple(_parse_coordinate(tok, meta) for tok in line.split()))
    if not rows:
        raise ValueError(f"no points in {path}")
    return PointSetD(rows), meta


def _parse_header_value(key: str, text: str, line: str) -> int:
    try:
        return as_prime(int(text)) if key == "p" else int(text)
    except ValueError as exc:
        raise ParseError(f"bad header {key}={text}: {exc}", line.index("=") + 1) from None


def _parse_coordinate(token: str, meta: dict):
    if "/" in token:
        num_s, _, den_s = token.partition("/")
        num, den = int(num_s), int(den_s)
        p = meta.get("p")
        if p:
            exponent = 0
            d = den
            while d % p == 0:
                d //= p
                exponent += 1
            if d == 1:
                return BasePRational(p, num, exponent)
        return Fraction(num, den)
    return Fraction(token)
