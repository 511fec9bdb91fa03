"""Exact star discrepancy and the rigorous hybrid-set bound certificate.

The exact oracle evaluates both one-sided deviations at every corner of the
critical-corner grid, whose coordinates come from the per-dimension
candidate sets (distinct point values plus 1), counting strictly for the
open box and inclusively for the closed one.  Each dimension is rescaled
to a common denominator, and one sweep along the axis with the most
candidates keeps running dominance counts over the other axes (Dobkin,
Eppstein & Mitchell 1996): each corner is visited once, memory is one
slice of the grid, and the arithmetic stays in integers (int64 while it
cannot overflow, Python ints beyond).

The certificate assembles an upper bound on N~ * D* of every hybrid
prefix from per-level worst cases: digit blocks of size p^u, residue
classes grouped by modulus shape, and the Walsh-sum bound per shape.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

import numpy as _np

from .gfpoly import BasePRational, ParseError, Poly, as_prime
from .plattice import LatticeConfig, _irreducible_modulus, coprime_to_irreducible
from .seqgen import HaltonConfig
from .walsh import _batch_bounds

DEFAULT_ORACLE_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its configured budget."""


def oracle_budget() -> int:
    return int(os.environ.get("HYBRIDQMC_ORACLE_BUDGET", DEFAULT_ORACLE_BUDGET))


class PointSetD:
    """A finite multiset of points in [0,1)^dim with exact coordinates.

    fractions holds one tuple of Fraction rows: a Fraction,
    BasePRational included, is kept as given, anything else converted.
    """

    def __init__(self, points):
        rows = [tuple(pt) for pt in points]
        if not rows:
            raise ValueError("empty point set")
        dim = len(rows[0])
        if dim < 1:
            raise ValueError("points need at least one coordinate")
        for i, pt in enumerate(rows):
            if len(pt) != dim:
                raise ValueError("dimension mismatch")
            rows[i] = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in pt)
            if not all(0 <= c < 1 for c in rows[i]):
                raise ValueError("coordinates must lie in [0, 1)")
        self.fractions = tuple(rows)
        self.dim = dim
        self.n = len(rows)

    @classmethod
    def _checked(cls, rows: tuple) -> "PointSetD":
        """Rows of Fractions in [0, 1), all of one length, kept as given."""
        self = cls.__new__(cls)
        self.fractions = rows
        self.dim, self.n = len(rows[0]), len(rows)
        return self

    def project(self, keep) -> "PointSetD":
        keep = tuple(keep)
        if not keep:
            raise ValueError("points need at least one coordinate")
        return self._checked(tuple(tuple(pt[i] for i in keep) for pt in self.fractions))

    def prefix(self, count: int) -> "PointSetD":
        if not 1 <= count <= self.n:
            raise ValueError("bad prefix length")
        return self._checked(self.fractions[:count])


def _rescaled_columns(points: PointSetD):
    """Per-dimension common denominators, point numerators, and candidate
    corner numerators (distinct values plus 1)."""
    denoms = []
    numerators = []
    cands = []
    for i in range(points.dim):
        col = [pt[i] for pt in points.fractions]
        d = lcm(*(c.denominator for c in col))
        nums = [c.numerator * (d // c.denominator) for c in col]
        denoms.append(d)
        numerators.append(nums)
        cands.append(sorted({*nums, d}))
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


def star_discrepancy_exact(points: PointSetD, budget: int | None = None) -> Fraction:
    """Exact D* over the critical-corner grid; exact rational result."""
    if points.dim > 4:
        raise ValueError("exact oracle supports dimension <= 4")
    if budget is None:
        budget = oracle_budget()
    denoms, numerators, cands = _rescaled_columns(points)
    cells = 1
    for c in cands:
        cells *= len(c)
    if cells > budget:
        raise BudgetExceededError(
            f"corner grid of {cells} cells exceeds budget {budget}; "
            "use the 1-D sorted formula or the certificate bound mode"
        )
    m1, m2 = _grid_extremes(points.n, denoms, numerators, cands)
    return Fraction(max(m1, m2, 0), points.n * prod(denoms))


def _grid_extremes(n, denoms, numerators, cands):
    """Largest closed-box excess and open-box deficit over the corner grid,
    as integers over n * prod(denoms).

    Sweeps the axis with the most candidates and keeps the closed-box
    counts of every tail corner, scaled by prod(denoms), in one array with a
    zero slab in front of each tail axis.  The points of each sweep
    candidate are added as their histogram, summed along every tail axis
    over the box of corners at or above their lowest index on each axis, so
    a step costs a few passes over at most one slice.  The open-box counts
    are the same array shifted back one candidate on every axis, read before
    the points of the current sweep candidate are added: every point value
    is a candidate, so x < c_j exactly when x <= c_(j-1).
    """
    big_q = prod(denoms)
    dtype = _np.int64 if n * big_q < 2**62 else object
    axis = max(range(len(cands)), key=lambda i: len(cands[i]))
    tail = [i for i in range(len(cands)) if i != axis]
    index = [{c: j for j, c in enumerate(cand)} for cand in cands]
    buckets = [[] for _ in cands[axis]]
    for row in zip(*numerators):
        corner = tuple(index[i][row[i]] + 1 for i in tail)
        buckets[index[axis][row[axis]]].append(corner)
    nvol = _np.array(n, dtype=dtype)
    for i in tail:
        nvol = _np.multiply.outer(nvol, _np.array(cands[i], dtype=dtype))
    counts = _np.zeros([len(cands[i]) + 1 for i in tail], dtype=dtype)
    closed = (..., *[slice(1, None)] * len(tail))
    opened = (..., *[slice(None, -1)] * len(tail))
    excess = []
    deficit = []
    for c0, rows in zip(cands[axis], buckets):
        vol = nvol * c0
        deficit.append(_np.max(vol - counts[opened]))
        if rows:
            low = [min(col) for col in zip(*rows)]
            box = counts[(..., *(slice(j, None) for j in low))]
            strides = [prod(box.shape[k + 1 :]) for k in range(len(tail))]
            flat = [
                sum((j - lo) * s for j, lo, s in zip(row, low, strides)) for row in rows
            ]
            hist = _np.bincount(flat, minlength=box.size).reshape(box.shape)
            hist = hist.astype(dtype, copy=False) * big_q
            for ax in range(len(tail)):
                _np.cumsum(hist, axis=ax, out=hist)
            box += hist
        excess.append(_np.max(counts[closed] - vol))
    return int(max(excess)), int(max(deficit))


def prefix_discrepancies(points: PointSetD, budget: int | None = None) -> list:
    """[c * D* of the first c points for c = 1..N], exact rationals, from one
    index-order sweep over the corner grid of the whole set, whose extra
    corners cannot raise D*; the budget counts cells times N readouts."""
    if points.dim > 4:
        raise ValueError("exact oracle supports dimension <= 4")
    budget = oracle_budget() if budget is None else budget
    denoms, numerators, cands = _rescaled_columns(points)
    cells = prod(len(c) for c in cands)
    if points.n * cells > budget:
        raise BudgetExceededError(f"{points.n} prefixes x {cells} cells exceed budget {budget}")
    big_q = prod(denoms)
    dtype = _np.int64 if points.n * big_q < 2**62 else object
    vol = functools.reduce(_np.multiply.outer, (_np.array(c, dtype=dtype) for c in cands))
    # closed counts times big_q behind a zero slab; open ones: shifted back one
    counts = _np.zeros([len(c) + 1 for c in cands], dtype=dtype)
    closed, opened = (slice(1, None),) * len(cands), (slice(None, -1),) * len(cands)
    index = [{c: j for j, c in enumerate(cand)} for cand in cands]
    scaled = []
    for count, row in enumerate(zip(*numerators), start=1):
        counts[tuple(slice(ix[x] + 1, None) for ix, x in zip(index, row))] += big_q
        cvol = count * vol
        worst = max(_np.max(counts[closed] - cvol), _np.max(cvol - counts[opened]), 0)
        scaled.append(Fraction(int(worst), big_q))
    return scaled


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
    return max(prefix_discrepancies(tail, budget)) + 1


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
    """The hybrid discrepancy bound as integer numerators over p^m * (3p)^t:
    the total, level values u = 0..m and class bounds; the total's Fraction
    and per_level are built on first read."""

    p: int
    m: int
    s: int
    t: int
    total_numerator: int
    level_numerators: tuple
    shape_numerators: tuple
    table: tuple

    @property
    def denominator(self) -> int:
        return self.p**self.m * (3 * self.p) ** self.t

    @functools.cached_property
    def total(self) -> Fraction:
        return Fraction(self.total_numerator, self.denominator)

    @functools.cached_property
    def per_level(self) -> tuple:
        den = self.denominator
        levels = [LevelBreakdown(0, Fraction(1), ())]
        rows = zip(self.level_numerators[1:], self.table, self.shape_numerators)
        for u, (num, table, nums) in enumerate(rows, start=1):
            shapes = (
                ShapeContribution(exps, deg_b, u - deg_b, mult, Fraction(bound, den))
                for (exps, deg_b, mult, _), bound in zip(table, nums)
            )
            levels.append(LevelBreakdown(u, Fraction(num, den), tuple(shapes)))
        return tuple(levels)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "s": self.s,
            "t": self.t,
            "total": float(self.total),
            "perLevel": [lv.as_dict() for lv in self.per_level],
        }


@functools.lru_cache(maxsize=64)
def _shape_table(bases: tuple, pX: Poly) -> tuple:
    """Per level u = 1..m, one (exponents, deg B, multiplicity, modulus)
    per shape, the modulus prod b_i^(j_i) only where deg B <= u: the part
    of a certificate that depends on the Halton bases and the lattice
    modulus pX alone, which every base must be coprime to."""
    for b in bases:
        if not coprime_to_irreducible(b, pX):
            raise ValueError("Halton base shares a factor with the lattice modulus")
    p, m = pX.p, pX.degree
    degrees = [b.degree for b in bases]
    moduli = {}  # shape exponents -> prod b_i^(j_i), built once per table
    levels = []
    for u in range(1, m + 1):
        f = [-(-u // e) for e in degrees]
        shapes = []
        for exps in itertools.product(*(range(1, fi + 1) for fi in f)):
            deg_b = sum(e * j for e, j in zip(degrees, exps))
            mult = 1
            for e, j, fi in zip(degrees, exps, f):
                mult *= (p**e - 1) + (1 if j == fi else 0)
            modulus = None
            if deg_b <= u:
                if exps not in moduli:
                    factors = (b for b, j in zip(bases, exps) for _ in range(j))
                    moduli[exps] = prod(factors, start=Poly.one(p))
                modulus = moduli[exps]
            shapes.append((exps, deg_b, mult, modulus))
        levels.append(tuple(shapes))
    return tuple(levels)


def certificates(m: int, halton_cfg: HaltonConfig, pX: Poly, qvecs) -> list:
    """The Certificate of every generator tuple of qvecs, in input order: a
    computable upper bound on N~ * D* of every hybrid prefix N~ <= p^m for
    the Halton part halton_cfg and the lattice on pX with those generators.

    Levels u = 0..m bound the worst aligned block of p^u indices; at each
    level the anchored-box decomposition is grouped by modulus shape
    prod b_i^(j_i) with 1 <= j_i <= ceil(u/e_i).  A shape contributes its
    class-multiplicity bound times the Walsh-sum bound (or 1 when the
    modulus degree exceeds u).  The multiplicity is prod (p^(e_i) - 1),
    with one extra class at j_i = ceil(u/e_i) covering boxes that span a
    full coordinate.  Class bounds, level values and the total are summed
    as integers over p^m * (3p)^t; the class bounds of every shape and
    candidate come from one walsh batch, which builds one bound tuple per
    residue.
    """
    p, qvecs = halton_cfg.p, [tuple(qvec) for qvec in qvecs]
    if pX.p != p:
        raise ValueError("prime mismatch between Halton and lattice parts")
    if pX.degree != m:
        raise ValueError("lattice modulus degree must equal m")
    if not pX.is_monic or not _irreducible_modulus(pX):
        raise ValueError("modulus must be monic irreducible")
    if not qvecs:
        return []
    t = len(qvecs[0])
    for qvec in qvecs:
        if len(qvec) != t or not all(q.p == p and 0 <= q.degree < m for q in qvec):
            raise ValueError(f"need {t} nonzero generators of degree < m over GF({p}) each")
    den = p**m * (3 * p) ** t
    tables = _shape_table(halton_cfg.bases, pX)
    moduli = list(dict.fromkeys(mod for table in tables for *_, mod in table if mod is not None))
    bounds = dict(zip(moduli, _batch_bounds(pX, moduli, qvecs)))
    # per level: (multiplicity, d, bound tuples per candidate or None for d < 0)
    rows = [
        [(mult, u - deg_b, bounds.get(mod)) for _, deg_b, mult, mod in table]
        for u, table in enumerate(tables, start=1)
    ]
    s_den = halton_cfg.s * den
    out = []
    for j in range(len(qvecs)):
        levels, shapes = [den], []
        for row in rows:
            nums = tuple(den if col is None else col[j][d] for _, d, col in row)
            levels.append(s_den + sum(mult * num for (mult, _, _), num in zip(row, nums)))
            shapes.append(nums)
        total = den + levels[m] + (p - 1) * sum(levels[:m])
        out.append(
            Certificate(p, m, halton_cfg.s, t, total, tuple(levels), tuple(shapes), tables)
        )
    return out


def discrepancy_certificate(
    m: int, halton_cfg: HaltonConfig, lattice_cfg: LatticeConfig
) -> Certificate:
    """The certificate of one lattice configuration: a batch of one."""
    return certificates(m, halton_cfg, lattice_cfg.modulus, [lattice_cfg.generators])[0]


_HEADER_KEYS = ("p", "m", "dim", "count")


def _decimal_token(value: Fraction, precision: int) -> str:
    scaled = value * 10**precision
    rounded = scaled.numerator // scaled.denominator
    if 2 * (scaled - rounded) >= 1:
        rounded += 1
    # coordinates lie in [0, 1): a value that rounds up to 1 prints as the
    # largest token below 1, so the file reads back
    rounded = min(rounded, 10**precision - 1)
    digits = str(rounded).rjust(precision + 1, "0")
    return f"{digits[:-precision]}.{digits[-precision:]}"


def format_point_line(point, fmt: str = "rational", precision: int = 12) -> str:
    """One output line: space-separated coordinate tokens."""
    if fmt == "decimal" and precision < 1:
        raise ValueError("decimal precision must be >= 1")
    tokens = []
    for c in point:
        if fmt == "rational":
            if isinstance(c, BasePRational):
                tokens.append(c.token())
            else:
                f = Fraction(c)
                tokens.append(f"{f.numerator}/{f.denominator}")
        elif fmt == "decimal":
            tokens.append(_decimal_token(Fraction(c), precision))
        else:
            raise ValueError(f"unknown format {fmt!r}")
    return " ".join(tokens)


def point_file_lines(points, meta: dict, fmt: str = "rational", precision: int = 12):
    """Yield the header lines '# key=value' for the header keys in meta, then
    one line per point, each ending in a newline; points is read lazily."""
    for key in _HEADER_KEYS:
        if key in meta:
            yield f"# {key}={meta[key]}\n"
    for pt in points:
        yield format_point_line(pt, fmt, precision) + "\n"


def save_point_set(path, points, meta: dict, fmt: str = "rational", precision: int = 12):
    """Write the point file lines of points and meta atomically."""
    write_atomic(path, point_file_lines(points, meta, fmt, precision))


def write_atomic(path, lines):
    """Write an iterable of ASCII strings to path through a fresh temporary
    file next to it, renamed into place on success and removed on failure."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="ascii") as fh:
            fh.writelines(lines)
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
            rows.append(
                tuple(
                    _parse_coordinate(tok.group(), tok.start(), meta)
                    for tok in re.finditer(r"\S+", line)
                )
            )
    if not rows:
        raise ValueError(f"no points in {path}")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("dimension mismatch")
    return PointSetD._checked(tuple(rows)), meta


def _parse_header_value(key: str, text: str, line: str) -> int:
    try:
        return as_prime(int(text)) if key == "p" else int(text)
    except ValueError as exc:
        raise ParseError(f"bad header {key}={text}: {exc}", line.index("=") + 1) from None


def _parse_coordinate(token: str, position: int, meta: dict):
    """A coordinate token: numerator/denominator or a decimal, in [0, 1).
    Under a '# p=' header a power-of-p denominator gives a BasePRational."""
    num_s, slash, den_s = token.partition("/")
    try:
        if not slash:
            value = Fraction(token)
        else:
            num, den = int(num_s), int(den_s)
            if den <= 0:
                raise ValueError("denominator must be positive")
    except ValueError as exc:
        raise ParseError(f"bad coordinate {token!r}: {exc}", position) from None
    if not (0 <= num < den if slash else 0 <= value < 1):
        raise ParseError(f"coordinate {token} outside [0, 1)", position)
    if not slash:
        return value
    p, exponent, rest = meta.get("p"), 0, den
    while p and rest % p == 0:
        rest, exponent = rest // p, exponent + 1
    return BasePRational(p, num, exponent) if p and rest == 1 else Fraction(num, den)
