"""Exact star discrepancy and the rigorous hybrid-set bound certificate.

The exact oracle finds the largest one-sided deviation over the
critical-corner grid, whose coordinates come from the per-dimension
candidate sets (distinct point values plus 1), counting strictly for the
open box and inclusively for the closed one.  Each dimension is rescaled
to a common denominator, and one sweep along the axis with the most
candidates keeps running dominance counts over the other axes (Dobkin,
Eppstein & Mitchell 1996).  A step reads only the box of corners whose
counts the step's points change, since between changes a corner's excess
only falls and its deficit only grows; memory is the counts plus a few
scratch slices of the grid, and the arithmetic stays in integers: int32
while n Q < 2^31 for n points and Q the product of the common
denominators, int64 while n Q < 2^62, Python ints beyond.

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import add, itemgetter

import numpy as _np

from .gfpoly import BasePRational, ParseError, Poly, as_prime
from .plattice import LatticeConfig, _irreducible_modulus, coprime_to_irreducible
from .seqgen import HaltonConfig
from .walsh import _batch_bounds

DEFAULT_ORACLE_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when a computation would exceed its configured budget."""


class UsageError(ValueError):
    """A missing, malformed or out-of-range flag or setting (exit 1 in the CLI)."""


def env_budget(name: str, default: int) -> int:
    """The budget environment variable name sets, else default; as for
    --budget, a setting that is not an integer >= 1 is a usage error."""
    text = os.environ.get(name, str(default))
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise UsageError(f"{name} must be an integer >= 1, not {text!r}")


def oracle_budget() -> int:
    return env_budget("HYBRIDQMC_ORACLE_BUDGET", DEFAULT_ORACLE_BUDGET)


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


def _corner_grid(points: PointSetD, budget: int | None, readouts: int):
    """_rescaled_columns of points once the oracle's limits hold: dimension
    <= 4, and the grid's cells times readouts within budget (by default
    oracle_budget())."""
    if points.dim > 4:
        raise ValueError("exact oracle supports dimension <= 4")
    budget = oracle_budget() if budget is None else budget
    columns = _rescaled_columns(points)
    cells = prod(len(c) for c in columns[2])
    if readouts * cells > budget:
        raise BudgetExceededError(f"{cells} cells x {readouts} readouts exceed budget {budget}")
    return columns


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
    denoms, numerators, cands = _corner_grid(points, budget, 1)
    m1, m2 = _grid_extremes(points.n, denoms, numerators, cands)
    return Fraction(max(m1, m2, 0), points.n * prod(denoms))


def _lane_type(n: int, big_q: int):
    """The narrowest exact lanes of a sweep over n points whose common
    denominators multiply to big_q.  Its counts times big_q, and its volumes
    n or count times prod(cand) <= big_q and their partial products, lie in
    [0, n big_q], so every value it forms, a difference included, lies in
    [-n big_q, n big_q]."""
    return _np.int32 if n * big_q < 2**31 else _np.int64 if n * big_q < 2**62 else object


def _grid_extremes(n, denoms, numerators, cands):
    """Largest closed-box excess and open-box deficit over the corner grid,
    as integers over n * prod(denoms).

    Sweeps the axis with the most candidates, keeping the closed-box counts
    of every tail corner, scaled by prod(denoms), behind a zero slab on each
    tail axis; the open-box counts are that array shifted back one candidate
    per axis, read before the points at the current sweep value c0 are added
    (every point value is a candidate).  Those points change counts only in
    the box from their lowest index on each tail axis, and between changes
    c0 rises at volume >= 0, so a corner's excess only falls and its deficit
    only grows: a step reads the deficit on the box before the add and the
    excess after.  Untouched corners have excess <= 0, below the top tail
    corner's at the last point, and the last step, which adds no points,
    reads the whole slice's deficit.  A bucket on one index per tail axis adds
    len(rows) * prod(denoms) to its box as one scalar; another's histogram on
    the grid of its own tail indices is summed there, stretched by run lengths
    along each axis where it spreads and broadcast along the rest.  Memory is
    the counts, their volumes and three scratch slices, in int32 lanes while
    n * prod(denoms) < 2^31, int64 below 2^62, else Python ints (_lane_type).
    """
    big_q = prod(denoms)
    dtype = _lane_type(n, big_q)
    axis = max(range(len(cands)), key=lambda i: len(cands[i]))
    tail = [i for i in range(len(cands)) if i != axis]
    index = [{c: j for j, c in enumerate(cand)} for cand in cands]
    buckets = [[] for _ in cands[axis]]
    for row in zip(*numerators):
        buckets[index[axis][row[axis]]].append(tuple(index[i][row[i]] for i in tail))
    nvol = _np.array(n, dtype=dtype)
    for i in tail:
        nvol = _np.multiply.outer(nvol, _np.array(cands[i], dtype=dtype))
    counts = _np.zeros([len(cands[i]) + 1 for i in tail], dtype=dtype)
    closed = counts[(..., *[slice(1, None)] * len(tail))]
    opened = counts[(..., *[slice(-1)] * len(tail))]
    vols, works, spares = _np.empty((3, nvol.size), dtype=dtype)
    ramp = _np.arange(len(cands[axis]))
    excess, deficit = [], []
    for c0, rows in zip(cands[axis], buckets[:-1]):
        grids = [sorted(set(col)) for col in zip(*rows)]
        box = (..., *[slice(grid[0], None) for grid in grids])
        nv = nvol[box]
        vol, work = vols[: nv.size].reshape(nv.shape), works[: nv.size].reshape(nv.shape)
        deficit.append(_np.subtract(_np.multiply(nv, c0, out=vol), opened[box], out=work).max())
        dims = [len(grid) for grid in grids]
        spread = [ax for ax in range(len(tail)) if dims[ax] > 1]
        hist = len(rows) * big_q
        if spread:
            flat = [0] * len(rows)
            for k, grid in enumerate(grids):
                flat = [f * len(grid) + bisect_left(grid, row[k]) for f, row in zip(flat, rows)]
            # to the lanes before scaling: past int64, intp counts times big_q overflow
            hist = _np.bincount(flat, minlength=prod(dims)).astype(dtype).reshape(dims) * big_q
        for ax in spread:
            _np.add.accumulate(hist, ax, out=hist)
        for ax, buffer in zip(reversed(spread), itertools.cycle((works, spares))):
            runs = [b - a for a, b in zip(grids[ax], [*grids[ax][1:], closed.shape[ax]])]
            size = (*hist.shape[:ax], nv.shape[ax], *hist.shape[ax + 1 :])
            out = buffer[: prod(size)].reshape(size)
            # mode "raise", or an out that overlaps hist, would copy through a temporary
            hist = hist.take(ramp[: dims[ax]].repeat(runs), ax, out=out, mode="clip")
        target = closed[box]
        excess.append(_np.subtract(_np.add(target, hist, out=target), vol, out=work).max())
    vol, work = vols.reshape(nvol.shape), works.reshape(nvol.shape)
    _np.multiply(nvol, cands[axis][-1], out=vol)
    deficit.append(_np.subtract(vol, opened, out=work).max())
    return int(max(excess)), int(max(deficit))


def prefix_discrepancies(points: PointSetD, budget: int | None = None) -> list:
    """[c * D* of the first c points for c = 1..N], exact rationals, from one
    index-order sweep over the corner grid of the whole set, whose extra
    corners cannot raise D*; the budget counts cells times N readouts."""
    denoms, numerators, cands = _corner_grid(points, budget, points.n)
    big_q = prod(denoms)
    dtype = _lane_type(points.n, big_q)
    vol = functools.reduce(_np.multiply.outer, (_np.array(c, dtype=dtype) for c in cands))
    # closed counts times big_q behind a zero slab; open ones: shifted back one
    counts = _np.zeros([len(c) + 1 for c in cands], dtype=dtype)
    closed, opened = (slice(1, None),) * len(cands), (slice(None, -1),) * len(cands)
    index = [{c: j for j, c in enumerate(cand)} for cand in cands]
    cvol, work, scaled = _np.zeros_like(vol), _np.empty_like(vol), []  # cvol: count * vol
    for row in zip(*numerators):
        counts[tuple(slice(ix[x] + 1, None) for ix, x in zip(index, row))] += big_q
        cvol += vol
        excess = _np.subtract(counts[closed], cvol, out=work).max()
        worst = max(excess, _np.subtract(cvol, counts[opened], out=work).max(), 0)
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
class Certificate:
    """The hybrid discrepancy bound as integer numerators over p^m * (3p)^t:
    the total, the level values u = 0..m and, per level u >= 1, one class
    bound per shape of table[u - 1]; the total's Fraction is built on first
    read, and as_dict reads the rest straight off the integers."""

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

    def as_dict(self) -> dict:
        """The certificate as JSON values, each float num / den: the total
        and, per level u, its value and one entry per shape."""
        den, levels = self.denominator, []
        rows = zip(self.level_numerators, ((), *self.table), ((), *self.shape_numerators))
        for u, (num, table, nums) in enumerate(rows):
            shapes = [
                {
                    "exponents": list(exps), "degB": deg_b, "d": u - deg_b,
                    "multiplicityBound": mult, "classBound": bound / den,
                }
                for (exps, deg_b, mult, _), bound in zip(table, nums)
            ]
            levels.append({"u": u, "value": num / den, "shapes": shapes})
        return {
            "p": self.p,
            "m": self.m,
            "s": self.s,
            "t": self.t,
            "total": float(self.total),
            "perLevel": levels,
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
    as integers over p^m * (3p)^t, a column over the batch at a time: a
    shape's class bounds, read off one walsh batch, are one list over the
    candidates, a level is the element-wise sum of multiplicity times
    column, and the totals are one vector, den + L_m + (p-1) sum_(u<m) L_u.
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
    n, levels, shapes = len(qvecs), [], []
    for u, table in enumerate(tables, start=1):
        # one column of class numerators per shape over the batch, den for d < 0
        columns = [
            [den] * n if mod is None else list(map(itemgetter(u - deg_b), bounds[mod]))
            for _, deg_b, _, mod in table
        ]
        level = [halton_cfg.s * den] * n
        for (_, _, mult, _), column in zip(table, columns):
            level = list(map(add, level, map(mult.__mul__, column)))
        levels.append(level)
        shapes.append(zip(*columns))
    lower = functools.reduce(functools.partial(map, add), levels[:-1], itertools.repeat(den))
    totals = map(add, levels[-1], map((p - 1).__mul__, lower))
    return [
        Certificate(p, m, halton_cfg.s, t, den + total, nums, shape, tables)
        for total, nums, shape in zip(totals, zip(itertools.repeat(den), *levels), zip(*shapes))
    ]


def discrepancy_certificate(
    m: int, halton_cfg: HaltonConfig, lattice_cfg: LatticeConfig
) -> Certificate:
    """The certificate of one lattice configuration: a batch of one."""
    return certificates(m, halton_cfg, lattice_cfg.modulus, [lattice_cfg.generators])[0]


_HEADER_KEYS = ("p", "m", "dim", "count")
_COORDINATE = re.compile(r"[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?")  # decimal or rational, as written
# the longest decimal token that load_point_set reads back: int() of a
# string takes at most 4,300 digits (Python's default limit)
_MAX_PRECISION = 4300


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
    if fmt == "decimal" and not 1 <= precision <= _MAX_PRECISION:
        raise ValueError(f"decimal precision must be in 1..{_MAX_PRECISION}")
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
    at: dict = {}  # header key -> position of its value on its line
    rows = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if not line.isascii():
                raise ParseError("non-ASCII byte", re.search(r"[^\x00-\x7f]", line).start())
            if line.startswith("#"):
                key, eq, val = (part.strip() for part in line[1:].partition("="))
                if eq:
                    at[key] = line.index("=") + 1
                    meta[key] = _parse_header_value(key, val, line)
                continue
            rows.append(
                tuple(
                    _parse_coordinate(tok.group(), tok.start())
                    for tok in re.finditer(r"\S+", line)
                )
            )
    if not rows:
        raise ValueError(f"no points in {path}")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("dimension mismatch")
    for key, actual, what in (("dim", len(rows[0]), "columns"), ("count", len(rows), "rows")):
        if meta.get(key, actual) != actual:
            raise ParseError(f"header {key}={meta[key]}, but the file has {actual} {what}", at[key])
    # a lattice of p^m points has no more rows; p^min(m, bits) decides it for any m
    n, m = len(rows), meta.get("m")
    if "p" in meta and m is not None and n > meta["p"] ** min(m, n.bit_length()):
        raise ParseError(f"header m={m}, but the file has {n} rows, more than p^m", at["m"])
    return PointSetD._checked(tuple(rows)), meta


def _parse_header_value(key: str, text: str, line: str) -> int:
    try:
        value = as_prime(int(text)) if key == "p" else int(text)
        if key == "m" and value < 1:
            raise ValueError("m must be >= 1")
        return value
    except ValueError as exc:
        raise ParseError(f"bad header {key}={text}: {exc}", line.index("=") + 1) from None


def _parse_coordinate(token: str, position: int) -> Fraction:
    """A coordinate token: numerator/denominator or a decimal, in [0, 1)."""
    try:
        if not _COORDINATE.fullmatch(token):
            raise ValueError("not digits, then optionally .digits or /positive digits")
        num, slash, den = token.partition("/")
        value = Fraction(int(num), int(den)) if slash else Fraction(token)
    except ValueError as exc:
        raise ParseError(f"bad coordinate {token!r}: {exc}", position) from None
    if not 0 <= value < 1:
        raise ParseError(f"coordinate {token} outside [0, 1)", position)
    return value
