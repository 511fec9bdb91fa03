"""Walsh characters, their decay weights, and sub-lattice character sums.

Character sums over a sub-lattice are held as exponent-count
accumulators so the central zero-or-full dichotomy is decided in exact
integer arithmetic; complex values only materialize for display.  The
weight attached to a frequency k with leading base-p digit K at level g
is 1 / (p^(g+1) * sin(pi*K/p)^2), which is exactly 2^-(g+1) for p = 2
and makes the closed-form total weight identity exact for every prime.
The Walsh bound sums these weights over the dual of a sub-lattice from
the sub-lattice's points, where the weighted Walsh series is rational,
so bounds are exact rationals for every prime; for one generator the
sum over the points is read off the rank profile of their digit map.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .gfpoly import (
    BasePRational,
    Poly,
    laurent_coeffs,
    poly_from_int,
    poly_is_irreducible,
    valuation,
)
from .plattice import (
    LatticeConfig,
    SubLatticeSpec,
    _check_sublattice,
    digit_images,
    hankel_block,
    sublattice_enumerate,
    sublattice_matrices,
)


def walsh_exponent(k: int, x: BasePRational) -> int:
    """e(walsh_exponent/p) is the k-th Walsh character at x: the exponent is
    the digit dot product sum_j k_j * x_{j+1} mod p."""
    if k < 0:
        raise ValueError("frequency must be >= 0")
    p = x.p
    total = 0
    j = 1
    while k:
        k, kj = divmod(k, p)
        if kj:
            total += kj * x.digit(j)
        j += 1
    return total % p


def walsh_exponent_vec(kvec, point) -> int:
    """Exponent of the product character over a coordinate tuple."""
    p = point[0].p
    return sum(walsh_exponent(k, x) for k, x in zip(kvec, point)) % p


def walsh_weight(k: int, p: int):
    """Decay weight of frequency k; exact dyadic for p = 2, float otherwise."""
    if k < 0:
        raise ValueError("frequency must be >= 0")
    if k == 0:
        return Fraction(1) if p == 2 else 1.0
    g = 0
    lead = k
    while lead >= p:
        lead //= p
        g += 1
    if p == 2:
        return Fraction(1, 2 ** (g + 1))
    return 1.0 / (p ** (g + 1) * math.sin(math.pi * lead / p) ** 2)


def walsh_weight_vec(kvec, p: int):
    """Product weight over the components of a frequency tuple."""
    w = Fraction(1) if p == 2 else 1.0
    for k in kvec:
        w *= walsh_weight(k, p)
    return w


def walsh_weight_total(p: int, m: int, t: int, mode: str = "closed"):
    """Total weight over all frequency tuples below p^m per component.

    closed: (1 + m*(p^2-1)/(3p))^t, exact rational.
    direct: literal summation of the product weights; exact for p = 2.
    """
    if m < 1 or t < 0:
        raise ValueError("need m >= 1 and t >= 0")
    if mode == "closed":
        return (1 + Fraction(m * (p * p - 1), 3 * p)) ** t
    if mode != "direct":
        raise ValueError(f"unknown mode {mode!r}")
    per_k = [walsh_weight(k, p) for k in range(p**m)]
    terms = (
        math.prod(per_k[k] for k in kvec)
        for kvec in itertools.product(range(p**m), repeat=t)
    )
    return sum(terms, Fraction(0)) if p == 2 else math.fsum(terms)


@dataclass(frozen=True)
class CharacterAccumulator:
    """counts[a] summands with character exponent a; the complex sum is
    sum_a counts[a] * e(a/p)."""

    p: int
    counts: tuple

    def __post_init__(self):
        if len(self.counts) != self.p:
            raise ValueError("need one count per residue")

    @classmethod
    def from_exponents(cls, p: int, exponents) -> "CharacterAccumulator":
        counts = [0] * p
        for a in exponents:
            counts[a % p] += 1
        return cls(p, tuple(counts))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def is_real_full(self) -> bool:
        """All summands at exponent zero: the sum is the real number total."""
        return self.counts[0] == self.total

    @property
    def is_aligned(self) -> bool:
        """All mass in a single exponent class: |sum| equals total (the
        residue shift only contributes a unimodular factor)."""
        return self.total in self.counts

    @property
    def is_uniform(self) -> bool:
        """Counts equal across residues: the sum vanishes."""
        return len(set(self.counts)) == 1

    def magnitude(self) -> int:
        """|sum| as an exact integer; raises if the dichotomy fails."""
        if self.is_aligned:
            return self.total
        if self.is_uniform:
            return 0
        raise ArithmeticError("character sum is neither full nor zero")

    def complex_value(self) -> complex:
        return sum(
            c * cmath.exp(2j * cmath.pi * a / self.p)
            for a, c in enumerate(self.counts)
        )


def character_sum(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> CharacterAccumulator:
    """Exact exponent accumulator of the k-th character over the sub-lattice."""
    kvec = tuple(kvec)
    if len(kvec) != cfg.t:
        raise ValueError("frequency tuple length must equal the lattice dimension")
    points = sublattice_enumerate(spec, cfg)
    return CharacterAccumulator.from_exponents(
        cfg.p, (walsh_exponent_vec(kvec, pt) for pt in points)
    )


def dual_test_matrix(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> bool:
    """True when the transposed affine digit maps annihilate the frequency:
    sum_i C_i^T k_i = 0 in GF(p)^d (vacuous for d = 0)."""
    p, d = cfg.p, spec.d
    if d == 0:
        return True
    matrices, _ = sublattice_matrices(spec, cfg)
    # base-p digits of each k_i, least significant first; missing ones are 0
    kdigits = [poly_from_int(k, p).coeffs for k in kvec]
    for c in range(d):
        acc = 0
        for mat, kd in zip(matrices, kdigits):
            acc += sum(row[c] * kj for row, kj in zip(mat, kd))
        if acc % p:
            return False
    return True


def _combined_numerator(cfg: LatticeConfig, kvec) -> Poly:
    p = cfg.p
    acc = Poly.zero(p)
    for k, q in zip(kvec, cfg.generators):
        acc = acc + poly_from_int(k, p) * q
    return acc % cfg.modulus


@functools.lru_cache(maxsize=512)
def _combined_residues(cfg: LatticeConfig) -> tuple:
    """(kvec, (sum_i k_i*q_i) mod pX, weight) for every nonzero frequency
    tuple: the frequency side of the dual weight sum, kept as a desk-scale
    reference for _shape_sums."""
    out = []
    for kvec in itertools.product(range(cfg.p**cfg.m), repeat=cfg.t):
        if any(kvec):
            out.append(
                (kvec, _combined_numerator(cfg, kvec), walsh_weight_vec(kvec, cfg.p))
            )
    return tuple(out)


def dual_test_valuation(spec: SubLatticeSpec, cfg: LatticeConfig, kvec) -> bool:
    """True when the fractional part of (sum_i k_i*q_i)*B / pX sinks below
    X^-d, i.e. its valuation is < -d."""
    kvec = tuple(kvec)
    f = (_combined_numerator(cfg, kvec) * spec.cls.modulus) % cfg.modulus
    return valuation(f, cfg.modulus) < -spec.d


def count_low_valuation(pX: Poly, u: int) -> int:
    """Exhaustive count of nonzero a of degree < m with valuation(a/pX) < -u."""
    m = pX.degree
    if m < 1 or not pX.is_monic or not poly_is_irreducible(pX):
        raise ValueError("modulus must be monic irreducible")
    if not 0 <= u <= m:
        raise ValueError(f"level {u} outside [0, {m}]")
    count = 0
    for a in range(1, pX.p**m):
        if valuation(poly_from_int(a, pX.p), pX) < -u:
            count += 1
    return count


def _scaled_phi(digits, p: int) -> int:
    """3p * phi(x), phi(x) = sum_{k < p^m} w(k) wal_k(x) for the m-digit x:
    3p + (z+1)(p^2-1) - 6a(p-a) after z zero digits and a first nonzero
    digit a, or 3p + m(p^2-1) when every digit is zero."""
    for z, a in enumerate(digits):
        if a:
            return 3 * p + (z + 1) * (p * p - 1) - 6 * a * (p - a)
    return 3 * p + len(digits) * (p * p - 1)


@functools.lru_cache(maxsize=1024)
def _laurent_digits(cfg: LatticeConfig) -> tuple:
    """The 2m - 1 leading Laurent digits (a_1, ..., a_{2m-1}) of each
    q_i/pX: the digit map of every shape B of the lattice is read off them."""
    return tuple(laurent_coeffs(q, cfg.modulus, 2 * cfg.m - 1) for q in cfg.generators)


def _shape_maps(cfg: LatticeConfig, modulus: Poly) -> list:
    """The m x (m - deg B) digit map of {B*q_i/pX} for each generator.  Its
    digits are c_k = sum_j b_j a_{k+j} mod p, the convolution of B's
    coefficients with the Laurent digits of q_i/pX."""
    p, m = cfg.p, cfg.m
    dmax = m - modulus.degree
    length = m + dmax - 1
    maps = []
    for a in _laurent_digits(cfg):
        digits = [0] * length
        for j, b in enumerate(modulus.coeffs):
            if b:
                digits = [x + b * y for x, y in zip(digits, a[j : j + length])]
        maps.append(hankel_block([x % p for x in digits], m, dmax))
    return maps


def _rank_profile_sums(rows, p: int, dmax: int) -> tuple:
    """S_d = sum_l 3p*phi(M l) over l in GF(p)^d for every d = 0..dmax at
    t = 1, from one elimination over the rows of M.

    phi(x) = 1 + sum_g [x_1 = ... = x_g = 0] f(x_(g+1)) with f of mean zero
    over GF(p) and f(0) = (p^2-1)/(3p).  On the kernel of rows 0..g-1 cut
    to d columns, row g is 0 where it depends on them and uniform over
    GF(p) where it does not, so
    S_d = 3p*p^d + (p^2-1) sum_g [row g depends] p^(d - rank of rows < g).
    Each reduced row keeps its pivot at its lowest nonzero column, so rows
    0..g-1 cut to d columns have rank #{their pivots < d}, and row g
    depends on them within d columns iff its own pivot is >= d (dmax for a
    row that reduces to zero)."""
    pivots = {}  # column -> reduced row with a 1 there and zeros before it
    lows = []
    for row in rows:
        low = next((c for c, x in enumerate(row) if x), dmax)
        while low in pivots:
            a = row[low]
            row = [(x - a * y) % p for x, y in zip(row, pivots[low])]
            start, low = low + 1, dmax
            for c in range(start, dmax):
                if row[c]:
                    low = c
                    break
        if low < dmax:
            inverse = pow(row[low], -1, p)
            pivots[low] = [x * inverse % p for x in row]
        lows.append(low)
    powers = [p**k for k in range(dmax + 1)]
    sums = []
    for d in range(dmax + 1):
        dependent, rank = 0, 0
        for low in lows:
            if low < d:
                rank += 1
            else:
                dependent += powers[d - rank]
        sums.append(3 * p * powers[d] + (p * p - 1) * dependent)
    return tuple(sums)


@functools.lru_cache(maxsize=4096)
def _shape_sums(cfg: LatticeConfig, modulus: Poly) -> tuple:
    """S_d = sum_l prod_i 3p*phi(x_i(l)) over the p^d points l*B, deg l < d,
    for every d = 0..m - deg B.

    At t = 1 every S_d comes from the rank profile of the one digit map.
    At t >= 2 they are prefix sums of one digit-map pass at the largest d,
    whose first p^d images (l_0 least significant) are those of the
    degree-<d block; a small d alone would still pay p^(m - deg B) images."""
    p, dmax = cfg.p, cfg.m - modulus.degree
    maps = _shape_maps(cfg, modulus)
    if cfg.t == 1:
        return _rank_profile_sums(maps[0], p, dmax)
    zero = (0,) * cfg.m
    columns = [digit_images(matrix, zero, p) for matrix in maps]
    prefix = list(
        itertools.accumulate(
            math.prod(_scaled_phi(x, p) for x in point) for point in zip(*columns)
        )
    )
    return tuple(prefix[p**d - 1] for d in range(dmax + 1))


@functools.lru_cache(maxsize=65536)
def _modulus_bound(cfg: LatticeConfig, modulus: Poly, d: int) -> Fraction:
    """t*p^(d-m) plus p^d times the dual weight sum p^-d * S_d/(3p)^t - 1,
    capped at p^d: one exact Fraction over p^(m-d) * (3p)^t, every prime."""
    p, t = cfg.p, cfg.t
    scale, rest = (3 * p) ** t, p ** (cfg.m - d)
    den = rest * scale
    num = t * scale + rest * _shape_sums(cfg, modulus)[d] - p**d * den
    return Fraction(min(num, p**d * den), den)


def walsh_discrepancy_bound(spec: SubLatticeSpec, cfg: LatticeConfig):
    """Rigorous upper bound on L * D*_L of the sub-lattice point set
    (L = p^d): t*p^(d-m) plus p^d times the dual weight sum, capped at the
    trivial bound p^d.  Independent of the residue and block position."""
    _check_sublattice(spec, cfg)
    return _modulus_bound(cfg, spec.cls.modulus, spec.d)
