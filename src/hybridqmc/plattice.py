"""Polynomial lattice point sets and their aligned-block sub-lattices.

A lattice configuration fixes a monic irreducible modulus pX of degree m
and t nonzero generators of degree < m.  The n-th point has component i
equal to the first m Laurent coefficients of {n(X)*q_i(X)/pX}, read as
base-p digits.  The same points arise from Hankel generating matrices
acting on the digit vector of n.  Both routes are kept independent: the
division kernel _laurent_points divides X^m*n*q_i by pX on integer lists,
and the affine sub-lattice route (sublattice_matrices) does not share it.

A SubLatticeSpec selects the lattice points whose indices lie in an
aligned block of p^u consecutive integers and in a residue class
(B(X), R(X)) coprime to the modulus; those p^(u - deg B) points also
carry an affine digit-map description (matrix columns plus a shift).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .gfpoly import (
    BasePRational,
    Poly,
    ResidueClass,
    _long_division,
    as_prime,
    laurent_coeffs,
    poly_from_int,
    poly_is_irreducible,
)


@functools.lru_cache(maxsize=None)
def _irreducible_modulus(pX: Poly) -> bool:
    # every candidate of a search builds a LatticeConfig on the same modulus
    return poly_is_irreducible(pX)


@dataclass(frozen=True)
class LatticeConfig:
    """Modulus pX (monic, irreducible, degree m) and t nonzero generators."""

    p: int
    modulus: Poly
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        object.__setattr__(self, "generators", tuple(self.generators))
        pX = self.modulus
        if pX.p != self.p:
            raise ValueError("modulus prime mismatch")
        if pX.degree < 1 or not pX.is_monic:
            raise ValueError("modulus must be monic and nonconstant")
        if not _irreducible_modulus(pX):
            raise ValueError("modulus must be irreducible")
        if not self.generators:
            raise ValueError("at least one generator required")
        for q in self.generators:
            if q.p != self.p:
                raise ValueError("generator prime mismatch")
            if q.is_zero:
                raise ValueError("zero generator")
            if not q.degree < pX.degree:
                raise ValueError("generator degree must be below modulus degree")
        # every lru_cache keyed by a configuration hashes it on each lookup
        object.__setattr__(self, "_hash", hash((self.p, self.modulus, self.generators)))

    def __hash__(self):
        return self._hash

    @property
    def m(self) -> int:
        return self.modulus.degree

    @property
    def t(self) -> int:
        return len(self.generators)

    @property
    def n_points(self) -> int:
        return self.p**self.m


def _digits_to_int(digits, base: int) -> int:
    """The integer whose base-`base` digits, most significant first, are
    `digits`."""
    num = 0
    for y in digits:
        num = num * base + y
    return num


def _laurent_points(indices, cfg: LatticeConfig):
    """Yield the points of the indices: a_1..a_m of {n*q_i/pX} are the low m
    quotient digits of X^m*n*q_i by pX, a_1 highest, from one long division."""
    p, m, pX = cfg.p, cfg.m, cfg.modulus.coeffs
    for n in indices:
        digits = []  # of n, least significant first
        while n:
            n, r = divmod(n, p)
            digits.append(r)
        point = []
        for q in cfg.generators:
            product = [0] * (m + len(digits) + len(q.coeffs) - 1)
            for i, a in enumerate(digits):
                for j, b in enumerate(q.coeffs):
                    product[m + i + j] += a * b
            quotient = _long_division(product, pX, p, True)[0]
            point.append(BasePRational(p, _digits_to_int(reversed(quotient[:m]), p), m))
        yield tuple(point)


def plattice_point_laurent(n: int, cfg: LatticeConfig) -> tuple:
    """The n-th lattice point via truncated Laurent expansion of {n*q_i/pX}."""
    if not 0 <= n < cfg.n_points:
        raise ValueError(f"index {n} outside [0, {cfg.p}^{cfg.m})")
    return next(_laurent_points((n,), cfg))


def build_generating_matrix(q_i: Poly, pX: Poly) -> tuple:
    """Rows of the m x m Hankel matrix from the (2m-1)-prefix of {q_i/pX}."""
    if not q_i.degree < pX.degree:
        raise ValueError("generator degree must be below modulus degree")
    m = pX.degree
    return digit_matrix(laurent_coeffs(q_i, pX, 2 * m - 1), Poly.one(q_i.p), m, m)


def plattice_point_matrix(n: int, matrices, p: int) -> tuple:
    """Lattice point by multiplying the digit vector of n with each matrix's rows."""
    matrices = tuple(matrices)
    if not matrices:
        raise ValueError("no generating matrices")
    m = len(matrices[0])
    if not 0 <= n < p**m:
        raise ValueError(f"index {n} outside [0, {p}^{m})")
    ndigits = poly_from_int(n, p).coeffs  # least significant first; missing ones are 0
    coords = []
    for rows in matrices:
        digits = (sum(rc * nc for rc, nc in zip(row, ndigits)) % p for row in rows)
        coords.append(BasePRational(p, _digits_to_int(digits, p), m))
    return tuple(coords)


def korobov_qvec(g: Poly, t: int, pX: Poly) -> tuple:
    """(g, g^2 mod pX, ..., g^t mod pX); every component nonzero."""
    if g.is_zero:
        raise ValueError("zero generator")
    if t < 1:
        raise ValueError("t must be >= 1")
    if not g.degree < pX.degree:
        raise ValueError("generator degree must be below modulus degree")
    out = []
    acc = Poly.one(g.p)
    for _ in range(t):
        acc = (acc * g) % pX
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class SubLatticeSpec:
    """An aligned index block [block_start, block_start + p^u) intersected
    with a residue class whose modulus has degree <= u."""

    u: int
    block_start: int
    cls: ResidueClass

    def __post_init__(self):
        if self.u < 0:
            raise ValueError("block level must be >= 0")
        if self.block_start < 0:
            raise ValueError("block start must be >= 0")
        p = self.cls.p
        if self.block_start % p**self.u:
            raise ValueError("block start must be a multiple of p^u")
        if self.deg_modulus > self.u:
            raise ValueError("modulus degree exceeds block level")

    @property
    def p(self) -> int:
        return self.cls.p

    @property
    def deg_modulus(self) -> int:
        return self.cls.modulus.degree

    @property
    def d(self) -> int:
        """Digit freedom: the block holds exactly p^d matching indices."""
        return self.u - self.deg_modulus

    @functools.cached_property
    def shift_poly(self) -> Poly:
        """The fixed high part C(X): matching indices have digit polynomial
        (l(X) + X^d C(X)) * B(X) + R(X) with l running over degrees < d.
        With a = start(X) and h0 = (R - a) mod B, C is (a + h0 - R) / B shifted
        down by d, and that quotient is a // B: a + h0 - R = 0 mod B and
        deg((a mod B) + h0 - R) < deg B, so (a mod B) + h0 - R = 0."""
        quotient = poly_from_int(self.block_start, self.p) // self.cls.modulus
        return Poly._raw(self.p, quotient.coeffs[self.d :])


def coprime_to_irreducible(B: Poly, pX: Poly) -> bool:
    """B shares no factor with the irreducible pX iff pX does not divide B
    (so B = 0 is not coprime); below pX's degree only B = 0 is divisible."""
    return not B.is_zero if B.degree < pX.degree else not (B % pX).is_zero


def _check_sublattice(spec: SubLatticeSpec, cfg: LatticeConfig):
    if spec.p != cfg.p:
        raise ValueError("prime mismatch between spec and lattice")
    if spec.u > cfg.m:
        raise ValueError("block level exceeds modulus degree")
    if spec.block_start + cfg.p**spec.u > cfg.n_points:
        raise ValueError("block extends past the point set")
    if not coprime_to_irreducible(spec.cls.modulus, cfg.modulus):
        raise ValueError("modulus shares factor with pX")


def index_walk(columns, shift, count: int, p: int, start: int = 0):
    """Yield shift + sum_c n_c * columns[c] over GF(p) for n = start..start + count - 1,
    n_c the base-p digits of n (columns cover them).  From n - 1 to n, digits 0..k of n,
    k = v_p(n), each gain 1, so the vector gains the step columns[0] + ... + columns[k]:
    one add per index after the first."""
    steps = list(itertools.accumulate(columns, lambda w, c: [(a + b) % p for a, b in zip(w, c)]))
    vector, rest = list(shift), start
    for column in columns if start else ():
        rest, digit = divmod(rest, p)
        vector = [(a + digit * b) % p for a, b in zip(vector, column)]
    for n in range(start, start + count):
        if n != start:
            k, rest = 0, n
            while rest % p == 0:
                k, rest = k + 1, rest // p
            vector = [(a + b) % p for a, b in zip(vector, steps[k])]
        yield vector


def sublattice_indices(spec: SubLatticeSpec, cfg: LatticeConfig) -> list:
    """Ascending indices n in the block with n(X) in the residue class, built
    from the class's parametrization: with a = start(X), which has no digit
    below u, and h0 = (R - a) mod B (one division of the integer list R - a)
    they are n(X) = a + h0 + l*B over deg l < d: one index_walk over l's p^d
    digit vectors (columns X^c*B over u digits)."""
    _check_sublattice(spec, cfg)
    p, B, start = cfg.p, spec.cls.modulus, spec.block_start
    diff = itertools.zip_longest(spec.cls.residue.coeffs, poly_from_int(start, p).coeffs, fillvalue=0)
    h0 = _long_division([r - a for r, a in diff], B.coeffs, p, False)[1]
    columns = [[*[0] * c, *B.coeffs, *[0] * (spec.d - 1 - c)] for c in range(spec.d)]
    walk = index_walk(columns, h0 + (0,) * (spec.u - len(h0)), p**spec.d, p)
    return sorted(start + _digits_to_int(reversed(low), p) for low in walk)


def sublattice_enumerate(spec: SubLatticeSpec, cfg: LatticeConfig) -> list:
    """The p^d sub-lattice points, by direct enumeration in ascending n."""
    return list(_laurent_points(sublattice_indices(spec, cfg), cfg))


def digit_matrix(digits, B: Poly, m: int, d: int) -> tuple:
    """m x d Hankel block [j][c] = c_(j+c+1) of {B*q/pX}, read off the
    leading Laurent digits (a_1, a_2, ...) of q/pX: c_k = sum_j b_j a_(k+j)
    mod p, the convolution of B's coefficients with them.  Column c holds
    the leading m digits of {X^c*B*q/pX}; the 2m - 1 digits of q/pX, with
    m = deg pX, serve every d <= m - deg B."""
    length = m + d - 1
    if len(digits) < length + B.degree:
        raise ValueError("too few Laurent digits for the digit map")
    conv = [0] * length
    for j, b in enumerate(B.coeffs):
        if b:
            conv = [x + b * y for x, y in zip(conv, digits[j : j + length])]
    conv = [x % B.p for x in conv]
    return tuple(tuple(conv[j : j + d]) for j in range(m))


def sublattice_matrices(spec: SubLatticeSpec, cfg: LatticeConfig):
    """Affine digit map of the sub-lattice: (matrices, shifts).

    matrices[i] is m x d with entry [j][c] = a_{j+c+1} from the expansion of
    {B*q_i/pX}; shifts[i] holds the m leading digits of {n0*q_i/pX} for the
    anchor index n0 = C X^d B + R, formed on coefficient lists, the d = 1 map
    of n0 (deg n0 < m, as n0 lies in the block).  Both read the 2m - 1
    Laurent digits of q_i/pX through digit_matrix.
    """
    _check_sublattice(spec, cfg)
    B, m, p, C, R = spec.cls.modulus, cfg.m, cfg.p, spec.shift_poly.coeffs, spec.cls.residue.coeffs
    n0 = [*R, *[0] * (spec.d + len(C) + B.degree - len(R) if C else 0)]  # deg R < deg B
    for i, c in enumerate(C, spec.d):
        for j, b in enumerate(B.coeffs):
            n0[i + j] += c * b
    n0 = Poly._raw(p, tuple(x % p for x in n0))
    digits = [laurent_coeffs(q, cfg.modulus, 2 * m - 1) for q in cfg.generators]
    matrices = tuple(digit_matrix(a, B, m, spec.d) for a in digits)
    shifts = tuple(tuple(row[0] for row in digit_matrix(a, n0, m, 1)) for a in digits)
    return matrices, shifts


def sublattice_affine(spec: SubLatticeSpec, cfg: LatticeConfig):
    """(matrices, shifts, points): the affine images shift + matrix * l over
    l = 0..p^d-1, l's base-p digits as the vector, least significant first."""
    matrices, shifts = sublattice_matrices(spec, cfg)
    p, m, count = cfg.p, cfg.m, cfg.p**spec.d
    walks = [index_walk(list(zip(*mat)), shift, count, p) for mat, shift in zip(matrices, shifts)]
    points = [
        tuple(BasePRational(p, _digits_to_int(x, p), m) for x in images)
        for images in zip(*walks)
    ]
    return matrices, shifts, points
