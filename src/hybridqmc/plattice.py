"""Polynomial lattice point sets and their aligned-block sub-lattices.

A lattice configuration fixes a monic irreducible modulus pX of degree m
and t nonzero generators of degree < m.  The n-th point has component i
equal to the first m Laurent coefficients of {n(X)*q_i(X)/pX}, read as
base-p digits.  The same points arise from Hankel generating matrices
acting on the digit vector of n; both routes are provided and kept
independent of each other.

A SubLatticeSpec selects the lattice points whose indices lie in an
aligned block of p^u consecutive integers and in a residue class
(B(X), R(X)) coprime to the modulus; those p^(u - deg B) points also
carry an affine digit-map description (matrix columns plus a shift).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .gfpoly import (
    BasePRational,
    Poly,
    ResidueClass,
    as_prime,
    laurent_coeffs,
    poly_from_int,
    poly_gcd,
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


def plattice_point_laurent(n: int, cfg: LatticeConfig) -> tuple:
    """The n-th lattice point via truncated Laurent expansion of {n*q_i/pX}."""
    p, m = cfg.p, cfg.m
    if not 0 <= n < p**m:
        raise ValueError(f"index {n} outside [0, {p}^{m})")
    npoly = poly_from_int(n, p)
    return tuple(
        BasePRational(p, _digits_to_int(laurent_coeffs(npoly * q, cfg.modulus, m), p), m)
        for q in cfg.generators
    )


@dataclass(frozen=True)
class GeneratingMatrix:
    """m x m Hankel matrix of Laurent coefficients mapping digit vectors."""

    p: int
    rows: tuple

    def __post_init__(self):
        m = len(self.rows)
        for r in range(1, m):
            for c in range(m - 1):
                if self.rows[r][c] != self.rows[r - 1][c + 1]:
                    raise ValueError("rows do not have Hankel structure")

    @property
    def m(self) -> int:
        return len(self.rows)


def build_generating_matrix(q_i: Poly, pX: Poly) -> GeneratingMatrix:
    """Hankel matrix from the (2m-1)-prefix of {q_i/pX}."""
    if not q_i.degree < pX.degree:
        raise ValueError("generator degree must be below modulus degree")
    m = pX.degree
    digits = laurent_coeffs(q_i, pX, 2 * m - 1)
    return GeneratingMatrix(q_i.p, digit_matrix(digits, Poly.one(q_i.p), m, m))


def plattice_point_matrix(n: int, matrices) -> tuple:
    """Lattice point by multiplying the digit vector of n with each matrix."""
    matrices = tuple(matrices)
    if not matrices:
        raise ValueError("no generating matrices")
    p = matrices[0].p
    m = matrices[0].m
    if not 0 <= n < p**m:
        raise ValueError(f"index {n} outside [0, {p}^{m})")
    ndigits = poly_from_int(n, p).coeffs  # least significant first; missing ones are 0
    coords = []
    for mat in matrices:
        digits = (sum(rc * nc for rc, nc in zip(row, ndigits)) % p for row in mat.rows)
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
        (l(X) + X^d C(X)) * B(X) + R(X) with l running over degrees < d."""
        B, R = self.cls.modulus, self.cls.residue
        p = self.p
        a = poly_from_int(self.block_start, p)
        h0 = (R - a) % B
        k_base, rem = divmod(a + h0 - R, B)
        if not rem.is_zero:
            raise AssertionError("congruence solution must be divisible by modulus")
        if self.d == 0:
            return k_base
        return k_base // Poly.x(p).shift(self.d - 1)


def _check_sublattice(spec: SubLatticeSpec, cfg: LatticeConfig):
    if spec.p != cfg.p:
        raise ValueError("prime mismatch between spec and lattice")
    if spec.u > cfg.m:
        raise ValueError("block level exceeds modulus degree")
    if spec.block_start + cfg.p**spec.u > cfg.n_points:
        raise ValueError("block extends past the point set")
    if poly_gcd(spec.cls.modulus, cfg.modulus).degree > 0:
        raise ValueError("modulus shares factor with pX")


def sublattice_indices(spec: SubLatticeSpec, cfg: LatticeConfig) -> list:
    """Ascending indices n in the block with n(X) in the residue class."""
    _check_sublattice(spec, cfg)
    p = cfg.p
    block = range(spec.block_start, spec.block_start + p**spec.u)
    out = [n for n in block if spec.cls.contains(n)]
    if len(out) != p**spec.d:
        raise AssertionError("block/residue intersection has unexpected size")
    return out


def sublattice_enumerate(spec: SubLatticeSpec, cfg: LatticeConfig) -> list:
    """The p^d sub-lattice points, by direct enumeration in ascending n."""
    return [plattice_point_laurent(n, cfg) for n in sublattice_indices(spec, cfg)]


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


def digit_images(matrix, shift, p: int) -> list:
    """The digit vectors shift + matrix * l mod p for every l in GF(p)^d
    (d = columns of the matrix), in ascending order of l read as a base-p
    integer with l_0 least significant."""
    images = [tuple(shift)]
    for c in range(len(matrix[0])):
        column = [row[c] for row in matrix]
        images = [
            tuple((y + k * a) % p for y, a in zip(image, column))
            for k in range(p)
            for image in images
        ]
    return images


def sublattice_matrices(spec: SubLatticeSpec, cfg: LatticeConfig):
    """Affine digit map of the sub-lattice: (matrices, shifts).

    matrices[i] is m x d with entry [j][c] = a_{j+c+1} from the expansion of
    {B*q_i/pX}; shifts[i] is the m-digit vector of the anchor point.
    """
    _check_sublattice(spec, cfg)
    B, R = spec.cls.modulus, spec.cls.residue
    m = cfg.m
    n0 = spec.shift_poly.shift(spec.d) * B + R
    matrices = tuple(
        digit_matrix(laurent_coeffs(q, cfg.modulus, 2 * m - 1), B, m, spec.d)
        for q in cfg.generators
    )
    shifts = tuple(laurent_coeffs(n0 * q, cfg.modulus, m) for q in cfg.generators)
    return matrices, shifts


def sublattice_affine(spec: SubLatticeSpec, cfg: LatticeConfig):
    """(matrices, shifts, points): the affine images over l = 0..p^d-1."""
    matrices, shifts = sublattice_matrices(spec, cfg)
    p, m = cfg.p, cfg.m
    columns = [digit_images(mat, shift, p) for mat, shift in zip(matrices, shifts)]
    points = [
        tuple(BasePRational(p, _digits_to_int(x, p), m) for x in images)
        for images in zip(*columns)
    ]
    return matrices, shifts, points
