"""Radical inverses, Halton-type points, and box/residue-class conversion.

The polynomial radical inverse expands the digit polynomial n(X) in a
monic base b(X) of degree e and maps each degree-<e digit through a
bijection sigma (fixing 0) onto {0, ..., p^e - 1}; the resulting
coordinate is an exact rational with denominator a power of p.

Elementary anchored boxes whose widths are multiples of p^(-e*l) pull
back, coordinate by coordinate, to finitely many disjoint residue
classes of the index n; box_to_residue_classes materializes that
correspondence for the configured sigma bijections.  A box sweep meets few
distinct inputs, so each dimension's (modulus, residue) pairs, keyed by
(base, sigma, level, numerator), and each CRT join, keyed by both pairs, sit
in lru_caches of 4096 entries; every call returns a fresh list.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .gfpoly import (
    BasePRational,
    Poly,
    ResidueClass,
    as_prime,
    poly_egcd,
    poly_from_int,
    poly_gcd,
    poly_to_int,
)
from .plattice import (
    LatticeConfig,
    _digits_to_int,
    build_generating_matrix,
    index_walk,
    plattice_point_laurent,
)


@dataclass(frozen=True)
class SigmaBijection:
    """Digit bijection onto {0, ..., p^e - 1}; must map 0 to 0.

    table[k] is the image of the degree-<e polynomial with integer
    encoding k.
    """

    p: int
    e: int
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        object.__setattr__(self, "table", tuple(self.table))
        size = self.p**self.e
        if self.e < 1:
            raise ValueError("digit degree bound must be >= 1")
        if len(self.table) != size or sorted(self.table) != list(range(size)):
            raise ValueError("table is not a bijection on {0, ..., p^e - 1}")
        if self.table[0] != 0:
            raise ValueError("sigma must map 0 to 0")

    @functools.cached_property
    def inverse(self) -> tuple:
        inv = [0] * len(self.table)
        for k, v in enumerate(self.table):
            inv[v] = k
        return tuple(inv)


def identity_sigma(p, e: int) -> SigmaBijection:
    """The default bijection: coefficient evaluation at p."""
    p = as_prime(p)
    return SigmaBijection(p, e, tuple(range(p**e)))


def _check_bases(p: int, bases: tuple):
    for b in bases:
        if b.p != p:
            raise ValueError("base prime mismatch")
        if not b.is_monic or b.degree < 1:
            raise ValueError("bases must be monic and nonconstant")
    for b1, b2 in itertools.combinations(bases, 2):
        if poly_gcd(b1, b2).degree != 0:
            raise ValueError("bases must be pairwise coprime")


@dataclass(frozen=True)
class HaltonConfig:
    """Monic pairwise-coprime nonconstant bases with one sigma per base."""

    p: int
    bases: tuple
    sigmas: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        object.__setattr__(self, "bases", tuple(self.bases))
        object.__setattr__(self, "sigmas", tuple(self.sigmas))
        if len(self.sigmas) != len(self.bases):
            raise ValueError("one sigma per base required")
        _check_bases(self.p, self.bases)
        for b, s in zip(self.bases, self.sigmas):
            if s.p != self.p or s.e != b.degree:
                raise ValueError("sigma does not match its base")

    @classmethod
    def make(cls, p, bases, sigmas=None) -> "HaltonConfig":
        p = as_prime(p)
        bases = tuple(bases)
        if sigmas is None:
            _check_bases(p, bases)  # a sigma needs a base of degree >= 1
            sigmas = tuple(identity_sigma(p, b.degree) for b in bases)
        return cls(p, bases, tuple(sigmas))

    @property
    def s(self) -> int:
        return len(self.bases)

    @property
    def degrees(self) -> tuple:
        return tuple(b.degree for b in self.bases)


def radical_inverse_poly(n: int, base: Poly, sigma: SigmaBijection | None = None) -> BasePRational:
    """Polynomial radical inverse of n in the given monic base."""
    p = base.p
    e = base.degree
    if e < 1 or not base.is_monic:
        raise ValueError("base must be monic and nonconstant")
    if sigma is None:
        sigma = identity_sigma(p, e)
    if sigma.p != p or sigma.e != e:
        raise ValueError("sigma does not match the base")
    if n < 0:
        raise ValueError("index must be >= 0")
    rem = poly_from_int(n, p)
    values = []
    while not rem.is_zero:
        rem, digit = divmod(rem, base)
        values.append(sigma.table[poly_to_int(digit)])
    return BasePRational(p, _digits_to_int(values, p**e), e * len(values))


def halton_point(n: int, cfg: HaltonConfig) -> tuple:
    """Componentwise polynomial radical inverses of n."""
    return tuple(
        radical_inverse_poly(n, b, s) for b, s in zip(cfg.bases, cfg.sigmas)
    )


def box_to_residue_classes(cfg: HaltonConfig, levels, numerators) -> list:
    """Residue classes of n equivalent to membership in the anchored box
    prod_i [0, v_i * p^(-e_i * l_i)).

    Per dimension, the base-p^e digits of v_i select which leading sigma
    digits are pinned; dimensions with v_i = p^(e_i*l_i) impose no
    constraint.  Classes across dimensions combine by the Chinese
    remainder theorem on the pairwise-coprime base powers.  Output is
    sorted by (deg modulus, modulus encoding, residue encoding).
    """
    levels, numerators = list(levels), list(numerators)
    if len(levels) != cfg.s or len(numerators) != cfg.s:
        raise ValueError("need one level and one numerator per dimension")
    p, keys = cfg.p, []  # every argument is checked before the first cache lookup
    for b, sig, l, v in zip(cfg.bases, cfg.sigmas, levels, numerators):
        if l < 0:
            raise ValueError("levels must be >= 0")
        cap = p ** (b.degree * l)
        if not 1 <= v <= cap:
            raise ValueError(f"numerator {v} outside [1, {p**b.degree}^{l}]")
        if v < cap:
            keys.append((b, sig, l, v))
    if not keys:
        return [ResidueClass(Poly.one(p), Poly.zero(p))]
    combos = itertools.product(*itertools.starmap(_digit_classes, keys))
    joined = (functools.reduce(lambda x, y: _crt_pair(*x, *y), combo) for combo in combos)
    return sorted((ResidueClass(*pair) for pair in joined), key=_class_sort_key)


@functools.lru_cache(maxsize=4096, typed=True)  # 2.0 must not hit the key of 2
def _digit_classes(b: Poly, sigma: SigmaBijection, level: int, v: int) -> tuple:
    """The (b^(j+1), residue) pairs of the n whose radical inverse in base b
    lies below v / p^(e*level), 0 < v < p^(e*level): for w_j the j-th base-p^e
    digit of v, highest first, and c < w_j, n's digit i < j is sigma^-1(w_i)
    and its digit j is sigma^-1(c)."""
    p, q = b.p, sigma.p**sigma.e
    digits = [v // q ** (level - 1 - j) % q for j in range(level)]
    options = []
    prefix, b_pow = Poly.zero(p), Poly.one(p)
    for w in digits:
        for c in range(w):
            options.append((b_pow * b, prefix + poly_from_int(sigma.inverse[c], p) * b_pow))
        prefix = prefix + poly_from_int(sigma.inverse[w], p) * b_pow
        b_pow = b_pow * b
    return tuple(options)


@functools.lru_cache(maxsize=None)
def _crt_coefficient(b1: Poly, b2: Poly) -> Poly:
    """s with s * b1 = 1 mod b2; a box sweep meets only a few modulus pairs."""
    g, s, _ = poly_egcd(b1, b2)
    if g.degree != 0:
        raise ValueError("moduli are not coprime")
    return s


@functools.lru_cache(maxsize=4096)
def _crt_pair(b1: Poly, r1: Poly, b2: Poly, r2: Poly):
    s = _crt_coefficient(b1, b2)
    # r1 + b1 * (s * (r2 - r1) mod b2) is reduced mod b1*b2 when r1 is mod b1
    lift = (s * (r2 - r1)) % b2
    return b1 * b2, r1 + b1 * lift


def _class_sort_key(c: ResidueClass):
    return (c.modulus.degree, poly_to_int(c.modulus), poly_to_int(c.residue))


def residue_classes_measure(classes) -> Fraction:
    """Total natural density of (assumed pairwise disjoint) classes."""
    return sum((c.measure() for c in classes), Fraction(0))


def hybrid_point(n: int, m: int, cfg: HaltonConfig, lattice: LatticeConfig) -> tuple:
    """(n/p^m, Halton coordinates of n, lattice coordinates of n)."""
    p = cfg.p
    if lattice.p != p:
        raise ValueError("prime mismatch between Halton and lattice parts")
    if lattice.m != m:
        raise ValueError("lattice modulus degree must equal m")
    if not 0 <= n < p**m:
        raise ValueError(f"index {n} outside [0, {p}^{m})")
    anchor = BasePRational(p, n, m)
    return (anchor,) + halton_point(n, cfg) + plattice_point_laurent(n, lattice)


def hybrid_point_set(m: int, cfg: HaltonConfig, lattice: LatticeConfig) -> list:
    """All p^m hybrid points."""
    if lattice.m != m:
        raise ValueError("lattice modulus degree must equal m")
    return list(digital_points(lattice.n_points, cfg, lattice))


def digital_points(
    count: int, halton: HaltonConfig | None, lattice: LatticeConfig | None, start: int = 0
):
    """Yield the points n = start..start + count - 1 in index order: halton_point(n),
    plattice_point_laurent(n), or hybrid_point(n, lattice.m) if both parts
    are given.  Every coordinate is GF(p)-linear in the M base-p digits of
    n (M those of the last n): column c is column c of a generating matrix,
    or the base-b digit blocks of X^c before sigma (Tezuka 1993), and
    index_walk steps the digit vector with one GF(p) vector add per point.
    State: O(M * dim) digits."""
    p = (lattice or halton).p
    if halton and lattice and halton.p != p:
        raise ValueError("prime mismatch between Halton and lattice parts")
    if lattice and not 1 <= count <= lattice.n_points:
        raise ValueError(f"count outside [1, {lattice.n_points}]")
    if start < 0:
        raise ValueError("index must be >= 0")
    if lattice and start + count > lattice.n_points:
        raise ValueError(f"index {start + count - 1} outside [0, {p}^{lattice.m})")
    M = len(poly_from_int(max(start + count - 1, 0), p).coeffs)
    columns = [[] for _ in range(M)]  # column c: the digit vector of n = p^c
    readouts, size = [], 0  # (first digit, digits per block, table, fixed block count)
    for b, sigma in zip(halton.bases, halton.sigmas) if halton else ():
        e = b.degree
        readouts.append((size, e, sigma.table, 0))
        size += e * -(-M // e)
        for c, column in enumerate(columns):
            rem = poly_from_int(p**c, p)
            while len(column) < size:  # a block's coefficients, highest degree first
                rem, block = divmod(rem, b)
                column.extend((0,) * (e - len(block.coeffs)) + block.coeffs[::-1])
    for q in lattice.generators if lattice else ():
        readouts.append((size, lattice.m, range(p**lattice.m), 1))
        size += lattice.m
        for column, image in zip(columns, zip(*build_generating_matrix(q, lattice.modulus))):
            column.extend(image)
    deg, power = -1, 1  # deg n(X) = -1 at n = 0: every Halton L is 0
    for n, digits in enumerate(index_walk(columns, [0] * size, count, p, start), start):
        while n >= power:  # at the first n, rises to deg start(X) at once
            deg, power = deg + 1, power * p
        point = [BasePRational(p, n, lattice.m)] if halton and lattice else []
        for first, e, table, fixed in readouts:
            num, blocks = 0, fixed or deg // e + 1
            for j in range(first, first + blocks * e, e):
                num = num * p**e + table[_digits_to_int(digits[j : j + e], p)]
            point.append(BasePRational(p, num, blocks * e))
        yield tuple(point)
