"""Radical inverses, Halton-type points, and box/residue-class conversion.

The polynomial radical inverse expands the digit polynomial n(X) in a
monic base b(X) of degree e and maps each degree-<e digit through a
bijection sigma (fixing 0) onto {0, ..., p^e - 1}; the resulting
coordinate is an exact rational with denominator a power of p.

Elementary anchored boxes whose widths are multiples of p^(-e*l) pull
back, coordinate by coordinate, to finitely many disjoint residue
classes of the index n; box_to_residue_classes materializes that
correspondence for the configured sigma bijections.
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
from .plattice import LatticeConfig, _digits_to_int, plattice_point_laurent


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


def radical_inverse_int(n: int, b: int) -> Fraction:
    """Classic digit-reversal map: n written in base b, mirrored around the point."""
    if b < 2:
        raise ValueError("base must be >= 2")
    if n < 0:
        raise ValueError("index must be >= 0")
    value = Fraction(0)
    scale = Fraction(1, b)
    while n:
        n, digit = divmod(n, b)
        value += digit * scale
        scale /= b
    return value


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
    levels = list(levels)
    numerators = list(numerators)
    if len(levels) != cfg.s or len(numerators) != cfg.s:
        raise ValueError("need one level and one numerator per dimension")
    p = cfg.p
    per_dim = []
    for b, sig, l, v in zip(cfg.bases, cfg.sigmas, levels, numerators):
        e = b.degree
        q = p**e
        if l < 0:
            raise ValueError("levels must be >= 0")
        cap = q**l
        if not 1 <= v <= cap:
            raise ValueError(f"numerator {v} outside [1, {q}^{l}]")
        if v == cap:
            per_dim.append(None)
            continue
        digits = _big_endian_digits(v, q, l)
        options = []
        prefix = Poly.zero(p)
        b_pow = Poly.one(p)
        for j, w in enumerate(digits):
            for c in range(w):
                residue = prefix + poly_from_int(sig.inverse[c], p) * b_pow
                options.append((b_pow * b, residue))
            prefix = prefix + poly_from_int(sig.inverse[w], p) * b_pow
            b_pow = b_pow * b
        per_dim.append(options)
    constrained = [opts for opts in per_dim if opts is not None]
    if not constrained:
        return [ResidueClass(Poly.one(p), Poly.zero(p))]
    classes = []
    for combo in itertools.product(*constrained):
        modulus, residue = combo[0]
        for b2, r2 in combo[1:]:
            modulus, residue = _crt_pair(modulus, residue, b2, r2)
        classes.append(ResidueClass(modulus, residue % modulus))
    classes.sort(key=_class_sort_key)
    return classes


def _big_endian_digits(v: int, q: int, l: int) -> list:
    digits = []
    for _ in range(l):
        v, r = divmod(v, q)
        digits.append(r)
    if v:
        raise ValueError("numerator does not fit in the level digits")
    digits.reverse()
    return digits


def _crt_pair(b1: Poly, r1: Poly, b2: Poly, r2: Poly):
    g, s, _ = poly_egcd(b1, b2)
    if g.degree != 0:
        raise ValueError("moduli are not coprime")
    # r = r1 + b1 * (s * (r2 - r1)) mod b1*b2
    modulus = b1 * b2
    lift = (s * (r2 - r1)) % b2
    return modulus, (r1 + b1 * lift) % modulus


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


def hybrid_point_set(m: int, cfg: HaltonConfig, lattice: LatticeConfig, count: int | None = None) -> list:
    """The first `count` hybrid points (default: all p^m)."""
    total = cfg.p**m
    if count is None:
        count = total
    if not 1 <= count <= total:
        raise ValueError(f"count outside [1, {total}]")
    return [hybrid_point(n, m, cfg, lattice) for n in range(count)]
