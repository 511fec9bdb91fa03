import cmath
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridqmc.gfpoly import (
    BasePRational,
    Poly,
    ResidueClass,
    irreducible_poly,
    laurent_coeffs,
    poly_from_int,
    poly_gcd,
    poly_is_irreducible,
    poly_parse,
    valuation,
)
from hybridqmc.discrepancy import discrepancy_certificate
from hybridqmc.plattice import (
    LatticeConfig,
    SubLatticeSpec,
    digit_matrix,
    index_walk,
    sublattice_enumerate,
)
from hybridqmc.seqgen import HaltonConfig
from base_p_digits import digits
from shape_oracle import shape_sums
from hybridqmc.walsh import (
    _combined_residues,
    _modulus_bound,
    _scaled_phi,
    character_magnitude,
    character_sum,
    count_low_valuation,
    dual_test_matrix,
    dual_test_valuation,
    walsh_discrepancy_bound,
    walsh_exponent,
    walsh_exponent_vec,
    walsh_weight,
    walsh_weight_total,
)


def P(text, p=2):
    return poly_parse(text, p)


PX2 = P("X^2+X+1")
FULL2 = SubLatticeSpec(2, 0, ResidueClass(Poly.one(2), Poly.zero(2)))


def test_walsh_exponent_examples():
    assert walsh_exponent(0, 3, 2, 2) == 0
    assert walsh_exponent(1, 1, 2, 1) == 1
    assert walsh_exponent(3, 3, 2, 2) == 0
    assert walsh_exponent(1, 2, 3, 2) == 0 and walsh_exponent(1, 3, 3, 2) == 1
    assert walsh_exponent(2, 1, 2, 2) == 1  # k's digit at p^1 pairs with x_2
    assert walsh_exponent(4, 3, 2, 2) == 0  # no digit of x past L


def test_walsh_exponent_matches_complex_product():
    # independent oracle: literal product of digit characters
    rng = random.Random(6)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        L = rng.randrange(0, 5)
        num = rng.randrange(p**L)
        x = digits(num, p, L) + (0,) * 4  # x_j = 0 past L
        k = rng.randrange(p**4)
        expected = 1.0 + 0j
        kk = k
        j = 1
        while kk:
            kk, kj = divmod(kk, p)
            expected *= cmath.exp(2j * cmath.pi * kj * x[j - 1] / p)
            j += 1
        got = cmath.exp(2j * cmath.pi * walsh_exponent(k, num, p, L) / p)
        assert abs(expected - got) < 1e-9


def _rational(coords):
    # the value of sum_s c_s zeta^s, zeta = e(1/p), when it is rational: as
    # 1 + zeta + ... + zeta^(p-1) = 0, equal coordinates at zeta^1..zeta^(p-1)
    # add up to -c_1
    assert len(set(coords[1:])) == 1, coords
    return coords[0] - coords[1]


def _times(a, b):
    # product in Q(zeta_p): x -> zeta maps Q[x]/(x^p - 1) onto it, so
    # coordinates multiply by cyclic convolution
    p = len(a)
    out = [0] * p
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % p] += x * y
    return out


def test_weight_examples():
    assert walsh_weight(0, 2) == (1, 0)
    assert walsh_weight(1, 2) == (Fraction(1, 2), 0)
    # squared-sine convention: 1/(3*sin(pi/3)^2) = 4/9
    assert walsh_weight(1, 3) == (Fraction(20, 27), Fraction(8, 27), Fraction(8, 27))
    assert _rational(walsh_weight(1, 3)) == Fraction(4, 9)
    assert walsh_weight(2, 2) == (Fraction(1, 4), 0)
    assert walsh_weight(3, 2) == (Fraction(1, 4), 0)
    assert _rational(_times(walsh_weight(1, 2), walsh_weight(3, 2))) == Fraction(1, 8)
    # 1/(5*sin(pi/5)^2) is irrational: its coordinates at zeta^1..zeta^4 differ
    assert len(set(walsh_weight(1, 5)[1:])) == 2
    with pytest.raises(ValueError):
        walsh_weight(-1, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_weight_coordinates_match_the_sine_formula(p):
    # float oracle: the real part of sum_s c_s e(s/p) against
    # 1/(p^(g+1) sin(pi*K/p)^2) for level g and leading digit K
    assert walsh_weight(0, p) == (1,) + (0,) * (p - 1)
    for k in range(1, p**3):
        coords = walsh_weight(k, p)
        assert all(type(c) is Fraction for c in coords)
        g = len(poly_from_int(k, p).coeffs) - 1
        expected = 1 / (p ** (g + 1) * math.sin(math.pi * (k // p**g) / p) ** 2)
        got = sum(float(c) * math.cos(2 * math.pi * s / p) for s, c in enumerate(coords))
        assert abs(got - expected) <= 1e-12 * expected


def test_weight_total_examples():
    assert walsh_weight_total(2, 2, 1) == 2
    assert walsh_weight_total(2, 2, 1, "direct") == 2
    assert walsh_weight_total(2, 1, 1) == Fraction(3, 2)
    assert walsh_weight_total(7, 3, 0) == 1
    assert walsh_weight_total(7, 3, 0, "direct") == 1
    assert walsh_weight_total(7, 1, 1, "direct") == 1 + Fraction(48, 21)
    with pytest.raises(ValueError):
        walsh_weight_total(2, 2, 1, "bogus")


def test_weight_total_closed_equals_direct():
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            for t in (1, 2, 3):
                direct = walsh_weight_total(p, m, t, "direct")
                assert type(direct) is Fraction
                assert direct == walsh_weight_total(p, m, t)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scaled_phi_is_the_weighted_walsh_series(p):
    # 3p*phi(x) from the closed form equals the literal series
    # sum_(k < p^m) w(k) * zeta^walsh_exponent(k, x) in Q(zeta_p), exactly,
    # for every m-digit x; multiplying by zeta^e rotates the coordinates by e
    for m in range(1, 4):
        weights = [walsh_weight(k, p) for k in range(p**m)]
        for num in range(p**m):
            series = [Fraction(0)] * p
            for k, w in enumerate(weights):
                e = walsh_exponent(k, num, p, m)
                for s, c in enumerate(w):
                    series[(s + e) % p] += c
            assert 3 * p * _rational(series) == _scaled_phi(digits(num, p, m), p)


def test_accumulator_invariants():
    # exponent counts: aligned (one class holds the total), uniform, neither
    assert character_magnitude((4, 0)) == 4
    assert character_magnitude((0, 1)) == 1
    assert character_magnitude((0, 0, 5)) == 5
    assert character_magnitude((2, 2)) == 0
    assert character_magnitude((1, 1, 1)) == 0
    for counts in ((2, 1, 0), (3, 1), (1, 2)):
        with pytest.raises(ArithmeticError, match="neither full nor zero"):
            character_magnitude(counts)
    # all zero: the empty sum is both aligned and uniform
    assert character_magnitude((0, 0, 0)) == 0


def test_character_sum_examples():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    assert character_sum(FULL2, cfg, (0,)) == (4, 0)
    assert character_magnitude(character_sum(FULL2, cfg, (0,))) == 4
    assert character_sum(FULL2, cfg, (1,)) == (2, 2)
    assert character_magnitude(character_sum(FULL2, cfg, (2,))) == 0


def test_character_sum_matches_complex_sum():
    rng = random.Random(12)
    for _ in range(100):
        p = rng.choice((2, 3))
        m = rng.randrange(1, 4)
        pX = irreducible_poly(p, m)
        t = rng.randrange(1, 3)
        cfg = LatticeConfig(
            p, pX, tuple(poly_from_int(rng.randrange(1, p**m), p) for _ in range(t))
        )
        u = rng.randrange(0, m + 1)
        start = rng.randrange(p**m // p**u) * p**u
        spec = SubLatticeSpec(u, start, ResidueClass(Poly.one(p), Poly.zero(p)))
        kvec = tuple(rng.randrange(p**m) for _ in range(t))
        acc = character_sum(spec, cfg, kvec)
        direct = sum(
            cmath.exp(2j * cmath.pi * walsh_exponent_vec(kvec, row, p, m) / p)
            for row in sublattice_enumerate(spec, cfg)
        )
        assert abs(abs(direct) - character_magnitude(acc)) < 1e-9


def test_dual_tests_examples():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    assert dual_test_matrix(FULL2, cfg, (0,)) and dual_test_valuation(FULL2, cfg, (0,))
    assert not dual_test_matrix(FULL2, cfg, (1,))
    assert not dual_test_valuation(FULL2, cfg, (1,))
    # d = 0: the condition is vacuous / automatic
    single = SubLatticeSpec(0, 1, ResidueClass(Poly.one(2), Poly.zero(2)))
    for k in range(4):
        assert dual_test_matrix(single, cfg, (k,))
        assert dual_test_valuation(single, cfg, (k,))


@pytest.mark.parametrize("route", [character_sum, dual_test_matrix, dual_test_valuation])
def test_frequencies_outside_the_domain_are_rejected(route):
    # a tuple of the wrong length or a k outside [0, p^m) used to be read
    # anyway: zip truncated (), and k = 8 or 11 made the dual tests disagree
    cfg = LatticeConfig(2, P("X^3+X+1"), (P("X+1"),))
    spec = SubLatticeSpec(3, 0, ResidueClass(Poly.one(2), Poly.zero(2)))
    for kvec in [(), (1, 2), (8,), (11,), (-1,), (1.0,), ("1",)]:
        with pytest.raises(ValueError, match="frequenc"):
            route(spec, cfg, kvec)
    route(spec, cfg, [7])  # p^m - 1, and any iterable, is accepted
    cfg2 = LatticeConfig(3, irreducible_poly(3, 2), (Poly.one(3), Poly.x(3)))
    with pytest.raises(ValueError, match="frequenc"):
        route(SubLatticeSpec(2, 0, ResidueClass(Poly.x(3), Poly.one(3))), cfg2, (0, 9))


def test_dual_dichotomy_three_way_random():
    rng = random.Random(31)
    from hybridqmc.gfpoly import poly_gcd

    for _ in range(200):
        p = rng.choice((2, 3))
        m = rng.randrange(1, 6)
        t = rng.randrange(1, 3)
        pX = irreducible_poly(p, m)
        cfg = LatticeConfig(
            p, pX, tuple(poly_from_int(rng.randrange(1, p**m), p) for _ in range(t))
        )
        while True:
            deg_b = rng.randrange(0, m + 1)
            modulus = (
                Poly.one(p)
                if deg_b == 0
                else poly_from_int(rng.randrange(p**deg_b, 2 * p**deg_b), p)
            )
            if poly_gcd(modulus, pX).degree == 0:
                break
        residue = poly_from_int(rng.randrange(p**deg_b), p) if deg_b else Poly.zero(p)
        u = rng.randrange(deg_b, m + 1)
        start = rng.randrange(p**m // p**u) * p**u
        spec = SubLatticeSpec(u, start, ResidueClass(modulus, residue))
        kvec = tuple(rng.randrange(p**m) for _ in range(t))
        mag = character_magnitude(character_sum(spec, cfg, kvec))
        assert mag in (0, p**spec.d)
        full = mag == p**spec.d
        assert dual_test_matrix(spec, cfg, kvec) == full
        assert dual_test_valuation(spec, cfg, kvec) == full


def test_count_low_valuation_examples():
    assert count_low_valuation(P("X^3+X+1"), 1) == 3
    assert count_low_valuation(P("X^3+X+1"), 3) == 0
    assert count_low_valuation(P("X^3+X+1"), 0) == 7
    with pytest.raises(ValueError):
        count_low_valuation(P("X^3+X+1"), 4)
    with pytest.raises(ValueError):
        count_low_valuation(P("X^2+1"), 1)


def test_count_low_valuation_closed_form():
    for p in (2, 3):
        for m in range(1, 7):
            pX = irreducible_poly(p, m)
            for u in range(m + 1):
                assert count_low_valuation(pX, u) == p ** (m - u) - 1


def _coordinates(rows, p, m):
    return [[BasePRational(p, num, m) for num in row] for row in rows]


def test_walsh_bound_tight_case():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    bound = walsh_discrepancy_bound(FULL2, cfg)
    assert bound == 1
    from hybridqmc.discrepancy import PointSetD, star_discrepancy_exact

    pts = PointSetD(_coordinates(sublattice_enumerate(FULL2, cfg), 2, 2))
    assert pts.n * star_discrepancy_exact(pts) == 1


def test_walsh_bound_capped_and_sound():
    cfg1 = LatticeConfig(2, PX2, (Poly.one(2),))
    single = SubLatticeSpec(0, 0, ResidueClass(Poly.one(2), Poly.zero(2)))
    assert walsh_discrepancy_bound(single, cfg1) <= 1
    from hybridqmc.discrepancy import PointSetD, star_discrepancy_exact

    bound = walsh_discrepancy_bound(FULL2, cfg1)
    pts = PointSetD(_coordinates(sublattice_enumerate(FULL2, cfg1), 2, 2))
    assert pts.n * star_discrepancy_exact(pts) <= bound


def test_walsh_bound_residue_independent():
    cfg = LatticeConfig(2, P("X^3+X+1"), (Poly.x(2),))
    vals = set()
    for r in range(2):
        spec = SubLatticeSpec(3, 0, ResidueClass(Poly.x(2), poly_from_int(r, 2)))
        vals.add(walsh_discrepancy_bound(spec, cfg))
    assert len(vals) == 1


def _dual_weight_sum(cfg, modulus, d):
    # sum of product weights over the nonzero frequency tuples in the dual
    # of l*B (deg l < d), from its p^d points: p^-d * S_d / (3p)^t - 1
    return Fraction(shape_sums(cfg, modulus)[d], cfg.p**d * (3 * cfg.p) ** cfg.t) - 1


def _scaled_weight(k, p, m):
    # p^(m+2) * walsh_weight(k, p) for k < p^m, whose coordinates are integers
    scaled = [c * p ** (m + 2) for c in walsh_weight(k, p)]
    assert all(c.denominator == 1 for c in scaled), (k, p, m)
    return [c.numerator for c in scaled]


def test_dual_weight_sum_matches_frequency_enumeration():
    # reference: the product weights of every nonzero frequency tuple whose
    # combined residue times B sinks below X^-d, enumerated over all p^(mt)
    # tuples and multiplied out in Q(zeta_p) on integer coordinates scaled
    # by p^(m+2) per component
    rng = random.Random(1808)
    checks = 0
    for p in (2, 3, 5):
        for m in range(1, 5):
            pX = irreducible_poly(p, m)
            moduli = [
                poly_from_int(p**k + low, p) for k in range(m + 1) for low in range(p**k)
            ]
            for t in range(1, 4):
                if p ** (m * t) > 5000:
                    continue
                cfg = LatticeConfig(
                    p, pX, tuple(poly_from_int(rng.randrange(1, p**m), p) for _ in range(t))
                )
                weights = [_scaled_weight(k, p, m) for k in range(p**m)]
                by_residue = {}
                for kvec, combined in _combined_residues(cfg):
                    product = functools.reduce(_times, (weights[k] for k in kvec))
                    acc = by_residue.setdefault(combined, [0] * p)
                    for s, c in enumerate(product):
                        acc[s] += c
                for B in moduli:
                    if poly_gcd(B, pX).degree != 0:
                        continue
                    # every residue below pX has valuation < 0, so at d = 0 (the
                    # only depth when deg B = m) every frequency tuple counts
                    vals = {}
                    if B.degree < m:
                        vals = {c: valuation((c * B) % pX, pX) for c in by_residue}
                    for d in range(m - B.degree + 1):
                        dual = [acc for c, acc in by_residue.items() if d == 0 or vals[c] < -d]
                        ref = [sum(column) for column in zip([0] * p, *dual)]
                        got = _dual_weight_sum(cfg, B, d)
                        assert isinstance(got, Fraction)
                        bound = _modulus_bound(cfg, B)[d]
                        assert Fraction(bound, p**m * (3 * p) ** t) == min(
                            Fraction(t, p ** (m - d)) + p**d * got, p**d
                        )
                        assert got == Fraction(_rational(ref), p ** ((m + 2) * t))
                        checks += 1
    assert checks == 1896


def _laurent_block(numerator, modulus, d):
    # reference digit map: m x d Hankel block [j][c] = a_(j+c+1) of
    # {numerator/modulus} by one Laurent division, m = deg modulus
    m = modulus.degree
    digits = laurent_coeffs(numerator, modulus, m + d - 1) if m + d > 1 else ()
    return tuple(tuple(digits[j : j + d]) for j in range(m))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_digit_matrix_matches_laurent_division(data):
    # the convolution of B with the 2m - 1 Laurent digits of q/pX gives the
    # digit map of {B*q/pX} at every d <= m - deg B
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    m = data.draw(st.integers(1, 6), label="m")
    pX = poly_from_int(p**m + data.draw(st.integers(0, p**m - 1), label="pX low"), p)
    q = poly_from_int(data.draw(st.integers(0, p**m - 1), label="q"), p)
    k = data.draw(st.integers(0, m), label="deg B")
    lead = data.draw(st.integers(1, p - 1), label="B lead")
    B = poly_from_int(lead * p**k + data.draw(st.integers(0, p**k - 1), label="B low"), p)
    digits = laurent_coeffs(q, pX, 2 * m - 1)
    for d in range(m - k + 1):
        assert digit_matrix(digits, B, m, d) == _laurent_block(B * q, pX, d)


def _point_sum(cfg, modulus, d):
    # reference: sum_l prod_i 3p*phi(x_i(l)) over the p^d points l*B, from a
    # polynomial product, a digit map by Laurent division and a walk over its
    # p^d images for every level d
    p = cfg.p
    zero = (0,) * cfg.m
    walks = [
        index_walk(list(zip(*_laurent_block(modulus * q, cfg.modulus, d))), zero, p**d, p)
        for q in cfg.generators
    ]
    return sum(math.prod(_scaled_phi(x, p) for x in point) for point in zip(*walks))


def _dual_weight_sum_per_level(cfg, modulus, d):
    return Fraction(_point_sum(cfg, modulus, d), cfg.p**d * (3 * cfg.p) ** cfg.t) - 1


@functools.lru_cache(maxsize=None)
def _irreducibles(p, m):
    monics = (poly_from_int(p**m + low, p) for low in range(p**m))
    return [f for f in monics if poly_is_irreducible(f)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shape_sums_match_point_sums(data):
    # the Poly-product oracle reads every level off r_i = B*q_i mod pX: the
    # rank profile at t = 1, the unit-group table at t >= 2
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    m = data.draw(st.integers(1, 5), label="m")
    t = data.draw(st.integers(1, 3), label="t")
    pX = data.draw(st.sampled_from(_irreducibles(p, m)), label="pX")
    qvec = data.draw(st.lists(st.integers(1, p**m - 1), min_size=t, max_size=t), label="q")
    cfg = LatticeConfig(p, pX, tuple(poly_from_int(q, p) for q in qvec))
    k = data.draw(st.integers(0, m), label="deg B")
    B = poly_from_int(p**k + data.draw(st.integers(0, p**k - 1), label="B low"), p)
    assume(B != pX)
    sums = shape_sums(cfg, B)
    assert len(sums) == m - k + 1
    for d, got in enumerate(sums):
        assert got == _point_sum(cfg, B, d)


@pytest.mark.parametrize(
    "p, m, q, total, shapes",
    [(2, 5, "X^3+X+1", Fraction(897, 8), 20), (3, 3, "X^2+2", Fraction(138), 4)],
)
def test_certificate_class_bounds_match_per_level_sums(p, m, q, total, shapes):
    pX = irreducible_poly(p, m)
    bases = (P("X", p), P("X+1", p))
    cfg = LatticeConfig(p, pX, (P(q, p),))
    cert = discrepancy_certificate(m, HaltonConfig.make(p, bases), cfg)
    den, checked = cert.denominator, 0
    for u, (table, nums) in enumerate(zip(cert.table, cert.shape_numerators), start=1):
        for (exps, deg_b, _, _), num in zip(table, nums):
            d = u - deg_b
            if d < 0:
                assert num == den
                continue
            B = Poly.one(p)
            for b, j in zip(bases, exps):
                for _ in range(j):
                    B = B * b
            ref = _dual_weight_sum_per_level(cfg, B, d)
            cap = p**d
            assert Fraction(num, den) == min(Fraction(1, p ** (m - d)) + cap * ref, cap)
            checked += 1
    assert checked == shapes
    assert cert.total == total


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_modulus_bound_entries_are_the_sublattice_bounds(data):
    # entry d of the bound tuple of B, over p^m * (3p)^t, is the Walsh bound
    # of every sub-lattice of modulus B with digit freedom d, and its value
    # from the point-sum reference
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    m = data.draw(st.integers(1, 4), label="m")
    t = data.draw(st.integers(1, 3), label="t")
    pX = data.draw(st.sampled_from(_irreducibles(p, m)), label="pX")
    qvec = data.draw(st.lists(st.integers(1, p**m - 1), min_size=t, max_size=t), label="q")
    cfg = LatticeConfig(p, pX, tuple(poly_from_int(q, p) for q in qvec))
    k = data.draw(st.integers(0, m), label="deg B")
    B = poly_from_int(p**k + data.draw(st.integers(0, p**k - 1), label="B low"), p)
    assume(B != pX)
    bounds = _modulus_bound(cfg, B)
    assert len(bounds) == m - k + 1
    for d, bound in enumerate(bounds):
        u = k + d
        start = data.draw(st.integers(0, p ** (m - u) - 1), label="block") * p**u
        residue = poly_from_int(data.draw(st.integers(0, p**k - 1), label="R"), p)
        spec = SubLatticeSpec(u, start, ResidueClass(B, residue))
        expected = walsh_discrepancy_bound(spec, cfg)
        assert type(expected) is Fraction
        assert Fraction(bound, p**m * (3 * p) ** t) == expected
        ref = _dual_weight_sum_per_level(cfg, B, d)
        assert expected == min(Fraction(t, p ** (m - d)) + p**d * ref, p**d)
