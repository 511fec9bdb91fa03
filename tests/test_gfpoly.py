import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridqmc.gfpoly import (
    NEG_INF,
    BasePRational,
    ParseError,
    Poly,
    PrimeModulus,
    ResidueClass,
    irreducible_poly,
    laurent_coeffs,
    laurent_expand,
    poly_divmod,
    poly_egcd,
    poly_format,
    poly_from_int,
    poly_gcd,
    poly_is_irreducible,
    poly_parse,
    poly_pow_mod,
    poly_to_int,
    valuation,
)


def P(text, p=2):
    return poly_parse(text, p)


def test_prime_modulus_rejects_composites():
    assert PrimeModulus(2).p == 2
    assert PrimeModulus(13).p == 13
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeModulus(bad)


def test_divmod_examples():
    q, r = poly_divmod(P("X^3+X+1"), P("X^2+1"))
    assert (q, r) == (P("X"), P("1"))
    assert poly_divmod(Poly.zero(2), Poly.x(2)) == (Poly.zero(2), Poly.zero(2))
    q, r = poly_divmod(P("X^2+X+1"), Poly.one(2))
    assert (q, r) == (P("X^2+X+1"), Poly.zero(2))


def test_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        poly_divmod(P("X"), Poly.zero(2))


def test_divmod_identity_exhaustive_p2():
    polys = [poly_from_int(n, 2) for n in range(32)]
    for a in polys:
        for b in polys:
            if b.is_zero:
                continue
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_divmod_identity_random_p3():
    rng = random.Random(5)
    for _ in range(2000):
        a = poly_from_int(rng.randrange(3**7), 3)
        b = poly_from_int(rng.randrange(1, 3**7), 3)
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_gcd_examples():
    assert poly_gcd(P("X^2+1"), P("X+1")) == P("X+1")
    assert poly_gcd(P("X"), P("X+1")) == Poly.one(2)
    assert poly_gcd(poly_from_int(17, 3), Poly.one(3)) == Poly.one(3)
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(2), Poly.zero(2))


def test_gcd_is_monic_p3():
    # 2X+2 and X+1 share the monic factor X+1
    assert poly_gcd(Poly(3, (2, 2)), Poly(3, (1, 1))) == Poly(3, (1, 1))


def test_egcd_bezout():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice((2, 3))
        a = poly_from_int(rng.randrange(p**5), p)
        b = poly_from_int(rng.randrange(p**5), p)
        if a.is_zero and b.is_zero:
            continue
        g, s, t = poly_egcd(a, b)
        assert s * a + t * b == g
        assert g.is_monic


@st.composite
def _poly_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    coeffs = st.lists(st.integers(0, p - 1), max_size=9)  # degree <= 8
    return Poly(p, draw(coeffs)), Poly(p, draw(coeffs))


@settings(max_examples=200, deadline=None)
@given(_poly_pairs())
def test_egcd_bezout_property(pair):
    a, b = pair
    if a.is_zero and b.is_zero:
        with pytest.raises(ValueError):
            poly_egcd(a, b)
        return
    g, s, t = poly_egcd(a, b)
    assert s * a + t * b == g
    assert g.is_monic
    assert (a % g).is_zero and (b % g).is_zero


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((2, 3, 5)).flatmap(
        lambda p: st.lists(st.integers(0, p - 1), max_size=12).map(lambda c: Poly(p, c))
    )
)
def test_parse_format_round_trip(a):
    assert poly_parse(poly_format(a), a.p) == a


def test_irreducibility_examples():
    assert poly_is_irreducible(P("X^2+X+1"))
    assert not poly_is_irreducible(P("X^2+1"))
    assert poly_is_irreducible(P("X"))
    with pytest.raises(ValueError):
        poly_is_irreducible(Poly.one(2))


def test_irreducible_count_degree_4_p2():
    # there are exactly three monic irreducible quartics over GF(2)
    quartics = [
        poly_from_int(16 + low, 2) for low in range(16)
    ]
    assert sum(poly_is_irreducible(f) for f in quartics) == 3
    assert irreducible_poly(2, 4) == P("X^4+X+1")


def _irreducible_by_trial_division(a):
    # reference: no monic divisor of degree 1..deg(a)/2
    p = a.p
    for k in range(1, a.degree // 2 + 1):
        for low in range(p**k):
            if (a % poly_from_int(p**k + low, p)).is_zero:
                return False
    return True


def test_irreducibility_matches_trial_division():
    # every polynomial of degree 1..dmax with every nonzero leading coefficient
    checked = 0
    for p, dmax in ((2, 10), (3, 6), (5, 4), (7, 3)):
        for d in range(1, dmax + 1):
            for lead in range(1, p):
                for low in range(p**d):
                    a = poly_from_int(lead * p**d + low, p)
                    assert poly_is_irreducible(a) == _irreducible_by_trial_division(a), a
                    checked += 1
    assert checked == 9744


def test_irreducible_poly_high_degree():
    # the smallest irreducible of degree 64 is the pentanomial of the
    # GF(2^64) tables; trial division would need 2^32 divisors to confirm it
    assert irreducible_poly(2, 64) == P("X^64+X^4+X^3+X+1")
    assert not poly_is_irreducible(P("X^64+X^4+X^3+1"))


def test_int_poly_bijection_examples():
    assert poly_from_int(6, 2) == P("X^2+X")
    assert poly_from_int(0, 3) == Poly.zero(3)
    assert poly_from_int(5, 3) == poly_parse("X+2", 3)


def test_int_poly_roundtrip():
    for n in range(2**12):
        assert poly_to_int(poly_from_int(n, 2)) == n
    for n in range(3**7):
        assert poly_to_int(poly_from_int(n, 3)) == n
    for n in (3**12 - 1, 3**12 - 17, 5**12 - 1):
        p = 3 if n < 3**12 else 5
        assert poly_to_int(poly_from_int(n, p)) == n


def test_laurent_examples():
    den = P("X^2+X+1")
    assert laurent_coeffs(Poly.one(2), den, 6) == (0, 1, 1, 0, 1, 1)
    assert laurent_coeffs(Poly.x(2), den, 6) == (1, 1, 0, 1, 1, 0)
    assert laurent_coeffs(Poly.zero(2), den, 4) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        laurent_coeffs(Poly.one(2), den, 0)
    with pytest.raises(ZeroDivisionError):
        laurent_coeffs(Poly.one(2), Poly.zero(2), 3)


def test_laurent_truncation_consistency():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.choice((2, 3))
        num = poly_from_int(rng.randrange(p**6), p)
        den = poly_from_int(rng.randrange(1, p**6), p)
        long = laurent_coeffs(num, den, 9)
        short = laurent_coeffs(num, den, 4)
        assert long[:4] == short
        prefix = laurent_expand(num, den, 9)
        assert prefix.truncate(4).coeffs == short


def test_laurent_multiplication_check():
    # den * (poly part + prefix) must reproduce the numerator above X^(deg den - 1)
    rng = random.Random(9)
    for _ in range(200):
        p = rng.choice((2, 3))
        num = poly_from_int(rng.randrange(p**6), p)
        den = poly_from_int(rng.randrange(1, p**6), p)
        T = 7
        q0 = num // den
        prefix = laurent_coeffs(num, den, T)
        series = q0.shift(T)
        for j, a in enumerate(prefix, start=1):
            series = series + poly_from_int(a, p).shift(T - j)
        err = num.shift(T) - den * series
        assert err.degree < den.degree


def test_valuation_examples():
    den = P("X^2+X+1")
    assert valuation(Poly.x(2), den) == -1
    assert valuation(Poly.zero(2), den) == NEG_INF
    assert valuation(P("X^2+1"), den) == 0
    with pytest.raises(ZeroDivisionError):
        valuation(Poly.x(2), Poly.zero(2))


def test_valuation_matches_first_laurent_coefficient():
    rng = random.Random(21)
    for _ in range(300):
        p = rng.choice((2, 3))
        den = poly_from_int(rng.randrange(p**3, p**6), p)
        num = poly_from_int(rng.randrange(p**6), p) % den
        v = valuation(num, den)
        prefix = laurent_coeffs(num, den, 12)
        if num.is_zero:
            assert v == NEG_INF
            continue
        leading = next(i for i, a in enumerate(prefix, start=1) if a)
        assert v == -leading


def test_parse_format_examples():
    assert poly_parse("x^2 + x + 1", 2) == Poly(2, (1, 1, 1))
    assert poly_parse("[0,1]", 3) == Poly.x(3)
    assert poly_format(Poly(2, (1, 0, 1))) == "X^2+1"
    assert poly_format(Poly.zero(5)) == "0"
    assert poly_format(Poly.one(5)) == "1"
    assert poly_format(Poly(3, (1, 2))) == "2X+1"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        poly_parse("X^2+3X+1", 3)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        poly_parse("X^2++1", 2)
    with pytest.raises(ParseError):
        poly_parse("[1,2]", 2)
    with pytest.raises(ParseError):
        poly_parse("", 2)
    with pytest.raises(ParseError):
        poly_parse("X^", 2)


def test_parse_format_roundtrip():
    rng = random.Random(17)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        a = poly_from_int(rng.randrange(p**6), p)
        assert poly_parse(poly_format(a), p) == a


def test_pow_mod():
    pX = P("X^2+X+1")
    assert poly_pow_mod(Poly.x(2), 2, pX) == P("X+1")
    assert poly_pow_mod(Poly.x(2), 3, pX) == Poly.one(2)
    assert poly_pow_mod(P("X+1"), 2, pX) == Poly.x(2)


def test_base_p_rational_invariants():
    x = BasePRational(2, 13, 4)
    assert x.digits() == (1, 1, 0, 1)
    assert x.token() == "13/16"
    assert x == BasePRational(2, 13, 4)
    assert BasePRational(2, 1, 1) == BasePRational(2, 2, 2)  # value equality
    assert BasePRational.zero(3).as_fraction() == 0
    with pytest.raises(ValueError):
        BasePRational(2, 4, 2)
    with pytest.raises(ValueError):
        BasePRational(2, 1, 0)
    assert sorted([BasePRational(2, 3, 2), BasePRational(2, 1, 2)])[0].num == 1


def test_base_p_rational_ordering_mixed():
    # mixed exponents and mixed primes compare, order and hash as their values
    values = [
        BasePRational(p, num, L) for p in (2, 3, 5) for L in range(4) for num in range(p**L)
    ]
    for a in values:
        for b in values:
            fa, fb = a.as_fraction(), b.as_fraction()
            assert (a == b) == (fa == fb)
            assert (a < b) == (fa < fb)
            if a == b:
                assert hash(a) == hash(b)
        assert a == a.as_fraction() and hash(a) == hash(a.as_fraction())
    assert [x.as_fraction() for x in sorted(values)] == sorted(x.as_fraction() for x in values)
    assert BasePRational(3, 0, 2) == 0 and hash(BasePRational(3, 0, 2)) == hash(0)


def test_residue_class():
    cls = ResidueClass(P("X^2"), Poly.one(2))
    assert cls.contains(1) and cls.contains(5)
    assert not cls.contains(3)
    assert cls.measure().denominator == 4
    whole = ResidueClass(Poly.one(2), Poly.zero(2))
    assert whole.contains(7) and whole.measure() == 1
    with pytest.raises(ValueError):
        ResidueClass(P("X+1"), P("X"))  # residue degree too large
    with pytest.raises(ValueError):
        ResidueClass(Poly(3, (1, 2)), Poly.zero(3))  # not monic
