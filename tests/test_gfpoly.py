import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridqmc.gfpoly import (
    NEG_INF,
    BasePRational,
    ParseError,
    Poly,
    ResidueClass,
    _is_prime,
    _long_division,
    as_prime,
    irreducible_poly,
    laurent_coeffs,
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
from base_p_digits import digits
from poly_shift import shifted


def P(text, p=2):
    return poly_parse(text, p)


def test_prime_modulus_rejects_composites():
    assert as_prime(2) == 2
    assert as_prime(13) == 13
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError, match=f"modulus {bad} is not prime"):
            as_prime(bad)


@pytest.mark.parametrize("bad", [True, False, 1, 4, -3, 2.0, "2"])
def test_as_prime_errors_match_prime_modulus(bad):
    # one message for every rejected modulus; a bool or a float is rejected
    # even where its value is an int or a prime
    with pytest.raises(ValueError) as got:
        as_prime(bad)
    assert str(got.value) == f"modulus {bad!r} is not prime"


def test_as_prime_accepts_primes_and_prime_moduli():
    assert as_prime(7) == 7 and type(as_prime(7)) is int
    assert as_prime(2**61 - 1) == 2**61 - 1


def test_primality_agrees_with_a_sieve():
    # every n < 10^5: composites are the multiples d*k, k >= d, of d <= 316
    composite = set()
    for d in range(2, 317):
        composite.update(range(d * d, 10**5, d))
    primes = [n for n in range(2, 10**5) if n not in composite]
    assert [n for n in range(10**5) if _is_prime.__wrapped__(n)] == primes


@pytest.mark.parametrize(
    "n, prime",
    [
        ((2**31 - 1) ** 2, False),  # no factor below 2^31 - 1
        (318665857834031151167461, False),  # strong pseudoprime to the bases 2..37
        (2**61 - 1, True),
    ],
)
def test_primality_in_bounded_time(n, prime):
    start = time.perf_counter()
    assert _is_prime.__wrapped__(n) is prime
    assert time.perf_counter() - start < 0.1


def test_primality_range_is_bounded():
    # 13 prime bases decide primality below 3.3e24; a larger p is rejected
    assert not _is_prime(3317044064679887385961980)
    with pytest.raises(ValueError, match="out of range"):
        as_prime(3317044064679887385961981)


def test_divmod_examples():
    q, r = divmod(P("X^3+X+1"), P("X^2+1"))
    assert (q, r) == (P("X"), P("1"))
    assert divmod(Poly.zero(2), Poly.x(2)) == (Poly.zero(2), Poly.zero(2))
    q, r = divmod(P("X^2+X+1"), Poly.one(2))
    assert (q, r) == (P("X^2+X+1"), Poly.zero(2))


def test_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        divmod(P("X"), Poly.zero(2))


def test_divmod_identity_exhaustive_p2():
    polys = [poly_from_int(n, 2) for n in range(32)]
    for a in polys:
        for b in polys:
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_divmod_identity_random_p3():
    rng = random.Random(5)
    for _ in range(2000):
        a = poly_from_int(rng.randrange(3**7), 3)
        b = poly_from_int(rng.randrange(1, 3**7), 3)
        q, r = divmod(a, b)
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
        series = shifted(q0, T)
        for j, a in enumerate(prefix, start=1):
            series = series + shifted(poly_from_int(a, p), T - j)
        err = shifted(num, T) - den * series
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


def test_parse_caps_the_exponent():
    # the term form builds a coefficient list as long as its largest exponent
    assert poly_parse("X^65536+1", 2).degree == 2**16
    assert poly_parse("X^0000002", 2) == Poly(2, (0, 0, 1))
    # just above the cap first; the digit count alone rejects a long exponent
    for text in ("X+X^65537", "X+X^" + "9" * 5000):
        with pytest.raises(ParseError, match="exponent above 65536") as err:
            poly_parse(text, 2)
        assert err.value.position == 2


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
    assert (x.p, x.num, x.L) == (2, 13, 4) and digits(x.num, x.p, x.L) == (1, 1, 0, 1)
    assert x.token() == "13/16"
    assert x == BasePRational(2, 13, 4)
    assert BasePRational(2, 1, 1) == BasePRational(2, 2, 2)  # value equality
    assert Fraction(BasePRational(3, 0, 0)) == 0
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
            fa, fb = Fraction(a), Fraction(b)
            assert (a == b) == (fa == fb)
            assert (a < b) == (fa < fb)
            if a == b:
                assert hash(a) == hash(b)
        assert a == Fraction(a) and hash(a) == hash(Fraction(a))
        assert isinstance(a, Fraction) and type(Fraction(a)) is Fraction
        assert float(a) == float(Fraction(a))
    assert [Fraction(x) for x in sorted(values)] == sorted(Fraction(x) for x in values)
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


def _laurent_coeffs_reference(numerator, denominator, t):
    # the two-step definition: reduce, then divide the shifted remainder as Polys
    r = numerator % denominator
    if r.is_zero:
        return (0,) * t
    q, _ = divmod(shifted(r, t), denominator)
    qc = q.coeffs
    return tuple(qc[t - j] if 0 <= t - j < len(qc) else 0 for j in range(1, t + 1))


@st.composite
def _division_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    digit = st.integers(0, p - 1)
    a = Poly(p, draw(st.lists(digit, max_size=10)))
    lead = draw(st.integers(1, p - 1))  # any nonzero leading coefficient
    b = Poly(p, draw(st.lists(digit, max_size=6)) + [lead])
    return a, b, draw(st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@example((Poly(5, ()), Poly(5, (1, 3)), 4))  # zero dividend, non-monic divisor
@example((Poly(7, (6, 2)), Poly(7, (1, 0, 0, 3)), 5))  # deg a < deg b
@example((Poly(3, (2, 1, 2)), Poly(3, (2,)), 3))  # constant non-monic divisor
@given(_division_cases())
def test_long_division_kernel_property(case):
    a, b, t = case
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert a % b == r
    assert laurent_coeffs(a, b, t) == _laurent_coeffs_reference(a, b, t)


def test_division_errors():
    a = Poly(3, (1, 2))
    for divide in (divmod, lambda x, y: x % y, lambda x, y: laurent_coeffs(x, y, 3)):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            divide(a, Poly.zero(3))
        with pytest.raises(ValueError, match="mixed moduli 3 and 2"):
            divide(a, Poly(2, (1, 1)))
    for divide in (divmod, lambda x, y: x % y):
        with pytest.raises(TypeError):
            divide(a, 3)
    with pytest.raises(TypeError):
        laurent_coeffs(3, a, 3)


def _schoolbook_division(a, b, p):
    # dense reference: reduce every coefficient, subtract the whole scaled
    # divisor at every step and reduce again
    rem = [x % p for x in a]
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = rem[i + len(b) - 1] * inv % p
        for j, c in enumerate(b):
            rem[i + j] = (rem[i + j] - q[i] * c) % p
    rem = rem[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(q), tuple(rem)


@st.composite
def _kernel_cases(draw):
    # a is any integer list, as a product of reduced coefficients may be; b
    # is a reduced divisor with any nonzero leading coefficient
    p = draw(st.sampled_from((2, 3, 5, 7)), label="p")
    a = draw(st.lists(st.integers(-3 * p * p, 3 * p * p), max_size=12), label="a")
    low = draw(st.lists(st.integers(0, p - 1), max_size=6), label="b low")
    return a, (*low, draw(st.integers(1, p - 1), label="b lead")), p


@settings(max_examples=400, deadline=None)
@example(((), (1, 3), 5))  # zero numerator, non-monic divisor
@example(((0, 5, -5), (2, 1), 5))  # an unreduced zero numerator
@example(((6, 2), (1, 0, 0, 3), 7))  # deg a < deg b
@example(((2, 1, 2), (2,), 3))  # constant non-monic divisor
@example(((1,) * 12, (1, 0, 0, 0, 0, 1), 2))  # sparse divisor
@given(_kernel_cases())
def test_long_division_matches_schoolbook(case):
    a, b, p = case
    q, r = _schoolbook_division(a, b, p)
    assert _long_division(a, b, p, True) == (q, r)
    assert _long_division(a, b, p, False) == (None, r)


def test_long_division_rejects_a_zero_divisor():
    for quotient in (True, False):
        with pytest.raises(ZeroDivisionError, match="zero divisor"):
            _long_division((1, 2), (), 3, quotient)


def _two_step_laurent(numerator, denominator, t):
    # the definition: r = numerator mod denominator, then the quotient of
    # r * X^T by the denominator holds a_T, ..., a_1 from its lowest term up
    p, b = numerator.p, denominator.coeffs
    r = _schoolbook_division(numerator.coeffs, b, p)[1]
    q = _schoolbook_division((0,) * t + r, b, p)[0]
    return tuple(q[t - j] if t - j < len(q) else 0 for j in range(1, t + 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_laurent_coeffs_is_the_two_step_definition(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
    digit = st.integers(0, p - 1)
    numerator = Poly(p, data.draw(st.lists(digit, max_size=12), label="numerator"))
    lead = data.draw(st.integers(1, p - 1), label="lead")
    denominator = Poly(p, data.draw(st.lists(digit, max_size=6), label="low") + [lead])
    t = data.draw(st.integers(1, 14), label="t")
    assert laurent_coeffs(numerator, denominator, t) == _two_step_laurent(
        numerator, denominator, t
    )
