import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridqmc.discrepancy import format_point_line
from hybridqmc.gfpoly import (
    Poly,
    irreducible_poly,
    poly_from_int,
    poly_gcd,
    poly_is_irreducible,
    poly_parse,
)
from hybridqmc.plattice import LatticeConfig, plattice_point_laurent
from hybridqmc import seqgen
from hybridqmc.seqgen import (
    HaltonConfig,
    SigmaBijection,
    box_to_residue_classes,
    digital_points,
    halton_point,
    hybrid_point,
    hybrid_point_set,
    identity_sigma,
    radical_inverse_poly,
    residue_classes_measure,
)


def P(text, p=2):
    return poly_parse(text, p)


def radical_inverse_int(n: int, b: int) -> Fraction:
    """Classic digit-reversal map: n written in base b, mirrored around the
    point; the reference for the base-X polynomial radical inverse."""
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


def test_radical_inverse_int_examples():
    assert radical_inverse_int(1, 2) == Fraction(1, 2)
    assert radical_inverse_int(3, 2) == Fraction(3, 4)
    assert radical_inverse_int(5, 3) == Fraction(7, 9)
    assert radical_inverse_int(0, 7) == 0
    with pytest.raises(ValueError):
        radical_inverse_int(1, 1)


def test_radical_inverse_int_matches_digit_reversal():
    # independent oracle: reverse the digit string literally
    rng = random.Random(2)
    for _ in range(200):
        b = rng.choice((2, 3, 5, 7))
        n = rng.randrange(b**6)
        digits = []
        k = n
        while k:
            k, r = divmod(k, b)
            digits.append(r)
        expected = sum(d * Fraction(1, b ** (i + 1)) for i, d in enumerate(digits))
        assert radical_inverse_int(n, b) == expected


def test_radical_inverse_poly_examples():
    assert Fraction(radical_inverse_poly(4, P("X^2+X+1"))) == Fraction(13, 16)
    assert Fraction(radical_inverse_poly(0, Poly.x(2))) == 0
    assert Fraction(radical_inverse_poly(2, P("X+1"))) == Fraction(3, 4)


def test_radical_inverse_poly_base_x_equals_integer_map():
    # in base X with identity sigma the polynomial map reduces to the classic one
    for n in range(64):
        assert Fraction(radical_inverse_poly(n, Poly.x(2))) == radical_inverse_int(n, 2)
    for n in range(27):
        assert Fraction(radical_inverse_poly(n, Poly.x(3))) == radical_inverse_int(n, 3)


def test_radical_inverse_poly_exponent_bound():
    base = P("X^2+X+1")
    for m in range(1, 9):
        e = base.degree
        cap = e * (-(-m // e))
        for n in range(2**m):
            assert radical_inverse_poly(n, base).L <= cap


def test_sigma_validation():
    with pytest.raises(ValueError):
        SigmaBijection(2, 1, (1, 0))  # must fix 0
    with pytest.raises(ValueError):
        SigmaBijection(2, 2, (0, 1, 1, 2))  # not a bijection
    sig = SigmaBijection(2, 2, (0, 2, 3, 1))
    assert sig.inverse == (0, 3, 1, 2)
    with pytest.raises(ValueError):
        radical_inverse_poly(3, P("X^2+X+1"), identity_sigma(2, 1))


def test_halton_examples():
    cfg = HaltonConfig.make(2, (Poly.x(2), P("X+1")))
    assert [Fraction(c) for c in halton_point(3, cfg)] == [
        Fraction(3, 4),
        Fraction(1, 4),
    ]
    assert all(Fraction(c) == 0 for c in halton_point(0, cfg))
    single = HaltonConfig.make(2, (Poly.x(2),))
    assert Fraction(halton_point(1, single)[0]) == Fraction(1, 2)


def test_halton_config_validation():
    with pytest.raises(ValueError):
        HaltonConfig.make(2, (Poly.x(2), Poly.x(2) * P("X+1")))  # not coprime
    with pytest.raises(ValueError):
        HaltonConfig.make(2, (Poly.one(2),))  # constant base
    with pytest.raises(ValueError):
        HaltonConfig.make(2, (Poly.x(2), Poly(2, (0, 1, 1))))  # shares factor X
    with pytest.raises(ValueError):
        HaltonConfig.make(3, (Poly(3, (1, 2)),))  # non-monic base
    assert HaltonConfig.make(2, ()).s == 0  # degenerate empty part is allowed


def test_box_classes_examples():
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    only = box_to_residue_classes(cfg, [1], [1])
    assert [(str(c.modulus), str(c.residue)) for c in only] == [("X", "0")]
    whole = box_to_residue_classes(cfg, [1], [2])
    assert [(str(c.modulus), str(c.residue)) for c in whole] == [("1", "0")]
    pair = box_to_residue_classes(cfg, [2], [3])
    assert [(str(c.modulus), str(c.residue)) for c in pair] == [("X", "0"), ("X^2", "1")]
    with pytest.raises(ValueError):
        box_to_residue_classes(cfg, [1], [3])


def test_box_measure_examples():
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    pair = box_to_residue_classes(cfg, [2], [3])
    assert residue_classes_measure(pair) == Fraction(3, 4)
    assert residue_classes_measure([]) == 0
    whole = box_to_residue_classes(cfg, [1], [2])
    assert residue_classes_measure(whole) == 1


def _check_box_grid(cfg, max_level, n_limit):
    degrees = cfg.degrees
    boxes = 0
    for levels in itertools.product(range(max_level + 1), repeat=cfg.s):
        caps = [cfg.p ** (e * l) for e, l in zip(degrees, levels)]
        for vs in itertools.product(*(range(1, c + 1) for c in caps)):
            classes = box_to_residue_classes(cfg, levels, vs)
            bounds = [Fraction(v, c) for v, c in zip(vs, caps)]
            volume = Fraction(1)
            for b in bounds:
                volume *= b
            assert residue_classes_measure(classes) == volume
            count_bound = 1
            for e, l in zip(degrees, levels):
                count_bound *= max(cfg.p**e * l, 1)
            assert len(classes) <= max(count_bound, 1)
            for n in range(n_limit):
                pt = halton_point(n, cfg)
                in_box = all(Fraction(x) < b for x, b in zip(pt, bounds))
                hits = sum(1 for c in classes if c.contains(n))
                assert hits <= 1
                assert in_box == (hits == 1)
            boxes += 1
    return boxes


def test_box_grid_small_default_sigma():
    cfg = HaltonConfig.make(2, (Poly.x(2), P("X+1")))
    assert _check_box_grid(cfg, 1, 32) == 9


def test_box_grid_nondefault_sigma_quadratic_base():
    sig = SigmaBijection(2, 2, (0, 3, 1, 2))
    cfg = HaltonConfig.make(
        2, (Poly.x(2), P("X^2+X+1")), (identity_sigma(2, 1), sig)
    )
    _check_box_grid(cfg, 1, 64)


def test_box_grid_nondefault_sigma_p3():
    sig = SigmaBijection(3, 1, (0, 2, 1))
    cfg = HaltonConfig.make(3, (Poly.x(3),), (sig,))
    _check_box_grid(cfg, 2, 81)


@st.composite
def _halton_configs(draw):
    # p in {2, 3}, one to three pairwise coprime monic bases of degree <= 2,
    # each with a random sigma fixing 0; three bases join by two CRT steps
    p = draw(st.sampled_from((2, 3)), label="p")
    monics = [poly_from_int(p**e + low, p) for e in (1, 2) for low in range(p**e)]
    bases = []
    for _ in range(draw(st.integers(1, 3), label="s")):
        coprime = [b for b in monics if all(poly_gcd(b, other).degree == 0 for other in bases)]
        if not coprime:
            break
        bases.append(draw(st.sampled_from(coprime), label="base"))
    sigmas = [
        SigmaBijection(p, b.degree, (0, *draw(st.permutations(range(1, p**b.degree)))))
        for b in bases
    ]
    return HaltonConfig.make(p, bases, sigmas)


@settings(max_examples=150, deadline=None)
@given(cfg=_halton_configs(), data=st.data())
def test_box_membership_matches_one_class(cfg, data):
    # the Halton point of n lies in the anchored box exactly when n lies in
    # one of the box's residue classes
    top = 3 if cfg.s < 3 else 2  # three dimensions at level 3 reach 24^3 classes
    levels = [data.draw(st.integers(0, top), label="level") for _ in cfg.bases]
    caps = [cfg.p ** (e * l) for e, l in zip(cfg.degrees, levels)]
    vs = [data.draw(st.integers(1, c), label="numerator") for c in caps]
    n = data.draw(st.integers(0, cfg.p**12), label="n")
    classes = box_to_residue_classes(cfg, levels, vs)
    pt = halton_point(n, cfg)
    in_box = all(Fraction(x) < Fraction(v, c) for x, v, c in zip(pt, vs, caps))
    hits = sum(1 for c in classes if c.contains(n))
    assert hits <= 1
    assert in_box == (hits == 1)


def test_box_classes_are_fresh_lists_of_new_objects():
    # the caches hold tuples of Polys; every call hands out its own list
    sig = SigmaBijection(3, 1, (0, 2, 1))
    cfg = HaltonConfig.make(3, (Poly.x(3), P("X+1", 3)), (sig, identity_sigma(3, 1)))
    first = box_to_residue_classes(cfg, [2, 1], [5, 2])
    second = box_to_residue_classes(cfg, [2, 1], [5, 2])
    assert len(first) > 1 and first == second and first is not second
    assert not any(a is b for a, b in zip(first, second))
    kept = list(second)
    first.reverse()
    first.append(first[0])
    del first[1]
    assert second == kept
    assert box_to_residue_classes(cfg, [2, 1], [5, 2]) == kept


@pytest.mark.parametrize(
    "levels, numerators", [([1, -1], [1, 1]), ([1, 1], [1, 3]), ([1, 1], [0, 1])]
)
def test_box_classes_check_every_argument_before_a_cache_lookup(levels, numerators):
    cfg = HaltonConfig.make(2, (Poly.x(2), P("X+1")))
    before = seqgen._digit_classes.cache_info()
    with pytest.raises(ValueError):
        box_to_residue_classes(cfg, levels, numerators)
    assert seqgen._digit_classes.cache_info() == before


def test_box_classes_reject_a_float_numerator_after_its_int_is_cached():
    # the cache is typed: a float that equals a cached int key still fails
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    box_to_residue_classes(cfg, [2], [3])
    with pytest.raises(TypeError):
        box_to_residue_classes(cfg, [2], [3.0])


def _digit_classes_uncached(b, sigma, level, v):
    """One dimension's (modulus, residue) pairs by their definition: with
    w_0, w_1, ... the base-q digits of v, highest first (q = p^e), and
    c < w_j, the class mod b^(j+1) of the n whose base-b digits 0..j-1 map
    to w_0..w_(j-1) under sigma and whose digit j maps to c."""
    p, q = b.p, len(sigma.table)
    w = []
    for _ in range(level):
        v, digit = divmod(v, q)
        w.insert(0, digit)
    powers = [Poly.one(p)]
    for _ in range(level):
        powers.append(powers[-1] * b)
    pairs = []
    for j in range(level):
        for c in range(w[j]):
            residue = Poly.zero(p)
            for i, image in enumerate([*w[:j], c]):
                residue = residue + poly_from_int(sigma.table.index(image), p) * powers[i]
            pairs.append((powers[j + 1], residue))
    return tuple(pairs)


@st.composite
def _dimension_keys(draw):
    # a non-identity sigma needs p^e >= 3, so p = 2 takes a quadratic base
    p = draw(st.sampled_from((2, 3, 5)), label="p")
    e = draw(st.integers(2 if p == 2 else 1, 2), label="e")
    b = poly_from_int(p**e + draw(st.integers(0, p**e - 1), label="b low"), p)
    images = draw(st.permutations(range(1, p**e)), label="sigma")
    assume(images != sorted(images))
    level = draw(st.integers(1, 3), label="level")
    v = draw(st.integers(1, p ** (e * level) - 1), label="numerator")
    return b, SigmaBijection(p, e, (0, *images)), level, v


@settings(max_examples=200, deadline=None)
@given(_dimension_keys())
def test_cached_digit_classes_match_an_uncached_construction(key):
    want = _digit_classes_uncached(*key)
    assert seqgen._digit_classes(*key) == want
    assert seqgen._digit_classes(*key) == want  # the cached answer, read again


@st.composite
def _crt_cases(draw):
    p = draw(st.sampled_from((2, 3)))
    moduli = []
    for _ in range(2):
        e = draw(st.integers(1, 4))
        moduli.append(poly_from_int(p**e + draw(st.integers(0, p**e - 1)), p))
    assume(poly_gcd(*moduli).degree == 0)
    residues = [poly_from_int(draw(st.integers(0, p**b.degree - 1)), p) for b in moduli]
    return moduli, residues


@settings(max_examples=200, deadline=None)
@given(_crt_cases())
def test_crt_pair_solves_both_congruences(case):
    (b1, b2), (r1, r2) = case
    modulus, r = seqgen._crt_pair(b1, r1, b2, r2)
    assert modulus == b1 * b2
    assert r.degree < modulus.degree
    assert ((r - r1) % b1).is_zero and ((r - r2) % b2).is_zero


def test_crt_pair_rejects_non_coprime_moduli_on_every_call():
    # the Bezout coefficient is cached per modulus pair; the error is not
    for _ in range(2):
        with pytest.raises(ValueError, match="moduli are not coprime"):
            seqgen._crt_pair(P("X^2+X"), P("1"), P("X+1"), P("0"))


def test_box_classes_disjoint_deeper():
    cfg = HaltonConfig.make(2, (Poly.x(2), P("X^2+X+1")))
    classes = box_to_residue_classes(cfg, [2, 2], [3, 13])
    for n in range(2**10):
        assert sum(1 for c in classes if c.contains(n)) <= 1


def test_box_classes_ordering_deterministic():
    cfg = HaltonConfig.make(2, (Poly.x(2), P("X+1")))
    classes = box_to_residue_classes(cfg, [2, 2], [3, 3])
    keys = [(c.modulus.degree, str(c.modulus), str(c.residue)) for c in classes]
    assert keys == sorted(keys)


def test_hybrid_examples():
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    lat = LatticeConfig(2, P("X^2+X+1"), (Poly.x(2),))
    assert [Fraction(c) for c in hybrid_point(0, 2, cfg, lat)] == [0, 0, 0]
    assert [Fraction(c) for c in hybrid_point(1, 2, cfg, lat)] == [
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
    ]
    assert [Fraction(c) for c in hybrid_point(3, 2, cfg, lat)] == [
        Fraction(3, 4),
        Fraction(3, 4),
        Fraction(1, 4),
    ]
    with pytest.raises(ValueError):
        hybrid_point(4, 2, cfg, lat)
    assert len(hybrid_point_set(2, cfg, lat)) == 4


@functools.lru_cache(maxsize=None)
def _irreducibles(p, m):
    polys = (poly_from_int(p**m + low, p) for low in range(p**m))
    return [f for f in polys if poly_is_irreducible(f)]


@st.composite
def _digital_configs(draw):
    """(count, halton or None, lattice or None, reference point function):
    p in {2, 3, 5}, bases of degree 1..3 with random sigmas, t in {1, 2}."""
    p = draw(st.sampled_from((2, 3, 5)), label="p")
    m = draw(st.integers(1, {2: 6, 3: 4, 5: 3}[p]), label="m")
    pX = draw(st.sampled_from(_irreducibles(p, m)), label="pX")
    t = draw(st.integers(1, 2), label="t")
    gens = [poly_from_int(draw(st.integers(1, p**m - 1), label="q"), p) for _ in range(t)]
    lattice = LatticeConfig(p, pX, gens)
    bases = []
    for _ in range(draw(st.integers(0, 2), label="s")):
        e = draw(st.integers(1, 3), label="e")
        b = poly_from_int(p**e + draw(st.integers(0, p**e - 1), label="b low"), p)
        assume(all(poly_gcd(b, other).degree == 0 for other in bases))
        bases.append(b)
    sigmas = [
        SigmaBijection(p, b.degree, (0, *draw(st.permutations(range(1, p**b.degree)))))
        for b in bases
    ]
    halton = HaltonConfig.make(p, bases, sigmas)
    count = draw(st.integers(1, p**m), label="count")
    kind = draw(st.sampled_from(("halton", "plattice", "hybrid")), label="kind")
    if kind == "halton":
        assume(bases)
        return count, halton, None, functools.partial(halton_point, cfg=halton)
    if kind == "plattice":
        return count, None, lattice, functools.partial(plattice_point_laurent, cfg=lattice)
    return count, halton, lattice, functools.partial(hybrid_point, m=m, cfg=halton, lattice=lattice)


@settings(max_examples=200, deadline=None)
@given(config=_digital_configs())
def test_digital_points_match_the_per_point_functions(config):
    # the carry-vector generator against the per-point Poly arithmetic:
    # equal rows, and equal file tokens (each token carries its L)
    count, halton, lattice, point = config
    rows = list(digital_points(count, halton, lattice))
    expected = [point(n) for n in range(count)]
    assert rows == expected
    for fmt in ("rational", "decimal"):
        assert [format_point_line(r, fmt) for r in rows] == [
            format_point_line(r, fmt) for r in expected
        ]


@settings(max_examples=200, deadline=None)
@given(config=_digital_configs(), data=st.data())
def test_digital_points_from_a_start_match_the_per_point_functions(config, data):
    # the walk from a start index, against the per-point functions: a file
    # token reads the numerator and L, not only the Fraction
    count, halton, lattice, point = config
    last = lattice.n_points - count if lattice else 2 * halton.p**12
    start = data.draw(st.integers(0, last), label="start")
    rows = list(digital_points(count, halton, lattice, start))
    expected = [point(n) for n in range(start, start + count)]
    assert [[(c.token(), c.num, c.L) for c in row] for row in rows] == [
        [(c.token(), c.num, c.L) for c in row] for row in expected
    ]


def test_digital_points_reject_a_start_outside_the_indices():
    halton = HaltonConfig.make(2, (Poly.x(2),))
    lattice = LatticeConfig(2, P("X^2+X+1"), (Poly.x(2),))
    with pytest.raises(ValueError, match="index must be >= 0"):
        next(digital_points(1, halton, None, -1))
    with pytest.raises(ValueError, match=r"index 4 outside \[0, 2\^2\)"):
        next(digital_points(2, None, lattice, 3))
    assert next(digital_points(1, halton, lattice, 3)) == hybrid_point(3, 2, halton, lattice)


def test_digital_points_are_lazy():
    # the first points of a 2^20-point hybrid set, in O(digits * dim) memory
    m = 20
    halton = HaltonConfig.make(2, (P("X+1"), P("X^2+X+1")))
    lattice = LatticeConfig(2, irreducible_poly(2, m), (P("X^7+X+1"), P("X^19+X^3")))
    tracemalloc.start()
    try:
        first = list(itertools.islice(digital_points(2**m, halton, lattice), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [hybrid_point(n, m, halton, lattice) for n in range(10)]
    assert peak < 2**20


def test_digital_points_reject_a_count_past_the_lattice():
    lattice = LatticeConfig(2, P("X^2+X+1"), (Poly.x(2),))
    with pytest.raises(ValueError, match=r"count outside \[1, 4\]"):
        next(digital_points(5, None, lattice))
    with pytest.raises(ValueError, match="prime mismatch"):
        next(digital_points(1, HaltonConfig.make(3, ()), lattice))
    with pytest.raises(ValueError, match=r"count outside \[1, 4\]"):
        next(digital_points(0, None, lattice))
    assert list(digital_points(0, HaltonConfig.make(2, (Poly.x(2),)), None)) == []
