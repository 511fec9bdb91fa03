import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridqmc import gfpoly
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
    poly_to_int,
)
from hybridqmc import plattice
from hybridqmc.plattice import (
    LatticeConfig,
    SubLatticeSpec,
    _laurent_points,
    build_generating_matrix,
    coprime_to_irreducible,
    index_walk,
    korobov_qvec,
    plattice_point_laurent,
    plattice_point_matrix,
    sublattice_affine,
    sublattice_enumerate,
    sublattice_indices,
    sublattice_matrices,
)
from hybridqmc.walsh import walsh_discrepancy_bound
from base_p_digits import digits
from poly_shift import shifted


def P(text, p=2):
    return poly_parse(text, p)


PX2 = P("X^2+X+1")


def test_lattice_config_hash_is_the_field_hash():
    # cached at construction; equal configurations hash and compare equal
    a = LatticeConfig(2, PX2, (Poly.x(2),))
    b = LatticeConfig(2, P("X^2+X+1"), [P("X")])
    assert a == b and hash(a) == hash(b) == hash((2, PX2, (Poly.x(2),)))
    assert a != LatticeConfig(2, PX2, (Poly.one(2),))
    assert len({a, b, LatticeConfig(2, PX2, (Poly.one(2),))}) == 2


def test_lattice_config_validation():
    with pytest.raises(ValueError, match="irreducible"):
        LatticeConfig(2, P("X^2+1"), (Poly.x(2),))
    with pytest.raises(ValueError, match="zero generator"):
        LatticeConfig(2, PX2, (Poly.zero(2),))
    with pytest.raises(ValueError, match="degree"):
        LatticeConfig(2, PX2, (P("X^2"),))
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    assert (cfg.m, cfg.t, cfg.n_points) == (2, 1, 4)


def test_point_laurent_examples():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    values = [Fraction(plattice_point_laurent(n, cfg)[0]) for n in range(4)]
    assert values == [0, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)]
    with pytest.raises(ValueError):
        plattice_point_laurent(4, cfg)


def test_generating_matrix_examples():
    assert build_generating_matrix(Poly.x(2), PX2) == ((1, 1), (1, 0))
    assert build_generating_matrix(Poly.one(2), PX2) == ((0, 1), (1, 1))
    m3 = build_generating_matrix(Poly.one(2), P("X^3+X+1"))
    # rows come from the prefix (a_1..a_5) of 1/(X^3+X+1) = (0,0,1,0,1,...)
    assert m3 == ((0, 0, 1), (0, 1, 0), (1, 0, 1))


def test_point_matrix_examples():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    mats = [build_generating_matrix(q, PX2) for q in cfg.generators]
    assert Fraction(plattice_point_matrix(1, mats, 2)[0]) == Fraction(3, 4)
    assert Fraction(plattice_point_matrix(0, mats, 2)[0]) == 0
    assert Fraction(plattice_point_matrix(3, mats, 2)[0]) == Fraction(1, 4)


def test_path_equivalence_small():
    for p in (2, 3):
        for m in (1, 2, 3):
            pX = irreducible_poly(p, m)
            for q_enc in range(1, p**m):
                cfg = LatticeConfig(p, pX, (poly_from_int(q_enc, p),))
                mats = [build_generating_matrix(q, pX) for q in cfg.generators]
                for n in range(p**m):
                    assert plattice_point_laurent(n, cfg) == plattice_point_matrix(n, mats, p)


def test_digit_vector_linearity():
    # digit vectors add componentwise under carry-free index addition
    for p in (2, 3):
        m = 3
        pX = irreducible_poly(p, m)
        cfg = LatticeConfig(p, pX, (poly_from_int(p + 1, p),))
        rng = random.Random(4)
        for _ in range(100):
            a = rng.randrange(p**m)
            b = rng.randrange(p**m)
            s = 0
            for i in range(m):
                da = (a // p**i) % p
                db = (b // p**i) % p
                s += ((da + db) % p) * p**i
            ya = digits(plattice_point_laurent(a, cfg)[0].num, p, m)
            yb = digits(plattice_point_laurent(b, cfg)[0].num, p, m)
            ys = digits(plattice_point_laurent(s, cfg)[0].num, p, m)
            assert ys == tuple((x + y) % p for x, y in zip(ya, yb))


def test_full_lattice_closed_under_digit_addition():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    vecs = {digits(plattice_point_laurent(n, cfg)[0].num, 2, 2) for n in range(4)}
    for v1, v2 in itertools.product(vecs, repeat=2):
        assert tuple((a + b) % 2 for a, b in zip(v1, v2)) in vecs


def test_korobov_examples():
    assert korobov_qvec(Poly.x(2), 2, PX2) == (Poly.x(2), P("X+1"))
    assert korobov_qvec(P("X+1"), 2, PX2) == (P("X+1"), Poly.x(2))
    assert korobov_qvec(Poly.one(2), 3, PX2) == (Poly.one(2),) * 3
    with pytest.raises(ValueError):
        korobov_qvec(Poly.zero(2), 2, PX2)


def test_korobov_components_nonzero():
    for p in (2, 3):
        for m in (1, 2, 3):
            pX = irreducible_poly(p, m)
            for g_enc in range(1, p**m):
                for q in korobov_qvec(poly_from_int(g_enc, p), 3, pX):
                    assert not q.is_zero


def test_sublattice_examples():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    full = SubLatticeSpec(2, 0, ResidueClass(Poly.one(2), Poly.zero(2)))
    assert len(sublattice_enumerate(full, cfg)) == 4
    # numerator rows over p^m = 4: the points 0 and 1/2, then 3/4 and 1/4
    even = SubLatticeSpec(2, 0, ResidueClass(Poly.x(2), Poly.zero(2)))
    assert sublattice_enumerate(even, cfg) == [(0,), (2,)]
    odd = SubLatticeSpec(2, 0, ResidueClass(Poly.x(2), Poly.one(2)))
    assert sublattice_enumerate(odd, cfg) == [(3,), (1,)]


def test_sublattice_rejects_shared_factor():
    cfg3 = LatticeConfig(2, P("X^3+X+1"), (Poly.x(2),))
    bad = SubLatticeSpec(3, 0, ResidueClass(P("X^3+X+1"), Poly.zero(2)))
    with pytest.raises(ValueError, match="shares factor"):
        sublattice_enumerate(bad, cfg3)


@st.composite
def _irreducible_and_nonzero(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(1, 5))
    low = draw(st.integers(0, p**m - 1))
    candidates = (poly_from_int(p**m + (low + k) % p**m, p) for k in range(p**m))
    pX = next(f for f in candidates if poly_is_irreducible(f))  # the first from low on
    # B = c * pX + r runs over every polynomial of degree <= m + 1 exactly once
    digit = st.integers(0, p - 1)
    c, r = (Poly(p, draw(st.lists(digit, max_size=size))) for size in (2, m))
    B = c * pX + r
    assume(not B.is_zero)
    return pX, B


@settings(max_examples=300, deadline=None)
@example((P("X^2+X+1"), P("X^3+1")))  # pX | B with B != pX
@example((P("X^2+X+1"), P("X^3+X")))  # B coprime to pX, deg B = m + 1
@given(_irreducible_and_nonzero())
def test_coprime_to_an_irreducible_modulus_iff_not_divisible(case):
    # every coprimality check of the package calls coprime_to_irreducible
    pX, B = case
    assert coprime_to_irreducible(B, pX) == (poly_gcd(B, pX).degree == 0)


@st.composite
def _walks(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    d, length = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    vector = st.lists(st.integers(0, p - 1), min_size=length, max_size=length)
    columns = draw(st.lists(vector, min_size=d, max_size=d))
    count = draw(st.integers(0, p**d))
    return p, columns, draw(vector), count, draw(st.integers(0, p**d - count))


@settings(max_examples=200, deadline=None)
@example((2, [], [1, 0], 1, 0))  # d = 0: the shift alone
@example((3, [[1, 2], [0, 1]], [2, 2], 7, 0))  # a count that is no power of p
@example((5, [[4], [3], [2]], [1], 125, 0))
@example((3, [[1, 2], [0, 1], [2, 2]], [0, 1], 4, 19))  # a start of digits 1, 0, 2
@given(_walks())
def test_index_walk_is_the_affine_digit_map(case):
    # the one enumerator of digital_points, sublattice_indices and
    # sublattice_affine: vector n is shift + sum_c n_c * columns[c] mod p,
    # n_c the base-p digits of n, for n from start on
    p, columns, shift, count, start = case
    walk = [list(v) for v in index_walk(columns, shift, count, p, start)]
    assert len(walk) == count
    for n, got in enumerate(walk, start):
        digits = [n // p**c % p for c in range(len(columns))]
        want = [
            (s + sum(nc * col[j] for nc, col in zip(digits, columns))) % p
            for j, s in enumerate(shift)
        ]
        assert got == want


@pytest.mark.parametrize("route", [sublattice_matrices, walsh_discrepancy_bound])
def test_every_sublattice_route_rejects_shared_factor(route):
    pX = irreducible_poly(3, 3)
    cfg = LatticeConfig(3, pX, (Poly.one(3), Poly.x(3)))
    with pytest.raises(ValueError, match="shares factor"):
        route(SubLatticeSpec(3, 0, ResidueClass(pX, Poly.zero(3))), cfg)


def test_sublattice_spec_validation():
    with pytest.raises(ValueError, match="multiple"):
        SubLatticeSpec(2, 2, ResidueClass(Poly.one(2), Poly.zero(2)))
    with pytest.raises(ValueError, match="degree"):
        SubLatticeSpec(1, 0, ResidueClass(P("X^2"), Poly.zero(2)))


def test_sublattice_affine_examples():
    cfg = LatticeConfig(2, PX2, (Poly.x(2),))
    even = SubLatticeSpec(2, 0, ResidueClass(Poly.x(2), Poly.zero(2)))
    mats, shifts, pts = sublattice_affine(even, cfg)
    assert sorted(pts) == sorted(sublattice_enumerate(even, cfg))
    assert len(pts) == 2
    full = SubLatticeSpec(2, 0, ResidueClass(Poly.one(2), Poly.zero(2)))
    _, shifts_f, pts_f = sublattice_affine(full, cfg)
    assert shifts_f == ((0, 0),)  # zero shift reproduces the full lattice
    assert sorted(pts_f) == sorted(sublattice_enumerate(full, cfg))
    single = SubLatticeSpec(0, 2, ResidueClass(Poly.one(2), Poly.zero(2)))
    mats_s, shifts_s, pts_s = sublattice_affine(single, cfg)
    assert len(pts_s) == 1 and mats_s[0] == ((), ())
    assert pts_s == sublattice_enumerate(single, cfg)


def test_sublattice_block_parametrization():
    # indices in an aligned block meeting a residue class: n = (l + X^d C) B + R
    cfg3 = LatticeConfig(2, P("X^3+X+1"), (Poly.x(2),))
    spec = SubLatticeSpec(3, 0, ResidueClass(P("X+1"), Poly.one(2)))
    assert sublattice_indices(spec, cfg3) == [1, 2, 4, 7]
    assert spec.d == 2
    spec_hi = SubLatticeSpec(2, 4, ResidueClass(P("X+1"), Poly.zero(2)))
    idx = sublattice_indices(spec_hi, cfg3)
    assert idx == [n for n in range(4, 8) if bin(n).count("1") % 2 == 0]


def _random_spec(rng, p, m, t, pX=None):
    pX = pX or irreducible_poly(p, m)
    qvec = tuple(poly_from_int(rng.randrange(1, p**m), p) for _ in range(t))
    cfg = LatticeConfig(p, pX, qvec)
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
    return SubLatticeSpec(u, start, ResidueClass(modulus, residue)), cfg


def test_sublattice_cardinality_and_affine_agreement_random():
    rng = random.Random(99)
    for _ in range(200):
        p = rng.choice((2, 3))
        m = rng.randrange(1, 6)
        t = rng.randrange(1, 3)
        spec, cfg = _random_spec(rng, p, m, t)
        pts = sublattice_enumerate(spec, cfg)
        assert len(pts) == p**spec.d
        _, _, affine = sublattice_affine(spec, cfg)
        assert sorted(pts) == sorted(affine)
    # at p = 5 and 7 a random irreducible pX has low coefficients other than
    # +-1, so the division's taps c_j scale the quotient digits they subtract
    wide = 0
    for _ in range(200):
        p = rng.choice((5, 7))
        m = rng.randrange(1, 5)
        monics = (Poly(p, [rng.randrange(p) for _ in range(m)] + [1]) for _ in itertools.count())
        pX = next(f for f in monics if poly_is_irreducible(f))
        wide += sum(c not in (0, 1, p - 1) for c in pX.coeffs[:-1])
        spec, cfg = _random_spec(rng, p, m, rng.randrange(1, 3), pX)
        pts = sublattice_enumerate(spec, cfg)
        assert len(pts) == p**spec.d
        assert sorted(pts) == sorted(sublattice_affine(spec, cfg)[2])
    assert wide


@st.composite
def _block_specs(draw, max_m=5, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    m = draw(st.integers(1, max_m))
    cfg = LatticeConfig(p, irreducible_poly(p, m), (Poly.one(p),))
    u = draw(st.integers(0, m))
    deg_b = draw(st.integers(0, u))
    digits = st.lists(st.integers(0, p - 1), min_size=deg_b, max_size=deg_b)
    modulus = Poly(p, draw(digits) + [1])
    assume(poly_gcd(modulus, cfg.modulus).degree == 0)
    start = draw(st.integers(0, p ** (m - u) - 1)) * p**u
    return SubLatticeSpec(u, start, ResidueClass(modulus, Poly(p, draw(digits)))), cfg


@settings(max_examples=200, deadline=None)
@example(  # B = 1: the whole block
    (
        SubLatticeSpec(2, 4, ResidueClass(Poly.one(2), Poly.zero(2))),
        LatticeConfig(2, P("X^3+X+1"), (Poly.x(2),)),
    )
)
@example(  # deg B = u: one index
    (
        SubLatticeSpec(2, 9, ResidueClass(P("X^2+1", 3), P("X+2", 3))),
        LatticeConfig(3, irreducible_poly(3, 3), (Poly.one(3),)),
    )
)
@given(_block_specs())
def test_sublattice_indices_match_the_membership_filter(case):
    spec, cfg = case
    block = range(spec.block_start, spec.block_start + cfg.p**spec.u)
    assert sublattice_indices(spec, cfg) == [n for n in block if spec.cls.contains(n)]


@settings(max_examples=200, deadline=None)
@given(_block_specs())
def test_shift_poly_is_the_fixed_high_part(case):
    # the matching indices are (l + X^d C) B + R for every l of degree < d
    spec, cfg = case
    p, B, R, d = cfg.p, spec.cls.modulus, spec.cls.residue, spec.d
    high = shifted(spec.shift_poly, d)
    indices = sorted(poly_to_int((poly_from_int(l, p) + high) * B + R) for l in range(p**d))
    assert indices == sublattice_indices(spec, cfg)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_laurent_matches_the_matrix_route(data):
    # the Laurent route against the generating-matrix route, any irreducible pX
    p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
    m = data.draw(st.integers(1, 6 if p == 2 else 3), label="m")
    monics = (poly_from_int(p**m + low, p) for low in range(p**m))
    pX = data.draw(st.sampled_from([f for f in monics if poly_is_irreducible(f)]), label="pX")
    t = data.draw(st.integers(1, 3), label="t")
    qvec = data.draw(st.lists(st.integers(1, p**m - 1), min_size=t, max_size=t), label="q")
    cfg = LatticeConfig(p, pX, tuple(poly_from_int(q, p) for q in qvec))
    mats = [build_generating_matrix(q, pX) for q in cfg.generators]
    n = data.draw(st.integers(0, p**m - 1), label="n")
    assert plattice_point_laurent(n, cfg) == plattice_point_matrix(n, mats, p)


def test_sublattice_enumerate_uses_nothing_from_the_affine_route(monkeypatch):
    # the sublattice suite compares the two routes, so they must stay independent
    def affine(*args, **kwargs):
        raise AssertionError("the direct route read the affine route")

    monkeypatch.setattr(plattice, "digit_matrix", affine)
    monkeypatch.setattr(plattice, "sublattice_matrices", affine)
    monkeypatch.setattr(SubLatticeSpec, "shift_poly", property(affine))
    cfg = LatticeConfig(3, irreducible_poly(3, 3), (Poly.x(3), P("X^2+2", 3)))
    spec = SubLatticeSpec(3, 0, ResidueClass(P("X+1", 3), P("2", 3)))
    assert len(sublattice_enumerate(spec, cfg)) == 9


def _laurent_oracle(n, cfg):
    """The Poly-product route: the m leading Laurent digits of {n(X)*q_i/pX}."""
    npoly = poly_from_int(n, cfg.p)
    return [laurent_coeffs(npoly * q, cfg.modulus, cfg.m) for q in cfg.generators]


@st.composite
def _lattices_and_indices(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    m = draw(st.integers(1, 6))
    low = draw(st.integers(0, p**m - 1))
    candidates = (poly_from_int(p**m + (low + k) % p**m, p) for k in range(p**m))
    pX = next(f for f in candidates if poly_is_irreducible(f))  # the first from low on
    t = draw(st.integers(1, 3))
    qvec = draw(st.lists(st.integers(1, p**m - 1), min_size=t, max_size=t))
    cfg = LatticeConfig(p, pX, tuple(poly_from_int(q, p) for q in qvec))
    return cfg, draw(st.lists(st.integers(0, p**m - 1), max_size=8))


@settings(max_examples=200, deadline=None)
@example((LatticeConfig(2, P("X"), (Poly.one(2),)), [0, 1]))  # m = 1
@example((LatticeConfig(3, irreducible_poly(3, 3), (P("2", 3), P("X^2", 3))), [0, 26, 13]))
@example((LatticeConfig(5, irreducible_poly(5, 2), (P("4", 5),) * 3), [24, 0, 5]))
@given(_lattices_and_indices())
def test_laurent_points_match_the_poly_product_route(case):
    # the batch kernel of sublattice_enumerate and plattice_point_laurent
    # against laurent_coeffs of the Poly product n(X)*q_i, with n = 0,
    # n = p^m - 1 and constant q_i among the indices and examples
    cfg, indices = case
    p, m = cfg.p, cfg.m
    indices = [0, *indices, p**m - 1]
    rows = list(_laurent_points(indices, cfg))
    assert len(rows) == len(indices)
    for n, row in zip(indices, rows):
        assert all(type(num) is int and 0 <= num < p**m for num in row)
        assert [digits(num, p, m) for num in row] == _laurent_oracle(n, cfg)
        point = plattice_point_laurent(n, cfg)
        assert all(type(x) is BasePRational and (x.p, x.L) == (p, m) for x in point)
        assert tuple(x.num for x in point) == row


def _walked(spec, cfg):
    """The (columns, shift, count) sublattice_indices hands to index_walk."""
    seen = []

    def spy(columns, shift, count, p):
        seen.append(([tuple(c) for c in columns], tuple(shift), count))
        return index_walk(columns, shift, count, p)

    with mock.patch.object(plattice, "index_walk", spy):
        sublattice_indices(spec, cfg)
    return seen[0]


def _padded(poly, length):
    """The coefficients of poly, lowest first, padded with zeros to length."""
    return poly.coeffs + (0,) * (length - len(poly.coeffs))


@settings(max_examples=200, deadline=None)
@example(  # deg B = 0: the columns X^c, c < u, are the unit vectors
    (
        SubLatticeSpec(3, 0, ResidueClass(Poly.one(3), Poly.zero(3))),
        LatticeConfig(3, irreducible_poly(3, 4), (Poly.one(3),)),
    )
)
@example(  # deg B = u: no column, and the shift alone is the one index
    (
        SubLatticeSpec(3, 8, ResidueClass(P("X^3+X+1"), P("X"))),
        LatticeConfig(2, irreducible_poly(2, 5), (Poly.one(2),)),
    )
)
@example(  # p = 5, deg B = 2 < u: the columns B and X*B
    (
        SubLatticeSpec(4, 0, ResidueClass(P("X^2+3X+2", 5), P("4", 5))),
        LatticeConfig(5, irreducible_poly(5, 4), (Poly.one(5),)),
    )
)
@given(_block_specs(6))
def test_walked_index_columns_are_the_multiples_of_the_class_modulus(case):
    # n(X) = a + h0 + l*B over deg l < d: the walk runs over the p^d vectors
    # l, not over the p^u indices of the block
    spec, cfg = case
    p, B, R, u = cfg.p, spec.cls.modulus, spec.cls.residue, spec.u
    columns, shift, count = _walked(spec, cfg)
    assert columns == [_padded(poly_from_int(p**c, p) * B, u) for c in range(spec.d)]
    assert shift == _padded((R - poly_from_int(spec.block_start, p)) % B, u)
    assert count == p**spec.d


@st.composite
def _lattice_block_specs(draw):
    spec, cfg = draw(_block_specs(4, (2, 3, 5, 7)))
    p, m = cfg.p, cfg.m
    qvec = draw(st.lists(st.integers(1, p**m - 1), min_size=1, max_size=3))
    return spec, LatticeConfig(p, cfg.modulus, tuple(poly_from_int(q, p) for q in qvec))


@settings(max_examples=200, deadline=None)
@example(  # d = 0
    (
        SubLatticeSpec(2, 9, ResidueClass(P("X^2+1", 3), P("X+2", 3))),
        LatticeConfig(3, irreducible_poly(3, 3), (P("X^2", 3), P("2X+1", 3))),
    )
)
@example(  # n0 = 0: the block at 0 meets the class of 0
    (
        SubLatticeSpec(2, 0, ResidueClass(P("X+1", 7), Poly.zero(7))),
        LatticeConfig(7, irreducible_poly(7, 3), (P("3X^2+X", 7),)),
    )
)
@given(_lattice_block_specs())
def test_sublattice_shifts_match_the_poly_product_route(case):
    # the shifts read through digit_matrix against laurent_coeffs of the
    # Poly product n0*q_i, n0 = C X^d B + R the anchor index of the block
    spec, cfg = case
    n0 = shifted(spec.shift_poly, spec.d) * spec.cls.modulus + spec.cls.residue
    assert poly_to_int(n0) in sublattice_indices(spec, cfg)
    want = tuple(laurent_coeffs(n0 * q, cfg.modulus, cfg.m) for q in cfg.generators)
    assert sublattice_matrices(spec, cfg)[1] == want


def _congruence_shift_poly(spec):
    """C(X) by the congruence: h0 = (R - a) mod B makes a + h0 - R a
    multiple of B, and C is its quotient shifted down by d."""
    B, R, p = spec.cls.modulus, spec.cls.residue, spec.p
    a = poly_from_int(spec.block_start, p)
    h0 = (R - a) % B
    k_base, rem = divmod(a + h0 - R, B)
    assert rem.is_zero
    return Poly(p, k_base.coeffs[spec.d :])


@settings(max_examples=200, deadline=None)
@example(  # d = 0, start of degree above deg B
    (
        SubLatticeSpec(2, 9, ResidueClass(P("X^2+1", 3), P("X+2", 3))),
        LatticeConfig(3, irreducible_poly(3, 3), (Poly.one(3),)),
    )
)
@example(  # B = 1: C is the block start shifted down by u
    (
        SubLatticeSpec(2, 12, ResidueClass(Poly.one(2), Poly.zero(2))),
        LatticeConfig(2, irreducible_poly(2, 4), (Poly.one(2),)),
    )
)
@given(_block_specs(6))
def test_shift_poly_is_the_congruence_quotient(case):
    spec, _ = case
    assert spec.shift_poly == _congruence_shift_poly(spec)


@pytest.mark.parametrize("d", [0, 1, 4])
def test_sublattice_enumerate_work_does_not_grow_with_its_points(monkeypatch, d):
    # the enumeration forms no Poly product and takes no laurent_coeffs per
    # point: p^d = 1, 3 and 81 points cost the same count of either
    cfg = LatticeConfig(3, irreducible_poly(3, 5), (P("X^4+2X", 3), P("2X^2+1", 3)))
    spec = SubLatticeSpec(d + 1, 0, ResidueClass(P("X+2", 3), P("1", 3)))
    calls = []
    mul, laurent = Poly.__mul__, gfpoly.laurent_coeffs
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))

    def counted(*args):
        calls.append("laurent")
        return laurent(*args)

    monkeypatch.setattr(gfpoly, "laurent_coeffs", counted)
    monkeypatch.setattr(plattice, "laurent_coeffs", counted)
    assert len(sublattice_enumerate(spec, cfg)) == 3**d and calls == []
    plattice.build_generating_matrix(Poly.x(3) * Poly.x(3), cfg.modulus)
    assert calls == ["mul", "laurent"]  # both counters see the names plattice reads


def test_sublattice_affine_uses_nothing_from_the_laurent_kernel(monkeypatch):
    # the other half of the independence the sublattice suite relies on
    def kernel(*args, **kwargs):
        raise AssertionError("the affine route read the Laurent kernel")

    monkeypatch.setattr(plattice, "_laurent_points", kernel)
    monkeypatch.setattr(plattice, "_long_division", kernel)
    cfg = LatticeConfig(3, irreducible_poly(3, 3), (Poly.x(3), P("X^2+2", 3)))
    spec = SubLatticeSpec(3, 0, ResidueClass(P("X+1", 3), P("2", 3)))
    assert len(sublattice_affine(spec, cfg)[2]) == 9
    with pytest.raises(AssertionError, match="Laurent kernel"):
        sublattice_enumerate(spec, cfg)
