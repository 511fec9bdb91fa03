import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridqmc.gfpoly import Poly, poly_from_int, poly_gcd, poly_parse
from hybridqmc.plattice import LatticeConfig
from hybridqmc.seqgen import (
    HaltonConfig,
    SigmaBijection,
    box_to_residue_classes,
    halton_point,
    hybrid_point,
    hybrid_point_set,
    identity_sigma,
    radical_inverse_int,
    radical_inverse_poly,
    residue_classes_measure,
)


def P(text, p=2):
    return poly_parse(text, p)


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
    assert radical_inverse_poly(4, P("X^2+X+1")).as_fraction() == Fraction(13, 16)
    assert radical_inverse_poly(0, Poly.x(2)).as_fraction() == 0
    assert radical_inverse_poly(2, P("X+1")).as_fraction() == Fraction(3, 4)


def test_radical_inverse_poly_base_x_equals_integer_map():
    # in base X with identity sigma the polynomial map reduces to the classic one
    for n in range(64):
        assert radical_inverse_poly(n, Poly.x(2)).as_fraction() == radical_inverse_int(n, 2)
    for n in range(27):
        assert radical_inverse_poly(n, Poly.x(3)).as_fraction() == radical_inverse_int(n, 3)


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
    assert [c.as_fraction() for c in halton_point(3, cfg)] == [
        Fraction(3, 4),
        Fraction(1, 4),
    ]
    assert all(c.as_fraction() == 0 for c in halton_point(0, cfg))
    single = HaltonConfig.make(2, (Poly.x(2),))
    assert halton_point(1, single)[0].as_fraction() == Fraction(1, 2)


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
                in_box = all(x.as_fraction() < b for x, b in zip(pt, bounds))
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
    # p in {2, 3}, one or two pairwise coprime monic bases of degree <= 2,
    # each with a random sigma fixing 0
    p = draw(st.sampled_from((2, 3)), label="p")
    bases = []
    for _ in range(draw(st.integers(1, 2), label="s")):
        e = draw(st.integers(1, 2), label="e")
        b = poly_from_int(p**e + draw(st.integers(0, p**e - 1), label="b low"), p)
        assume(all(poly_gcd(b, other).degree == 0 for other in bases))
        bases.append(b)
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
    levels = [data.draw(st.integers(0, 3), label="level") for _ in cfg.bases]
    caps = [cfg.p ** (e * l) for e, l in zip(cfg.degrees, levels)]
    vs = [data.draw(st.integers(1, c), label="numerator") for c in caps]
    n = data.draw(st.integers(0, cfg.p**12), label="n")
    classes = box_to_residue_classes(cfg, levels, vs)
    pt = halton_point(n, cfg)
    in_box = all(x.as_fraction() < Fraction(v, c) for x, v, c in zip(pt, vs, caps))
    hits = sum(1 for c in classes if c.contains(n))
    assert hits <= 1
    assert in_box == (hits == 1)


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
    assert [c.as_fraction() for c in hybrid_point(0, 2, cfg, lat)] == [0, 0, 0]
    assert [c.as_fraction() for c in hybrid_point(1, 2, cfg, lat)] == [
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
    ]
    assert [c.as_fraction() for c in hybrid_point(3, 2, cfg, lat)] == [
        Fraction(3, 4),
        Fraction(3, 4),
        Fraction(1, 4),
    ]
    with pytest.raises(ValueError):
        hybrid_point(4, 2, cfg, lat)
    assert len(hybrid_point_set(2, cfg, lat)) == 4
