"""The unit-group table of a modulus and the shape bounds read off it."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridqmc import gfpoly, plattice, walsh
from hybridqmc.gfpoly import (
    Poly,
    irreducible_poly,
    laurent_coeffs,
    poly_from_int,
    poly_is_irreducible,
    poly_parse,
    poly_to_int,
)
from hybridqmc.plattice import LatticeConfig
from hybridqmc.search import search_exhaustive
from hybridqmc.seqgen import HaltonConfig
from hybridqmc.walsh import (
    _modulus_bound,
    _rank_profile,
    _scaled_phi,
    _unit_group,
)
from shape_oracle import shape_sums


@functools.lru_cache(maxsize=None)
def _irreducibles(p, m):
    monics = (poly_from_int(p**m + low, p) for low in range(p**m))
    return [f for f in monics if poly_is_irreducible(f)]


@st.composite
def _moduli(draw):
    p = draw(st.sampled_from((2, 3, 5)), label="p")
    m = draw(st.integers(1, 6), label="m")
    return draw(st.sampled_from(_irreducibles(p, m)), label="pX")


@settings(max_examples=60, deadline=None)
@given(_moduli(), st.integers(0, 10**6), st.integers(0, 10**6))
@example(poly_parse("X^4+X^3+X^2+X+1", 2), 5, 11)  # ord X = 5: three cosets of <X>
@example(poly_parse("X^2+2", 5), 3, 17)  # the smallest at (5, 2); X is not primitive
@example(poly_parse("X", 3), 0, 1)  # m = 1 and X = 0 mod pX
@example(poly_parse("X+1", 2), 0, 0)  # the trivial group
def test_unit_group_logs_and_phi(pX, a, b):
    p, m = pX.p, pX.degree
    n = p**m - 1
    log, F = _unit_group(pX)
    assert log[0] is None and sorted(log[1:]) == list(range(n))
    assert F == F[:n] * 2
    a, b = 1 + a % n, 1 + b % n
    ab = poly_to_int(poly_from_int(a, p) * poly_from_int(b, p) % pX)
    assert log[ab] == (log[a] + log[b]) % n
    for r in (1, a, b, ab):
        assert F[log[r]] == _scaled_phi(laurent_coeffs(poly_from_int(r, p), pX, m), p)


def test_shape_sums_at_t2_only_read_the_table(monkeypatch):
    p = 2
    pX = irreducible_poly(p, 6)
    cfg = LatticeConfig(p, pX, (poly_parse("X^3+X+1", p), poly_parse("X^5+X^2", p)))
    _unit_group(pX)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    # every binding site of each name: its defining module and walsh
    for name, fn in (
        ("digit_matrix", plattice.digit_matrix),
        ("index_walk", plattice.index_walk),
        ("laurent_coeffs", gfpoly.laurent_coeffs),
    ):
        for module in (plattice, gfpoly, walsh):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, fn))
    _modulus_bound.cache_clear()
    sums = [_modulus_bound(cfg, poly_from_int(b, p)) for b in range(1, 2**4)]
    assert calls == []
    assert [len(s) for s in sums] == [7, 6, 6, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4]


def test_t1_search_builds_one_rank_profile_per_residue():
    # r = X^j * q mod pX over 63 candidates and 7 shapes: 63 distinct units
    pX = irreducible_poly(2, 6)
    for cache in (_modulus_bound, _rank_profile, _unit_group):
        cache.cache_clear()
    search_exhaustive(6, 1, HaltonConfig.make(2, (Poly.x(2),)), pX)
    assert 0 < _rank_profile.cache_info().misses <= 63
    assert _unit_group.cache_info().misses == 0


@pytest.mark.parametrize("t", [1, 2])
def test_shape_sums_reject_a_multiple_of_the_modulus(t):
    pX = irreducible_poly(3, 3)
    cfg = LatticeConfig(3, pX, (Poly.x(3),) * t)
    with pytest.raises(ValueError, match="divisible by pX"):
        _modulus_bound(cfg, pX)


@pytest.mark.parametrize("t", [1, 2])
def test_modulus_bound_forms_no_poly_product(monkeypatch, t):
    # the batch of one forms r_i = B*q_i mod pX with no Poly product; the
    # counter does see the products of the tests' oracle
    p = 2
    pX = irreducible_poly(p, 6)
    cfg = LatticeConfig(p, pX, (poly_parse("X^3+X+1", p), poly_parse("X^5+X^2", p))[:t])
    _unit_group(pX)
    _modulus_bound.cache_clear()
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for b in range(1, 2**4):
        _modulus_bound(cfg, poly_from_int(b, p))
    assert _modulus_bound.cache_info().misses == 15 and products == []
    shape_sums(cfg, Poly.x(p))
    assert len(products) == t
