"""The unit-group table of a modulus and the shape bounds read off it."""

import functools
from unittest import mock

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
from hybridqmc.walsh import (
    _modulus_bound,
    _rank_profile,
    _scaled_phi,
    _unit_group,
)
from shape_oracle import shape_bounds, shape_sums


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


def _clear_bound_caches():
    for cache in (_modulus_bound, _rank_profile, _unit_group):
        cache.cache_clear()


def test_a_whole_group_batch_builds_one_unit_group_and_no_rank_profile():
    # 63 candidates and the 7 shapes X^j of a p = 2, m = 6 search: every
    # residue is read off one table of the whole unit group
    pX = irreducible_poly(2, 6)
    moduli = [poly_from_int(2**j, 2) for j in range(1, 8)]
    qvecs = [(poly_from_int(q, 2),) for q in range(1, 64)]
    _clear_bound_caches()
    rows = walsh._batch_bounds(pX, moduli, qvecs)
    assert _unit_group.cache_info().misses == 1
    assert _rank_profile.cache_info()[:2] == (0, 0)
    assert len(rows) == 7 and all(len(row) == 63 for row in rows)


@pytest.mark.parametrize("m", [6, 20])
def test_a_batch_of_one_builds_no_unit_group(m):
    # a batch of one reads one rank profile; at m = 20 a unit-group table
    # would hold 2^20 entries
    pX = irreducible_poly(2, m)
    cfg = LatticeConfig(2, pX, (poly_parse("X^3+X+1", 2),))
    _clear_bound_caches()
    bounds = _modulus_bound(cfg, poly_parse("X^2+1", 2))
    assert len(bounds) == m - 1
    assert _unit_group.cache_info()[:2] == (0, 0)
    assert _rank_profile.cache_info().misses == 1


def _group_moduli():
    # p = 7 and p = 11 give negative F, so the lanes need their offset
    out = []
    for p, ms in ((2, (1, 2, 5, 8)), (3, (1, 3, 5)), (5, (1, 2, 3)), (7, (1, 2, 3)), (11, (1, 2))):
        for m in ms:
            irreducibles = _irreducibles(p, m)
            out += [irreducibles[0], irreducibles[-1]] if len(irreducibles) > 1 else irreducibles
    return out


@pytest.mark.parametrize("pX", _group_moduli(), ids=str)
def test_group_sums_are_the_rank_profile_of_every_unit(pX):
    p, m = pX.p, pX.degree
    log, F = _unit_group(pX)
    levels = walsh._group_sums(pX)
    assert len(levels) == m + 1 and all(len(level) == p**m - 1 for level in levels)
    for code in range(1, p**m):
        digits = laurent_coeffs(poly_from_int(code, p), pX, 2 * m - 1)
        assert tuple(level[log[code]] for level in levels) == _rank_profile(pX, digits)
    if p >= 7 and m >= 2:
        assert min(F) < 0


@pytest.mark.parametrize("below", [1, 0], ids=["below", "at"])
@pytest.mark.parametrize("shapes", [1, 3])
@pytest.mark.parametrize(
    "pX", [irreducible_poly(2, 5), irreducible_poly(3, 3), irreducible_poly(7, 2)], ids=str
)
def test_batch_bounds_match_the_oracle_on_both_sides_of_the_threshold(pX, shapes, below):
    # N - 1 and N requests for one shape (the fewest at or above N for
    # three), each candidate twice
    p, m = pX.p, pX.degree
    n = p**m - 1
    moduli = [poly_parse(text, p) for text in ("X", "X+1", f"X^{m + 1}+1")[:shapes]]
    count = -(-n // shapes) - below
    qvecs = [(poly_from_int(1 + k // 2, p),) for k in range(count)]
    assert len(set(qvecs)) < count
    with mock.patch.object(walsh, "_group_sums", wraps=walsh._group_sums) as spy:
        rows = walsh._batch_bounds(pX, moduli, qvecs)
    assert spy.call_count == (shapes * count >= n) == (not below)
    for B, row in zip(moduli, rows):
        dmax = m - B.degree
        for qvec, bounds in zip(qvecs, row):
            assert bounds[: dmax + 1] == shape_bounds(LatticeConfig(p, pX, qvec), B)
            digits = laurent_coeffs(B * qvec[0] % pX, pX, 2 * m - 1)
            assert [bounds] == walsh._bound_tuples(p, m, 1, zip(_rank_profile(pX, digits)))


@pytest.mark.parametrize("t", [1, 2])
def test_shape_sums_reject_a_multiple_of_the_modulus(t):
    # at t = 1 on both routes: a batch of one reads a rank profile, a batch
    # of N = 26 requests the whole unit group
    pX = irreducible_poly(3, 3)
    cfg = LatticeConfig(3, pX, (Poly.x(3),) * t)
    with pytest.raises(ValueError, match="divisible by pX"):
        _modulus_bound(cfg, pX)
    qvecs = [(poly_from_int(q, 3),) * t for q in range(1, 27)]
    for moduli in ((pX,), (Poly.x(3), pX * Poly.x(3))):
        with pytest.raises(ValueError, match="divisible by pX"):
            walsh._batch_bounds(pX, moduli, qvecs)


@pytest.mark.parametrize("route", ["small", "group", "table"])
@pytest.mark.parametrize("pX", [irreducible_poly(2, 3), irreducible_poly(3, 2)], ids=str)
def test_batch_bounds_past_d_m_and_on_an_empty_batch(pX, route):
    # shapes of degree m + 1 and m + 2 next to X: at t >= 2 they have no
    # level, and the t = 1 routes run on to d = m, where the tuple is that
    # of B mod pX; an empty batch gives one empty row per shape
    p, m = pX.p, pX.degree
    moduli = [Poly.x(p), poly_parse(f"X^{m + 1}+1", p), poly_parse(f"X^{m + 2}+1", p)]
    units = [poly_from_int(q, p) for q in range(1, p**m)]
    qvecs = {"small": [(units[-1],)], "group": [(q,) for q in units], "table": [(units[0], units[-1])]}
    with mock.patch.object(walsh, "_group_sums", wraps=walsh._group_sums) as spy:
        rows = walsh._batch_bounds(pX, moduli, qvecs[route])
    assert spy.call_count == (route == "group")
    for B, row in zip(moduli, rows):
        for qvec, bounds in zip(qvecs[route], row):
            cfg = LatticeConfig(p, pX, qvec)
            assert _modulus_bound(cfg, B) == shape_bounds(cfg, B)
            if B.degree > m:
                assert shape_bounds(cfg, B) == ()
            if route == "table":
                assert bounds == shape_bounds(cfg, B)
            else:
                reduced = shape_bounds(cfg, B % pX)
                assert len(bounds) == m + 1 and bounds[: len(reduced)] == reduced
    assert walsh._batch_bounds(pX, moduli, []) == [[], [], []]
    with pytest.raises(ValueError, match="divisible by pX"):
        walsh._batch_bounds(pX, [Poly.x(p), pX], [])


@settings(max_examples=200, deadline=None)
@given(_moduli(), st.integers(0, 10**6), st.integers(0, 10**6), st.booleans())
@example(poly_parse("X+1", 3), 0, 5, False)  # m = 1: one digit, B = X + 2
@example(poly_parse("X+1", 3), 0, 4, True)  # B = (X + 1)^2
def test_digit_matrix_reads_the_residue_digits_off_those_of_q(pX, a, b, multiple):
    # the 2m - 1 digits of {B*q/pX} are the convolution of B mod pX with the
    # 3m - 2 digits of {q/pX}, all zero exactly when pX divides B
    p, m = pX.p, pX.degree
    q = poly_from_int(1 + a % (p**m - 1), p)
    B = pX * poly_from_int(b % p**2, p) if multiple else poly_from_int(b % p ** (m + 2), p)
    digits = plattice.digit_matrix(laurent_coeffs(q, pX, 3 * m - 2), B % pX, 1, 2 * m - 1)[0]
    assert digits == laurent_coeffs(B * q % pX, pX, 2 * m - 1)
    assert (not any(digits)) == (B % pX).is_zero


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
