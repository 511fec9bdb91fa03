import functools
import itertools
import os
import random
import tempfile
import tracemalloc
from fractions import Fraction
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hybridqmc.discrepancy as disc
import hybridqmc.walsh as walsh
from hybridqmc.discrepancy import (
    BudgetExceededError,
    PointSetD,
    certificates,
    discrepancy_certificate,
    format_point_line,
    load_point_set,
    point_file_lines,
    prefix_discrepancies,
    prefix_reduction_bound,
    save_point_set,
    star_discrepancy_1d,
    star_discrepancy_exact,
    write_atomic,
)
from hybridqmc.gfpoly import (
    BasePRational,
    Poly,
    irreducible_poly,
    poly_from_int,
    poly_is_irreducible,
    poly_parse,
)
from hybridqmc.plattice import LatticeConfig, coprime_to_irreducible
from hybridqmc.search import search_exhaustive
from hybridqmc.walsh import _modulus_bound
from hybridqmc.seqgen import HaltonConfig, hybrid_point_set
from shape_oracle import shape_bounds


def P(text, p=2):
    return poly_parse(text, p)


def F(*args):
    return Fraction(*args)


def ps1(*values):
    return PointSetD([(F(v),) for v in values])


def test_exact_1d_examples():
    assert star_discrepancy_exact(ps1(0)) == 1
    assert star_discrepancy_exact(ps1(F(1, 4), F(3, 4))) == F(1, 4)
    assert star_discrepancy_exact(ps1(0, F(1, 4), F(1, 2), F(3, 4))) == F(1, 4)


def test_sorted_formula_examples():
    assert star_discrepancy_1d(ps1(0, F(1, 2))) == F(1, 2)
    assert star_discrepancy_1d(ps1(F(1, 2))) == F(1, 2)
    assert star_discrepancy_1d(ps1(0)) == 1
    with pytest.raises(ValueError):
        star_discrepancy_1d(PointSetD([(F(0), F(0))]))


def test_formula_equals_grid_random():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(1, 65)
        pts = ps1(*(F(rng.randrange(128), 128) for _ in range(n)))
        assert star_discrepancy_1d(pts) == star_discrepancy_exact(pts)


def _grid_extremes_reference(n, denoms, numerators, cands):
    """Brute-force scan of every corner and every point: the reference the
    sweep kernel is checked against."""
    big_q = 1
    for d in denoms:
        big_q *= d
    rows = list(zip(*numerators))
    m1 = m2 = None
    for corner in itertools.product(*cands):
        closed = opened = 0
        for row in rows:
            inside_closed = True
            inside_open = True
            for x, c in zip(row, corner):
                if x > c:
                    inside_closed = False
                    inside_open = False
                    break
                if x == c:
                    inside_open = False
            if inside_closed:
                closed += 1
                if inside_open:
                    opened += 1
        vol = 1
        for c in corner:
            vol *= c
        v1 = closed * big_q - n * vol
        v2 = n * vol - opened * big_q
        if m1 is None or v1 > m1:
            m1 = v1
        if m2 is None or v2 > m2:
            m2 = v2
    return m1, m2


def _assert_kernel_matches_reference(pts):
    dn, nu, ca = disc._rescaled_columns(pts)
    assert disc._grid_extremes(pts.n, dn, nu, ca) == _grid_extremes_reference(
        pts.n, dn, nu, ca
    )


def test_grid_kernel_matches_reference():
    rng = random.Random(4711)
    for dim in (1, 2, 3):
        for _ in range(20):
            n = rng.randrange(1, 24)
            pts = PointSetD(
                [
                    tuple(F(rng.randrange(27), 27) for _ in range(dim))
                    for _ in range(n)
                ]
            )
            _assert_kernel_matches_reference(pts)
    for _ in range(5):
        rows = [tuple(F(rng.randrange(8), 8) for _ in range(4)) for _ in range(10)]
        _assert_kernel_matches_reference(PointSetD(rows))
        # duplicates, 18 of them at one sweep candidate
        _assert_kernel_matches_reference(PointSetD(rows[:1] * 17 + rows))
    grid = [tuple(F(c, 5) for c in t) for t in itertools.product(range(5), repeat=3)]
    _assert_kernel_matches_reference(PointSetD(grid))
    _assert_kernel_matches_reference(PointSetD([(F(1, 2),)] * 20 + [(F(0),)]))
    # n * prod(denominators) >= 2^62 takes exact Python-int arithmetic
    den = 3**45
    huge = PointSetD(
        [(F(rng.randrange(den), den), F(rng.randrange(den), den)) for _ in range(9)]
    )
    _assert_kernel_matches_reference(huge)
    # one axis with a single value, the other with >= 500 candidates
    flat = PointSetD([(F(1, 3), F(k, 512)) for k in range(512)])
    _assert_kernel_matches_reference(flat)


_coordinates = st.fractions(min_value=0, max_value=1, max_denominator=16).filter(
    lambda c: c < 1
)


@st.composite
def _point_sets(draw):
    dim = draw(st.integers(1, 3))
    rows = draw(
        st.lists(st.tuples(*[_coordinates] * dim), min_size=1, max_size=15)
    )
    return PointSetD(rows)


@settings(max_examples=60, deadline=None)
@given(_point_sets())
@example(PointSetD([(F(1, 3),), (F(1, 3),), (F(0),), (F(5, 7),)]))  # no tail axis
def test_oracle_matches_reference_property(pts):
    _assert_kernel_matches_reference(pts)


def test_exact_dim_and_budget_limits():
    with pytest.raises(ValueError):
        star_discrepancy_exact(PointSetD([(F(0),) * 5]))
    pts = PointSetD([(F(k, 64), F((3 * k) % 64, 64)) for k in range(64)])
    with pytest.raises(BudgetExceededError):
        star_discrepancy_exact(pts, budget=10)


def test_duplicate_points_are_counted_with_multiplicity():
    pts = ps1(F(1, 2), F(1, 2))
    # both points sit at 1/2: D* = max(1 - 1/2, 1/2) = 1/2
    assert star_discrepancy_exact(pts) == F(1, 2)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(*[_coordinates] * 4), min_size=1, max_size=6))
def test_oracle_matches_reference_property_dim4(rows):
    _assert_kernel_matches_reference(PointSetD(rows))


@st.composite
def _pooled_point_sets(draw, coordinates=_coordinates):
    # at most three values per axis, so a sweep bucket holds several points
    # that share tail values, and the grid of its distinct tail values
    # stretches to the box in runs longer than one
    dim = draw(st.integers(2, 4))
    pool = st.lists(coordinates, min_size=1, max_size=3, unique=True)
    axes = [st.sampled_from(draw(pool)) for _ in range(dim)]
    return PointSetD(draw(st.lists(st.tuples(*axes), min_size=1, max_size=12)))


# sweep buckets (the points at one value of the first axis) that spread over
# more than one index along only some tail axes: in 3-D along the first tail
# axis only, then the last only; in 4-D along tail axes 0 and 2, then 0 and 1
SPREAD_3D = [
    (F(1, 8), F(1, 4), F(1, 2)), (F(1, 8), F(3, 4), F(1, 2)), (F(3, 8), F(1, 2), F(1, 4)),
    (F(3, 8), F(1, 2), F(3, 4)), (F(5, 8), F(1, 4), F(3, 4)), (F(7, 8), F(3, 4), F(1, 4)),
]
SPREAD_4D = [
    (F(1, 8), F(1, 4), F(1, 2), F(1, 2)), (F(1, 8), F(3, 4), F(1, 2), F(1, 4)),
    (F(3, 8), F(1, 2), F(1, 4), F(3, 4)), (F(3, 8), F(1, 4), F(3, 4), F(3, 4)),
    (F(5, 8), F(3, 4), F(1, 4), F(1, 2)), (F(7, 8), F(1, 2), F(3, 4), F(1, 4)),
]


@settings(max_examples=30, deadline=None)
@given(_pooled_point_sets())
@example(PointSetD([(F(1, 4), F(1, 2), F(1, 3)), (F(1, 4), F(3, 4), F(1, 3))] * 3))
@example(PointSetD(SPREAD_3D))
@example(PointSetD(SPREAD_4D))
def test_oracle_matches_reference_on_shared_tail_values(pts):
    _assert_kernel_matches_reference(pts)


@settings(max_examples=15, deadline=None)
@given(_pooled_point_sets(st.fractions(F(1, 16), F(15, 16), max_denominator=16)))
def test_oracle_matches_reference_without_zero_coordinates(pts):
    _assert_kernel_matches_reference(pts)


def test_first_sweep_step_decides_without_zero_coordinates():
    # four points at the first sweep value 1/8: the largest excess is at
    # corners of that value, where no box has zero volume
    pts = PointSetD([(F(1, 8), F(1, 2))] * 4 + [(F(k, 8), F(7, 8)) for k in (3, 5, 7)])
    dn, nu, ca = disc._rescaled_columns(pts)
    assert len(ca[0]) > len(ca[1])  # the sweep runs along the first axis
    excess, _ = _grid_extremes_reference(pts.n, dn, nu, ca)
    assert _grid_extremes_reference(pts.n, dn, nu, [ca[0][:1], ca[1]])[0] == excess
    assert excess > _grid_extremes_reference(pts.n, dn, nu, [ca[0][1:], ca[1]])[0]
    _assert_kernel_matches_reference(pts)


def _prefix_discrepancies_reference(points):
    """One oracle call per prefix: the reference the index-order sweep is
    checked against."""
    return [c * star_discrepancy_exact(points.prefix(c)) for c in range(1, points.n + 1)]


@st.composite
def _prefix_point_sets(draw):
    # rows drawn from a small pool, so prefixes repeat points
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[_coordinates] * dim), min_size=1, max_size=12))
    return PointSetD(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20)))


@st.composite
def _huge_base_3_point_sets(draw):
    # every coordinate has denominator 3^L, L > 20, so n * prod(denominators)
    # >= 2^62 and the sweep takes exact Python-int arithmetic
    digits = draw(st.integers(21, 40))
    dim = draw(st.integers(2, 3))
    coordinate = st.builds(
        lambda k, r: BasePRational(3, 3 * k + r, digits),
        st.integers(0, 3 ** (digits - 1) - 1),
        st.integers(1, 2),
    )
    pool = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=8))
    return PointSetD(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))


@settings(max_examples=60, deadline=None)
@given(_prefix_point_sets())
def test_prefix_sweep_matches_per_prefix_loop(pts):
    assert prefix_discrepancies(pts) == _prefix_discrepancies_reference(pts)


def _huge(*rows):
    """Points with coordinates k / 3^25, k not divisible by 3."""
    return PointSetD([tuple(F(3 * k + 1, 3**25) for k in row) for row in rows])


@settings(max_examples=25, deadline=None)
@given(_huge_base_3_point_sets())
@example(_huge((5, 10**9), (7, 2), (5, 10**9), (10**11, 4), (7, 2), (5, 10**9)))
def test_prefix_sweep_matches_per_prefix_loop_beyond_int64(pts):
    denoms, _, _ = disc._rescaled_columns(pts)
    assert pts.n * prod(denoms) >= 2**62
    assert prefix_discrepancies(pts) == _prefix_discrepancies_reference(pts)


@settings(max_examples=10, deadline=None)
@given(_huge_base_3_point_sets())
@example(_huge((0, 5, 9), (10**9, 7, 2), (5 * 10**10, 10**11, 4), (10**11, 1, 10**10)))
def test_grid_kernel_matches_reference_beyond_int64(pts):
    denoms, _, _ = disc._rescaled_columns(pts)
    assert pts.n * prod(denoms) >= 2**62
    _assert_kernel_matches_reference(pts)


def test_grid_kernel_beyond_int64_in_four_dimensions():
    rng = random.Random(62)
    den = 3**25
    pools = [[F(3 * rng.randrange(den // 3) + 1, den) for _ in range(3)] for _ in range(4)]
    pts = PointSetD([tuple(rng.choice(pool) for pool in pools) for _ in range(12)])
    denoms, _, _ = disc._rescaled_columns(pts)
    assert pts.n * prod(denoms) >= 2**62
    _assert_kernel_matches_reference(pts)


def _sweep_peak(pts):
    """The tracemalloc peak of one _grid_extremes call on pts, in bytes, and
    the sweep's tail candidates."""
    dn, nu, ca = disc._rescaled_columns(pts)
    tracemalloc.start()
    try:
        disc._grid_extremes(pts.n, dn, nu, ca)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, ca[1:]


def test_sweep_memory_is_the_counts_volumes_and_three_scratch_slices():
    # the first bucket spreads along both tail axes from index 0, so its box
    # is the whole slice; its two stretches take into different scratch
    # slices, as a take whose out overlaps its input goes through a copy
    rows = [(F(k, 1024), F(7 * k % 512, 512), F(11 * k % 512, 512)) for k in range(1, 600)]
    pts = PointSetD([(F(0), F(0), F(1, 2)), (F(0), F(1, 2), F(0)), *rows])
    peak, (ca1, ca2) = _sweep_peak(pts)
    slice_bytes = 8 * len(ca1) * len(ca2)  # int64 counts; 513 x 513 corners
    assert peak < 5.5 * slice_bytes


def test_sweep_memory_on_int32_lanes():
    # n * Q = 66 * 64^4 < 2^31, so every array of the sweep has 4-byte lanes,
    # and the first bucket's box is the whole 65^3 slice; with 8-byte lanes
    # the five slices would take ten.  In 3-D no slice that n * Q < 2^31
    # allows is large enough: numpy's 8192-lane ufunc buffers and the
    # per-point lists alone would pass half a slice.
    h = F(1, 2)
    rows = [tuple(F(c * k % 64, 64) for c in (1, 7, 11, 13)) for k in range(1, 64)]
    pts = PointSetD([(F(0), F(0), h, h), (F(0), h, F(0), h), (F(0), h, h, F(0)), *rows])
    peak, tails = _sweep_peak(pts)
    assert pts.n * 64**4 < 2**31 and [len(c) for c in tails] == [65] * 3
    assert peak < 5.5 * 4 * 65**3


def _brute_prefix_discrepancies(points):
    """c * D* of every prefix c from the brute-force corner scan, which has
    no lanes: the reference at the lane bounds."""
    scaled = []
    for c in range(1, points.n + 1):
        dn, nu, ca = disc._rescaled_columns(points.prefix(c))
        scaled.append(F(max(*_grid_extremes_reference(c, dn, nu, ca), 0), prod(dn)))
    return scaled


# n * Q = 2^31 - 1, the largest product on int32 lanes, and n * Q = 2^31, the
# smallest on int64 ones: both points lie on a zero first axis, so the closed
# box at the corner (0, 1) holds them at volume 0, an excess of 2^31
AT_INT32_BOUND = PointSetD([(F(1, 2**31 - 1),)])
PAST_INT32_BOUND = PointSetD([(F(0), F(1, 2**30)), (F(0), F(3, 2**30))])


def test_sweep_lanes_at_the_int32_bound():
    assert disc._lane_type(1, 2**31 - 1) is np.int32
    assert disc._lane_type(2, 2**30) is np.int64
    for pts in (AT_INT32_BOUND, PAST_INT32_BOUND):
        _assert_kernel_matches_reference(pts)
        assert prefix_discrepancies(pts) == _brute_prefix_discrepancies(pts)
    assert star_discrepancy_exact(PAST_INT32_BOUND) == 1
    assert prefix_discrepancies(PAST_INT32_BOUND) == [1, 2]


@st.composite
def _straddling_point_sets(draw):
    # column denominators 2^k with n * Q in [2^29, 2^33], on both sides of the
    # int32 bound; an axis with k = 0 holds only zeros, and values come from a
    # pool of at most three per axis, so buckets share tail indices
    dim, n = draw(st.integers(2, 3)), draw(st.integers(1, 8))
    total = draw(st.integers(29 - (n.bit_length() - 1), 33 - (n - 1).bit_length()))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=dim - 1, max_size=dim - 1)))
    columns = []
    for k in (b - a for a, b in zip([0, *cuts], [*cuts, total])):
        pool = draw(st.lists(st.integers(0, 2**k - 1), min_size=1, max_size=3))
        rest = draw(st.lists(st.sampled_from(pool), min_size=n - 1, max_size=n - 1))
        # an odd first numerator keeps the column's denominator at 2^k
        columns.append([F(x, 2**k) for x in (pool[0] | (k > 0), *rest)])
    return PointSetD(list(zip(*columns)))


@settings(max_examples=60, deadline=None)
@given(_straddling_point_sets())
@example(PAST_INT32_BOUND)
@example(PointSetD([(F(0), F(1, 2**29), F(1, 2))] * 4))  # n * Q = 2^32
def test_sweep_matches_reference_across_the_int32_bound(pts):
    denoms, _, _ = disc._rescaled_columns(pts)
    assert 2**29 <= pts.n * prod(denoms) <= 2**33
    _assert_kernel_matches_reference(pts)
    assert prefix_discrepancies(pts) == _brute_prefix_discrepancies(pts)


def test_prefix_budget_counts_cells_times_points():
    pts = PointSetD([(F(k, 8), F((3 * k) % 8, 8)) for k in range(8)])
    # 8 distinct values plus 1 on each axis: 81 cells, read 8 times
    work = 81 * 8
    assert prefix_discrepancies(pts, budget=work) == _prefix_discrepancies_reference(pts)
    with pytest.raises(BudgetExceededError):
        prefix_discrepancies(pts, budget=work - 1)
    with pytest.raises(ValueError):
        prefix_discrepancies(PointSetD([(F(0),) * 5]))


def test_prefix_reduction_examples():
    single = PointSetD([(F(0), F(1, 3))])
    assert prefix_reduction_bound(single) == F(2, 3) + 1
    with pytest.raises(ValueError):
        prefix_reduction_bound(PointSetD([(F(1, 2), F(0))]))


def test_prefix_reduction_dominates_exact():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randrange(1, 13)
        pts = PointSetD(
            [(F(i, n), F(rng.randrange(32), 32)) for i in range(n)]
        )
        bound = prefix_reduction_bound(pts)
        assert n * star_discrepancy_exact(pts) <= bound


def test_certificate_example_s0():
    lat = LatticeConfig(2, P("X^2+X+1"), (Poly.x(2),))
    cfg = HaltonConfig.make(2, ())
    cert = discrepancy_certificate(2, cfg, lat)
    den, levels = cert.denominator, cert.level_numerators
    assert levels[0] == den
    assert cert.total_numerator == den + levels[2] + (levels[0] + levels[1])
    assert cert.total == F(cert.total_numerator, den)
    pts = PointSetD(hybrid_point_set(2, cfg, lat))
    assert pts.n * star_discrepancy_exact(pts) <= cert.total


def test_certificate_example_s1_chain():
    lat = LatticeConfig(2, P("X^2+X+1"), (Poly.x(2),))
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    cert = discrepancy_certificate(2, cfg, lat)
    pts = PointSetD(hybrid_point_set(2, cfg, lat))
    reduced = prefix_reduction_bound(pts)
    exact = pts.n * star_discrepancy_exact(pts)
    assert exact <= reduced <= cert.total


def test_certificate_class_bounds_capped():
    lat = LatticeConfig(2, P("X^4+X+1"), (P("X^3+1"),))
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    cert = discrepancy_certificate(4, cfg, lat)
    den = cert.denominator
    assert len(cert.table) == len(cert.shape_numerators) == 4
    for u, (table, nums) in enumerate(zip(cert.table, cert.shape_numerators), start=1):
        assert len(nums) == len(table)
        for (_, deg_b, _, _), num in zip(table, nums):
            if u - deg_b >= 0:
                assert num <= 2 ** (u - deg_b) * den
            else:
                assert num == den


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_total_is_rebuilt_from_per_level(data):
    # the level numerators must give back the total, each level its shapes'
    # class numerators, and as_dict every one of them as num / den exactly
    p = data.draw(st.sampled_from((2, 3)), label="p")
    m = data.draw(st.integers(2, 5 if p == 2 else 3), label="m")
    bases = data.draw(st.sampled_from(((), ("X",), ("X", "X+1"))), label="bases")
    halton = HaltonConfig.make(p, tuple(P(b, p) for b in bases))
    t = data.draw(st.integers(1, 2), label="t")
    qvec = data.draw(st.lists(st.integers(1, p**m - 1), min_size=t, max_size=t), label="q")
    lattice = LatticeConfig(p, irreducible_poly(p, m), tuple(poly_from_int(q, p) for q in qvec))
    cert = discrepancy_certificate(m, halton, lattice)
    den, levels = cert.denominator, cert.level_numerators
    assert len(levels) == m + 1 and len(cert.table) == len(cert.shape_numerators) == m
    assert levels[0] == den
    assert cert.total_numerator == den + levels[m] + (p - 1) * sum(levels[:m])
    report = cert.as_dict()
    assert report["total"] == float(cert.total) == float(F(cert.total_numerator, den))
    assert report["perLevel"][0] == {"u": 0, "value": 1.0, "shapes": []}
    rows = zip(report["perLevel"][1:], levels[1:], cert.table, cert.shape_numerators)
    for u, (entry, num, table, nums) in enumerate(rows, start=1):
        assert len(nums) == len(table)
        assert num == len(bases) * den + sum(mult * n for (_, _, mult, _), n in zip(table, nums))
        assert entry["u"] == u and entry["value"] == float(F(num, den))
        assert entry["shapes"] == [
            {
                "exponents": list(exps),
                "degB": deg_b,
                "d": u - deg_b,
                "multiplicityBound": mult,
                "classBound": float(F(n, den)),
            }
            for (exps, deg_b, mult, _), n in zip(table, nums)
        ]


@functools.lru_cache(maxsize=None)
def _irreducibles(p, m):
    monics = (poly_from_int(p**m + low, p) for low in range(p**m))
    return [f for f in monics if poly_is_irreducible(f)]


@st.composite
def _batches(draw):
    """(pX, bases, qvecs): p in {2, 3, 5}, m <= 5, t <= 3, bases (), (X,) or
    (X, X+1) where coprime to pX, and 1 to 8 generator tuples with repeats."""
    p = draw(st.sampled_from((2, 3, 5)), label="p")
    m = draw(st.integers(1, 5), label="m")
    pX = draw(st.sampled_from(_irreducibles(p, m)), label="pX")
    bases = draw(st.sampled_from(((), ("X",), ("X", "X+1"))), label="bases")
    assume(all(coprime_to_irreducible(P(b, p), pX) for b in bases))
    t = draw(st.integers(1, 3), label="t")
    tuples = st.lists(st.integers(1, p**m - 1), min_size=t, max_size=t).map(tuple)
    qvecs = draw(st.lists(tuples, min_size=1, max_size=8), label="q")
    if len(qvecs) > 1 and draw(st.booleans(), label="repeat"):
        qvecs.append(qvecs[0])
    return pX, bases, qvecs


def _reference_fields(m, halton, pX, qvec) -> tuple:
    """A certificate's fields from the Poly-product oracle, one (lattice,
    shape) at a time, checking _modulus_bound against it on the way."""
    p, cfg = pX.p, LatticeConfig(pX.p, pX, qvec)
    den = p**m * (3 * p) ** cfg.t
    table = disc._shape_table(halton.bases, pX)
    levels, shapes = [den], []
    for u, shape_rows in enumerate(table, start=1):
        bounds = {B: shape_bounds(cfg, B) for *_, B in shape_rows if B is not None}
        assert all(_modulus_bound(cfg, B) == bound for B, bound in bounds.items())
        nums = tuple(
            den if B is None else bounds[B][u - deg_b] for _, deg_b, _, B in shape_rows
        )
        levels.append(halton.s * den + sum(row[2] * n for row, n in zip(shape_rows, nums)))
        shapes.append(nums)
    total = den + levels[m] + (p - 1) * sum(levels[:m])
    return p, m, halton.s, cfg.t, total, tuple(levels), tuple(shapes), table


@settings(max_examples=80, deadline=None)
@given(_batches())
@example((P("X^4+X^3+X^2+X+1"), ("X",), [(1,), (6,), (1,)]))  # X is not primitive
@example((P("X^4+X^3+X^2+X+1"), ("X", "X+1"), [(3, 5), (5, 3), (3, 5), (15, 15)]))
@example((P("X^4+X^3+X^2+X+1"), (), [(2, 7, 9)]))
@example((P("X+1"), ("X",), [(1, 1)]))  # m = 1
@example((P("X", 3), (), [(2,), (1,), (2,)]))
# every nonzero q: at least N = p^m - 1 requests, the t = 1 whole-group route
@example((P("X^4+X+1"), ("X",), [(q,) for q in range(1, 16)]))
@example((P("X^4+X+1"), ("X", "X+1"), [(q,) for q in range(1, 16)]))
@example((P("X^2+1", 3), ("X",), [(q,) for q in range(1, 9)]))
@example((P("X^2+1", 7), ("X",), [(q,) for q in range(1, 49)]))  # min F < 0
@example((P("X^4+X^3+X^2+X+1"), ("X",), [(q,) for q in range(1, 16)]))
@example((P("X^4+X+1"), ("X",), [(7,)]))  # a batch of one, below N
@example((P("X+1"), (), [(1,)]))  # a batch of one at N = 1
def test_batch_certificates_match_the_per_shape_route(case):
    # every certificate of the batch equals, field by field and in input
    # order, the one assembled from the Poly-product oracle per (lattice,
    # shape); _modulus_bound, the batch of one, equals the oracle per shape
    pX, bases, qvecs = case
    p, m = pX.p, pX.degree
    halton = HaltonConfig.make(p, tuple(P(b, p) for b in bases))
    polys = [tuple(poly_from_int(q, p) for q in qvec) for qvec in qvecs]
    batch = certificates(m, halton, pX, polys)
    assert len(batch) == len(polys)
    for cert, qvec in zip(batch, polys):
        fields = (
            cert.p, cert.m, cert.s, cert.t, cert.total_numerator,
            cert.level_numerators, cert.shape_numerators, cert.table,
        )
        assert fields == _reference_fields(m, halton, pX, qvec)
        assert cert.total == Fraction(fields[4], p**m * (3 * p) ** cert.t)


def test_search_merits_match_the_per_shape_route():
    # an exhaustive t = 1 search over its N = 26 candidates reads the whole
    # unit group; every merit is the oracle's total over den, and the
    # average is the mean of those totals
    pX, halton = irreducible_poly(3, 3), HaltonConfig.make(3, (Poly.x(3),))
    with mock.patch.object(walsh, "_group_sums", wraps=walsh._group_sums) as spy:
        result = search_exhaustive(3, 1, halton, pX)
    assert spy.call_count == 1 and len(result.reports) == 26
    den = 3**3 * 9
    totals = [_reference_fields(3, halton, pX, r.candidate)[4] for r in result.reports]
    assert [r.merit for r in result.reports] == [Fraction(total, den) for total in totals]
    assert result.average == Fraction(sum(totals), len(totals) * den)


def test_batch_certificates_check_their_input():
    pX = P("X^3+X+1")
    halton = HaltonConfig.make(2, (Poly.x(2),))
    assert certificates(3, halton, pX, []) == []
    with pytest.raises(ValueError, match="degree must equal m"):
        certificates(4, halton, pX, [(Poly.x(2),)])
    with pytest.raises(ValueError, match="prime mismatch"):
        certificates(3, HaltonConfig.make(3, ()), pX, [(Poly.x(2),)])
    with pytest.raises(ValueError, match="monic irreducible"):
        certificates(3, halton, P("X^3+1"), [(Poly.x(2),)])
    for qvecs in ([(Poly.zero(2),)], [(P("X^3"),)], [(Poly.x(2),), (Poly.x(2), Poly.x(2))]):
        with pytest.raises(ValueError, match="nonzero generators"):
            certificates(3, halton, pX, qvecs)


def test_certificate_rejects_shared_base():
    lat = LatticeConfig(2, P("X^2+X+1"), (Poly.x(2),))
    cfg = HaltonConfig.make(2, (P("X^2+X+1"),))
    with pytest.raises(ValueError, match="shares a factor"):
        discrepancy_certificate(2, cfg, lat)


def test_point_file_roundtrip(tmp_path):
    lat = LatticeConfig(2, P("X^2+X+1"), (Poly.x(2),))
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    pts = hybrid_point_set(2, cfg, lat)
    path = tmp_path / "points.txt"
    save_point_set(path, pts, {"p": 2, "m": 2, "dim": 3, "count": len(pts)})
    loaded, meta = load_point_set(path)
    assert meta == {"p": 2, "m": 2, "dim": 3, "count": 4}
    assert loaded.fractions == PointSetD(pts).fractions
    # decimal mode parses back to the printed precision
    path2 = tmp_path / "points_dec.txt"
    save_point_set(path2, pts, {"p": 2, "dim": 3, "count": 4}, fmt="decimal")
    loaded2, _ = load_point_set(path2)
    for row, orig in zip(loaded2.fractions, PointSetD(pts).fractions):
        for a, b in zip(row, orig):
            assert abs(a - b) <= Fraction(1, 10**12)


@st.composite
def _base_p_point_sets(draw, primes):
    p = draw(st.sampled_from(primes))
    digits = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 3))
    coordinate = st.builds(
        lambda num, exponent: BasePRational(p, num % p**exponent, exponent),
        st.integers(0, p**digits),
        st.integers(0, digits),
    )
    rows = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=8))
    return p, digits, rows


@settings(max_examples=100, deadline=None)
@given(_base_p_point_sets((2, 3, 5)))
def test_point_file_rational_round_trip(case):
    p, _, rows = case
    meta = {"p": p, "dim": len(rows[0]), "count": len(rows)}
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "points.txt")
        save_point_set(path, rows, meta)
        loaded, loaded_meta = load_point_set(path)
    assert loaded_meta == meta
    assert loaded.fractions == tuple(rows)
    assert loaded.fractions == PointSetD(rows).fractions


@settings(max_examples=100, deadline=None)
@given(_base_p_point_sets((2, 5)), st.integers(0, 3))
def test_point_file_decimal_round_trip(case, spare):
    # a/p^L with p in {2, 5} has L decimal digits, so a precision of at
    # least L digits writes every value exactly
    p, digits, rows = case
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "points.txt")
        save_point_set(path, rows, {"p": p}, fmt="decimal", precision=max(digits, 1) + spare)
        loaded, _ = load_point_set(path)
    assert loaded.fractions == PointSetD(rows).fractions


@settings(max_examples=100, deadline=None)
@given(_base_p_point_sets((2, 3, 5)))
def test_oracle_reads_base_p_rows_as_their_fractions(case):
    _, _, rows = case
    base_p = PointSetD(rows)
    plain = PointSetD([tuple(Fraction(c) for c in row) for row in rows])
    assert star_discrepancy_exact(base_p) == star_discrepancy_exact(plain)
    assert prefix_discrepancies(base_p) == prefix_discrepancies(plain)


def test_point_set_keeps_base_p_coordinates():
    rows = [(BasePRational(3, n, 2), BasePRational(2, n % 4, 2)) for n in range(9)]
    pts = PointSetD(rows)
    assert all(pts.fractions[i][j] is rows[i][j] for i in range(9) for j in range(2))
    assert pts.prefix(4).fractions[3][1] is rows[3][1]
    assert pts.project([1]).fractions[5][0] is rows[5][1]


def test_save_point_set_streams_points(tmp_path):
    rows = [(BasePRational(2, n, 3), BasePRational(3, n, 2)) for n in range(8)]
    pulled = []

    def stream():
        for row in rows:
            pulled.append(row)
            yield row

    meta = {"p": 2, "count": len(rows)}
    save_point_set(tmp_path / "list.txt", rows, meta)
    save_point_set(tmp_path / "stream.txt", stream(), meta)
    assert (tmp_path / "stream.txt").read_bytes() == (tmp_path / "list.txt").read_bytes()
    pulled.clear()
    lines = point_file_lines(stream(), meta)
    assert [next(lines), next(lines)] == ["# p=2\n", "# count=8\n"] and not pulled
    assert next(lines) == "0/8 0/9\n" and len(pulled) == 1


def test_format_point_line_tokens():
    pt = (BasePRational(2, 1, 2), BasePRational(2, 1, 1), BasePRational(2, 3, 2))
    assert format_point_line(pt) == "1/4 1/2 3/4"
    assert format_point_line((F(1, 3),), "decimal", 6) == "0.333333"
    assert format_point_line((F(2, 3),), "decimal", 6) == "0.666667"
    # a coordinate below 1 never prints as 1, so the file reads back
    assert format_point_line((F(999, 1000),), "decimal", 2) == "0.99"
    for precision in (0, -3):
        with pytest.raises(ValueError):
            format_point_line((F(1, 3),), "decimal", precision)


def test_decimal_precision_is_capped_in_the_library(tmp_path):
    # 4,300 digits is the longest token load_point_set reads back; past it
    # the check fires before any arithmetic (a non-number coordinate would
    # otherwise fail in Fraction), and save_point_set writes nothing
    assert format_point_line((F(1, 3),), "decimal", 4300) == "0." + "3" * 4300
    for precision in (4301, 10**9):
        with pytest.raises(ValueError, match=r"precision must be in 1\.\.4300"):
            format_point_line(("x",), "decimal", precision)
    with pytest.raises(ValueError, match=r"precision must be in 1\.\.4300"):
        list(point_file_lines([(F(1, 3),)], {}, "decimal", 4301))
    target = tmp_path / "points.txt"
    with pytest.raises(ValueError, match=r"precision must be in 1\.\.4300"):
        save_point_set(target, [(F(1, 3),)], {"p": 2}, "decimal", 4301)
    assert list(tmp_path.iterdir()) == []


def test_write_atomic_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(target, "café\n")
    (tmp_path / "sub").mkdir()
    with pytest.raises(IsADirectoryError):
        write_atomic(tmp_path / "sub", "x\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.txt", "sub"]
    assert target.read_text() == "old\n"
    write_atomic(target, "new\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["out.txt", "sub"]
    assert target.read_text() == "new\n"
