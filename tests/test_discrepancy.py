import functools
import itertools
import os
import random
import tempfile
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hybridqmc.discrepancy as disc
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
from hybridqmc.walsh import _modulus_bound
from hybridqmc.seqgen import HaltonConfig, hybrid_point_set


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


@settings(max_examples=25, deadline=None)
@given(_huge_base_3_point_sets())
def test_prefix_sweep_matches_per_prefix_loop_beyond_int64(pts):
    denoms, _, _ = disc._rescaled_columns(pts)
    assert pts.n * prod(denoms) >= 2**62
    assert prefix_discrepancies(pts) == _prefix_discrepancies_reference(pts)


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
    values = {lv.u: lv.value for lv in cert.per_level}
    assert values[0] == 1
    assert cert.total == 1 + values[2] + (values[0] + values[1])
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
    for lv in cert.per_level:
        for sh in lv.shapes:
            if sh.d >= 0:
                assert sh.class_bound <= 2**sh.d
            else:
                assert sh.class_bound == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certificate_total_is_rebuilt_from_per_level(data):
    # the breakdown is built on first read from the integer numerators; its
    # level values must give back the total, and each value its shapes
    p = data.draw(st.sampled_from((2, 3)), label="p")
    m = data.draw(st.integers(2, 5 if p == 2 else 3), label="m")
    bases = data.draw(st.sampled_from(((), ("X",), ("X", "X+1"))), label="bases")
    halton = HaltonConfig.make(p, tuple(P(b, p) for b in bases))
    t = data.draw(st.integers(1, 2), label="t")
    qvec = data.draw(st.lists(st.integers(1, p**m - 1), min_size=t, max_size=t), label="q")
    lattice = LatticeConfig(p, irreducible_poly(p, m), tuple(poly_from_int(q, p) for q in qvec))
    cert = discrepancy_certificate(m, halton, lattice)
    levels = cert.per_level
    assert levels is cert.per_level
    assert [lv.u for lv in levels] == list(range(m + 1))
    values = [lv.value for lv in levels]
    assert cert.total == 1 + values[m] + (p - 1) * sum(values[:m])
    assert values[0] == 1
    for lv in levels[1:]:
        assert all(type(sh.class_bound) is Fraction for sh in lv.shapes)
        assert lv.value == len(bases) + sum(sh.multiplicity * sh.class_bound for sh in lv.shapes)


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
    """A certificate's fields from _modulus_bound, one (lattice, shape) at a time."""
    p, cfg = pX.p, LatticeConfig(pX.p, pX, qvec)
    den = p**m * (3 * p) ** cfg.t
    table = disc._shape_table(halton.bases, pX)
    levels, shapes = [den], []
    for u, shape_rows in enumerate(table, start=1):
        nums = tuple(
            den if B is None else _modulus_bound(cfg, B)[u - deg_b]
            for _, deg_b, _, B in shape_rows
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
def test_batch_certificates_match_the_per_shape_route(case):
    # every certificate of the batch equals, field by field and in input
    # order, the one assembled from _modulus_bound per (lattice, shape)
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
