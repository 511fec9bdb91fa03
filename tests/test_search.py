import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest

from hybridqmc import cli, discrepancy, gfpoly, search, walsh
from hybridqmc.discrepancy import BudgetExceededError
from hybridqmc.gfpoly import Poly, irreducible_poly, poly_from_int, poly_parse
from hybridqmc.plattice import LatticeConfig
from hybridqmc.search import (
    anchor_pair_set,
    average_bound_check,
    check_search_budget,
    dual_solution_counts,
    negative_control_report,
    nonzero_polys,
    search_exhaustive,
    search_korobov,
)
from hybridqmc.seqgen import HaltonConfig


def P(text, p=2):
    return poly_parse(text, p)


PX2 = P("X^2+X+1")
PX3 = P("X^3+X+1")
H0 = HaltonConfig.make(2, ())


def test_exhaustive_example_m2():
    res = search_exhaustive(2, 1, H0, PX2)
    assert len(res.reports) == 3
    assert [r.rank for r in res.reports] == [1, 2, 3]
    merits = [r.merit for r in res.reports]
    assert merits == sorted(merits)
    assert res.best.merit <= res.average
    # deterministic tie-break by integer encoding
    tied = [r for r in res.reports if r.merit == res.best.merit]
    assert [r.encoding for r in tied] == sorted(r.encoding for r in tied)


def test_exhaustive_singleton_m1():
    res = search_exhaustive(1, 1, H0, irreducible_poly(2, 1))
    assert len(res.reports) == 1
    assert res.best.candidate == (Poly.one(2),)


def test_exhaustive_budget():
    with pytest.raises(BudgetExceededError, match="Korobov"):
        search_exhaustive(3, 2, H0, PX3, budget=10)


@pytest.mark.parametrize(
    "mode, p, m, t, tuples",
    [("exhaustive", 2, 1, 10**8, 1), ("korobov", 2, 2, 10**8, 3), ("korobov", 2, 19, 2, 524287)],
)
def test_search_budget_counts_generator_slots(mode, p, m, t, tuples):
    # a tuple of t generators is t slots: tuples * t is held to the budget
    message = f"{tuples} candidate tuples x t={t} exceed budget {10**6}"
    with pytest.raises(BudgetExceededError) as exc:
        check_search_budget(mode, p, m, t, 10**6)
    assert str(exc.value) == message
    check_search_budget(mode, p, m, t, tuples * t)


def test_exhaustive_m3_t2_with_base():
    cfg = HaltonConfig.make(2, (Poly.x(2),))
    res = search_exhaustive(3, 2, cfg, PX3)
    assert len(res.reports) == 49
    assert res.best.merit <= res.average


def test_korobov_example_m2_t2():
    res = search_korobov(2, 2, H0, PX2)
    assert [[str(q) for q in r.candidate] for r in res.reports] == [
        ["X", "X+1"],
        ["X+1", "X"],
        ["1", "1"],
    ] or len(res.reports) == 3
    candidates = {tuple(str(q) for q in r.candidate) for r in res.reports}
    assert candidates == {("X", "X+1"), ("X+1", "X"), ("1", "1")}
    assert res.best.merit <= res.average


def test_korobov_singleton_m1():
    res = search_korobov(1, 2, H0, irreducible_poly(2, 1))
    assert len(res.reports) == 1


def test_search_determinism():
    a = search_exhaustive(3, 1, H0, PX3).to_json()
    b = search_exhaustive(3, 1, H0, PX3).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["candidateCount"] == 7
    assert parsed["existenceOk"] is True
    assert len(parsed["table"]) == 7


def test_dual_counts_examples():
    c = dual_solution_counts((1, 0), Poly.one(2), PX2, 2, 2, "general")
    assert c.kernel == 0
    ck = dual_solution_counts((1, 1), Poly.one(2), PX2, 2, 2, "korobov")
    assert ck.kernel == 1
    # d = 0 counts every dual candidate (valuation < 0 is automatic for
    # nonzero residues of degree < m)
    c0 = dual_solution_counts((1,), Poly.one(2), PX2, 1, 0, "general")
    assert c0.total_dual == 3
    with pytest.raises(ValueError):
        dual_solution_counts((0, 0), Poly.one(2), PX2, 2, 2, "general")


def test_dual_counts_respect_the_search_budget(monkeypatch):
    # 7^2 = 49 general candidates and 7 Korobov ones at p = 2, m = 3, t = 2;
    # the Korobov ones hold 7 * 2 = 14 generators
    monkeypatch.setenv("HYBRIDQMC_SEARCH_BUDGET", "10")
    with pytest.raises(BudgetExceededError, match="49 candidate tuples exceed budget 10"):
        dual_solution_counts((1, 0), Poly.one(2), PX3, 2, 3, "general")
    with pytest.raises(BudgetExceededError, match="7 candidate tuples x t=2 exceed budget 10"):
        dual_solution_counts((1, 0), Poly.one(2), PX3, 2, 3, "korobov")
    monkeypatch.setenv("HYBRIDQMC_SEARCH_BUDGET", "14")
    assert dual_solution_counts((1, 0), Poly.one(2), PX3, 2, 3, "korobov").kernel == 0
    with pytest.raises(ValueError, match="unknown mode 'exhaustive'"):
        dual_solution_counts((1, 0), Poly.one(2), PX3, 2, 3, "exhaustive")


def test_dual_counts_reject_a_reducible_modulus():
    # X^2 + X = X(X + 1): the counts and the coprimality rule assume pX irreducible
    for B in (P("X"), Poly.one(2)):
        with pytest.raises(ValueError, match="modulus must be irreducible"):
            dual_solution_counts((1,), B, P("X^2+X"), 1, 1)
        with pytest.raises(ValueError, match="modulus must be irreducible"):
            average_bound_check(B, 1, P("X^2+X"), 1)


def test_dual_counts_consistency_split():
    # kernel + low_valuation = total dual membership, by definition split
    from hybridqmc.gfpoly import valuation

    for kvec in itertools.product(range(8), repeat=1):
        if not any(kvec):
            continue
        for u in range(4):
            counts = dual_solution_counts(kvec, Poly.one(2), PX3, 1, u, "general")
            direct = 0
            for q in nonzero_polys(2, 3):
                acc = (poly_from_int(kvec[0], 2) * q) % PX3
                if acc.is_zero or valuation(acc, PX3) < -u:
                    direct += 1
            assert counts.total_dual == direct


def test_average_bound_examples():
    emp, cap = average_bound_check(Poly.one(2), 2, PX2, 1)
    assert emp <= cap
    assert cap == 1 + Fraction(4, 3) * 2
    emp3, cap3 = average_bound_check(P("X+1"), 3, PX3, 2)
    assert emp3 <= cap3
    assert abs(float(cap3) - (2 + (8 / 7) * 6.25)) < 1e-12
    # d = 0 caps every bound at 1
    emp0, _ = average_bound_check(P("X+1"), 1, PX3, 1)
    assert emp0 <= 1
    # bad input is a ValueError, not a failed cap: a zero B, and B = pX
    with pytest.raises(ValueError):
        average_bound_check(Poly.zero(2), 2, PX2, 1)
    with pytest.raises(ValueError):
        average_bound_check(PX3, 3, PX3, 1)


@pytest.mark.parametrize("B, u, t", [(Poly.one(2), 3, 1), (P("X+1"), 3, 2), (P("X^2+1"), 2, 2)])
def test_average_bound_check_reads_one_batch(monkeypatch, B, u, t):
    # the mean over every candidate of its _modulus_bound entry, from one
    # _batch_bounds call and no LatticeConfig per candidate
    d = u - B.degree
    cfgs = [LatticeConfig(2, PX3, qvec) for qvec in itertools.product(nonzero_polys(2, 3), repeat=t)]
    total = sum(walsh._modulus_bound(cfg, B)[d] for cfg in cfgs)
    calls = []
    real = search._batch_bounds
    monkeypatch.setattr(search, "_batch_bounds", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(search, "LatticeConfig", None)
    empirical, _ = average_bound_check(B, u, PX3, t)
    assert calls == [1]
    assert empirical == Fraction(total, len(cfgs) * 2**3 * 6**t)


def test_anchor_pair_leading_digits_coincide():
    # the unit-generator coordinate mirrors the anchor's leading digits,
    # leaving a large empty box below the main diagonal
    pair = anchor_pair_set(4, P("X^4+X+1"))
    for row in pair.fractions:
        assert (row[0] < Fraction(1, 2)) == (row[1] < Fraction(1, 2))
        assert abs(row[0] - row[1]) <= Fraction(1, 16)
    from hybridqmc.discrepancy import star_discrepancy_exact

    assert pair.n * star_discrepancy_exact(pair) >= Fraction(pair.n, 4)


def test_negative_control_report():
    rep = negative_control_report(3, PX3, 2)
    assert rep["anchorUnitPair"]["floorHolds"] in (True, False)
    assert rep["bestKorobov"]["merit"] <= max(s["merit"] for s in rep["shiftedFamily"])
    assert len(rep["shiftedFamily"]) == 7


def test_negative_control_t1_certifies_the_unit_tuple_once():
    rep = negative_control_report(3, PX3, t=1)
    assert rep["shiftedFamily"] == [{"g": "1", "candidate": ["1"], "merit": 7.5}]


@pytest.mark.parametrize(
    "m, best, merit, average, worst",
    [
        (9, "X^7+X^5+X^3+X^2+X", Fraction(7643, 64), Fraction(635741, 4088), Fraction(50527, 64)),
        (
            10,
            "X^9+X^7+X^5+X^4+X^3+X^2+X+1",
            Fraction(20087, 128),
            Fraction(1704139, 8184),
            Fraction(199871, 128),
        ),
    ],
    ids=["m9", "m10"],
)
def test_exhaustive_t1_large_m(m, best, merit, average, worst):
    # every candidate at p=2, base X, modulus irreducible_poly(2, m); the
    # pinned values come from the image-pass Walsh sums, independent of the
    # unit-group correlation that now gives a whole t = 1 search's bounds
    res = search_exhaustive(m, 1, HaltonConfig.make(2, (Poly.x(2),)), irreducible_poly(2, m))
    assert len(res.reports) == 2**m - 1
    assert res.best.candidate == (P(best),)
    assert res.best.merit == merit
    assert res.average == average
    assert res.reports[-1].merit == worst


def test_search_certifies_its_candidates_in_one_batch(monkeypatch):
    # 63 candidates and 7 shapes X^j: the residues X^j * q mod pX are read
    # as discrete logs, not formed by one Poly product per (candidate,
    # shape), and only the best candidate's 21 (level, shape) pairs go
    # through _modulus_bound
    pX = irreducible_poly(2, 6)
    halton = HaltonConfig.make(2, (Poly.x(2),))
    for cache in (discrepancy._shape_table, walsh._modulus_bound, walsh._rank_profile):
        cache.cache_clear()
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(gfpoly.Poly, "__mul__", counted("mul", gfpoly.Poly.__mul__))
    monkeypatch.setattr(search, "_modulus_bound", counted("bound", search._modulus_bound))
    res = search_exhaustive(6, 1, halton, pX)
    assert len(res.reports) == 63
    assert counts["mul"] < 63
    assert counts["bound"] <= 21


def test_a_wrong_best_candidate_bound_fails_the_search(monkeypatch, capsys):
    # the batch's class bounds of the best candidate are checked against the
    # per-shape route; a perturbed route must fail the search, and the CLI
    # with exit code 2 and no report
    real = search._modulus_bound
    monkeypatch.setattr(search, "_modulus_bound", lambda cfg, B: tuple(b + 1 for b in real(cfg, B)))
    with pytest.raises(ArithmeticError, match="class bound"):
        search_exhaustive(3, 1, HaltonConfig.make(2, (Poly.x(2),)), PX3)
    with pytest.raises(ArithmeticError, match="class bound"):
        search_korobov(3, 2, H0, PX3)
    code = cli.main(["search", "exhaustive", "--p", "2", "--m", "3", "--bases", "X"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "class bound" in err
