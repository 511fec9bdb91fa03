"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The left-hand sides are exact (integer/rational) wherever the criterion
says so; stated tolerances and runtime envelopes are pinned here.
"""

import math
import time
from fractions import Fraction

from hybridqmc.cli import main as cli_main
from hybridqmc.discrepancy import PointSetD, star_discrepancy_1d, star_discrepancy_exact
from hybridqmc.gfpoly import Poly, irreducible_poly, poly_from_int
from hybridqmc.plattice import (
    LatticeConfig,
    build_generating_matrix,
    plattice_point_laurent,
    plattice_point_matrix,
)
from hybridqmc.search import negative_control_report, search_exhaustive
from hybridqmc.seqgen import HaltonConfig, hybrid_point_set
from hybridqmc.suites import run_suite

import random


def _report(criterion, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"{status} criterion {criterion}: {detail} [{elapsed:.1f}s / limit {limit}s]")
    assert passed, detail
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.1f}s)"


def _suite_criterion(criterion, name, limit):
    start = time.time()
    result = run_suite(name)
    _report(criterion, result.passed, result.summary(), time.time() - start, limit)


def test_criterion_01_construction_path_equivalence():
    start = time.time()
    checks = 0
    for p in (2, 3):
        for m in range(1, 6):
            pX = irreducible_poly(p, m)
            for q_enc in range(1, p**m):
                cfg = LatticeConfig(p, pX, (poly_from_int(q_enc, p),))
                mats = [build_generating_matrix(q, pX) for q in cfg.generators]
                for n in range(p**m):
                    assert plattice_point_laurent(n, cfg) == plattice_point_matrix(
                        n, mats, p
                    ), (p, m, q_enc, n)
                    checks += 1
    _report(1, True, f"Laurent == matrix points ({checks} comparisons)", time.time() - start, 30)


def test_criterion_02_box_residue_classes():
    _suite_criterion(2, "boxdecomp", 30)


def test_criterion_03_walsh_dichotomy():
    _suite_criterion(3, "dichotomy", 60)


def test_criterion_04_weight_sum_identity():
    _suite_criterion(4, "weightsum", 60)


def test_criterion_05_walsh_bound_soundness():
    _suite_criterion(5, "walshbound", 300)


def test_criterion_06_low_valuation_count():
    _suite_criterion(6, "valcount", 5)


def test_criterion_07_counting_caps():
    _suite_criterion(7, "counting", 300)


def test_criterion_08_averaging():
    _suite_criterion(8, "averaging", 300)


def test_criterion_09_certificate_soundness():
    _suite_criterion(9, "certificate", 600)


def test_criterion_10_envelope_table():
    start = time.time()
    p = 2
    halton = HaltonConfig.make(p, (Poly.x(p),))
    ratios = {}
    rows = []
    for m in range(2, 11):
        pX = irreducible_poly(p, m)
        result = search_exhaustive(m, 1, halton, pX)
        best = result.best
        lattice = LatticeConfig(p, pX, best.candidate)
        points = PointSetD(hybrid_point_set(m, halton, lattice))
        # (N + 1)^3 corners: from m = 9 on past the default oracle budget
        budget = (p**m + 1) ** 3 if m >= 9 else None
        scaled = points.n * star_discrepancy_exact(points, budget=budget)
        ratio = float(scaled) / math.log(p**m) ** 3
        ratios[m] = ratio
        rows.append(
            f"  m={m} N={p**m:4d} best={str(best.candidate[0]):20s} "
            f"N*D*={float(scaled):7.3f} ratio={ratio:.4f}"
        )
    base = max(ratios[m] for m in (2, 3, 4))
    ok = all(ratios[m] <= 2 * base for m in range(5, 11))
    print("envelope table (ratio = N*D* / ln(N)^3):")
    for row in rows:
        print(row)
    _report(
        10,
        ok,
        f"ratios for m in 5..10 within 2x the m in 2..4 maximum ({base:.4f})",
        time.time() - start,
        1800,
    )


def test_criterion_11_negative_control():
    start = time.time()
    m = 4
    pX = irreducible_poly(2, m)
    report = negative_control_report(m, pX, t=2)
    pair_info = report["anchorUnitPair"]
    floor_holds = pair_info["floorHolds"]
    detail = (
        f"anchor/unit pair max prefix {pair_info['maxPrefixBound']:.3f} >= N/4 = "
        f"{pair_info['floorNQuarter']:.1f}; ratio vs best Korobov pair "
        f"{report['ratio']:.2f} (reported, not gated)"
    )
    _report(11, floor_holds, detail, time.time() - start, 300)


def test_criterion_12_oracle_and_cli_determinism(tmp_path, capsys):
    start = time.time()
    rng = random.Random(20240802)
    for _ in range(200):
        n = rng.randrange(1, 65)
        pts = PointSetD([(Fraction(rng.randrange(256), 256),) for _ in range(n)])
        assert star_discrepancy_1d(pts) == star_discrepancy_exact(pts)
    outputs = []
    for tag, workers in (("a", "1"), ("b", "4"), ("c", "1")):
        target = tmp_path / f"det_{tag}.json"
        code = cli_main(
            [
                "search", "exhaustive", "--p", "2", "--m", "3", "--t", "1",
                "--workers", workers, "--output", str(target),
            ]
        )
        assert code == 0
        outputs.append(target.read_bytes())
    gen_outputs = []
    for tag, workers in (("a", "1"), ("b", "4")):
        target = tmp_path / f"gen_{tag}.txt"
        code = cli_main(
            [
                "gen", "hybrid", "--p", "2", "--px", "X^3+X+1", "--bases", "X",
                "--q", "X^2", "--workers", workers, "--output", str(target),
            ]
        )
        assert code == 0
        gen_outputs.append(target.read_bytes())
    capsys.readouterr()
    same = outputs[0] == outputs[1] == outputs[2] and gen_outputs[0] == gen_outputs[1]
    _report(
        12,
        same,
        "1-D formula == grid on 200 random sets; CLI byte-identical across runs and workers {1,4}",
        time.time() - start,
        60,
    )
