"""Every counterexample path of the verification suites.

Each case replaces one dependency of `hybridqmc.suites` with a faulty
stand-in and pins the exact (passed, checks, detail, counterexample) that
`run_suite` reports: the checks that passed before the first failure, the
failing grid point and its witness text.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from hybridqmc import suites
from hybridqmc.gfpoly import Poly, ResidueClass
from hybridqmc.suites import run_suite


def _raise_kernel(*args):
    raise ArithmeticError("kernel count exceeds t")


def _point_3_reversed(orig):
    def points(count, halton, lattice):
        return (pt[::-1] if n == 3 else pt for n, pt in enumerate(orig(count, halton, lattice)))

    return points


def _extra_class(orig):
    def classes(cfg, levels, v):
        return [*orig(cfg, levels, v), ResidueClass(Poly.one(cfg.p), Poly.zero(cfg.p))]

    return classes


def _measure_without_last(orig):
    return lambda classes: orig(classes[:-1])


def _plus_one(orig):
    return lambda *args: orig(*args) + 1


def _direct_off(orig):
    return lambda p, m, t, mode: orig(p, m, t, mode) + (mode == "direct")


def _first_point_duplicated(orig):
    # as many points as the true route, but the first replaced by a copy of
    # the last: the count still matches, the multiset differs once p^d >= 2
    def affine(spec, cfg):
        matrices, shifts, points = orig(spec, cfg)
        return matrices, shifts, [points[-1], *points[1:]]

    return affine


# (suite, {dependency: factory of its faulty stand-in from the original},
#  (passed, checks, detail, counterexample))
CASES = {
    "boxdecomp-measure": (
        "boxdecomp",
        {"residue_classes_measure": lambda orig: lambda classes: Fraction(0)},
        (False, 0, "default sigma", "measure mismatch at levels=(0, 0) v=(1, 1)"),
    ),
    "boxdecomp-overlap": (
        "boxdecomp",
        {"box_to_residue_classes": _extra_class, "residue_classes_measure": _measure_without_last},
        (False, 0, "default sigma", "overlapping classes at n=0 levels=(0, 0) v=(1, 1)"),
    ),
    "boxdecomp-membership": (
        "boxdecomp",
        {"digital_points": _point_3_reversed},
        (False, 259, "default sigma", "membership mismatch at n=3 levels=(0, 1) v=(1, 1)"),
    ),
    "walshbound-exceeded": (
        "walshbound",
        {"walsh_discrepancy_bound": lambda orig: lambda spec, cfg: 0},
        (False, 0, "m=2 t=1", "exact 1 > bound 0 at q=['1'] B=1 R=0"),
    ),
    "walshbound-tight": (
        "walshbound",
        {"walsh_discrepancy_bound": _plus_one},
        (False, 2772, "tight case", "expected bound = exact = 1 for p=2 m=2 q=(X) B=1"),
    ),
    "weightsum": (
        "weightsum",
        {"walsh_weight_total": _direct_off},
        (False, 0, "p=2 m=1 t=1", "closed 1.5 != direct 2.5"),
    ),
    "valcount": (
        "valcount",
        {"count_low_valuation": lambda orig: lambda pX, u: 0},
        (False, 0, "p=2 m=1 u=0", "count 0 != 1"),
    ),
    "dichotomy-accumulator": (
        "dichotomy",
        {"character_sum": lambda orig: lambda spec, cfg, k: (1, 2)},
        (False, 0, "integer accumulator", (
            "counts (1, 2) at p=3 m=1 spec=SubLatticeSpec(u=1, block_start=0, "
            "cls=ResidueClass(modulus=Poly(3, '1'), residue=Poly(3, '0'))) k=(2,)"
        )),
    ),
    "dichotomy-magnitude": (
        "dichotomy",
        {
            "character_sum": lambda orig: lambda spec, cfg, k: (1, 2),
            "character_magnitude": lambda orig: lambda counts: -1,
        },
        (False, 0, "magnitude", "|sum|=-1 at p=3 m=1 k=(2,)"),
    ),
    "dichotomy-agreement": (
        "dichotomy",
        {"dual_test_valuation": lambda orig: lambda spec, cfg, k: None},
        (False, 0, "three-way agreement", "p=3 m=1 q=['1'] B=1 R=0 u=1 k=(2,)"),
    ),
    "sublattice-cardinality": (
        "sublattice",
        {"sublattice_enumerate": lambda orig: lambda spec, cfg: []},
        (False, 0, "cardinality", (
            "|points|=0 != p^0 at SubLatticeSpec(u=2, block_start=0, "
            "cls=ResidueClass(modulus=Poly(3, 'X^2+2'), residue=Poly(3, 'X+1')))"
        )),
    ),
    "sublattice-affine": (
        "sublattice",
        {"sublattice_affine": lambda orig: lambda spec, cfg: (None, None, [])},
        (False, 0, "affine agreement", (
            "mismatch at p=3 m=2 spec=SubLatticeSpec(u=2, block_start=0, "
            "cls=ResidueClass(modulus=Poly(3, 'X^2+2'), residue=Poly(3, 'X+1')))"
        )),
    ),
    "sublattice-affine-multiplicity": (
        "sublattice",
        {"sublattice_affine": _first_point_duplicated},
        (False, 1, "affine agreement", (
            "mismatch at p=2 m=5 spec=SubLatticeSpec(u=5, block_start=0, "
            "cls=ResidueClass(modulus=Poly(2, 'X+1'), residue=Poly(2, '1')))"
        )),
    ),
    "averaging": (
        "averaging",
        {"average_bound_check": lambda orig: lambda b, u, pX, t: (Fraction(1), Fraction(0))},
        (False, 0, "m=2 t=1 B=1", "empirical 1.0 > cap 0.0"),
    ),
    "counting": (
        "counting",
        {"dual_solution_counts": lambda orig: _raise_kernel},
        (False, 0, "general m=1 t=1 B=1 u=0", "k=(1,): kernel count exceeds t"),
    ),
    "certificate-total": (
        "certificate",
        {"certificates": lambda orig: lambda m, h, pX, qvecs: [SimpleNamespace(total=-1)] * len(qvecs)},
        (False, 0, "m=2 s=0", "1*D* = 1.0 > total -1.0 at q encoding 1"),
    ),
    "certificate-prefix": (
        "certificate",
        {"star_discrepancy_exact": lambda orig: lambda points: Fraction(99)},
        (False, 4, "m=2 s=0", "prefix reduction bound violated at q encoding 1"),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_counterexample(monkeypatch, case):
    name, faults, expected = CASES[case]
    for dependency, faulty in faults.items():
        monkeypatch.setattr(suites, dependency, faulty(getattr(suites, dependency)))
    result = run_suite(name)
    assert result.name == name
    assert (result.passed, result.checks, result.detail, result.counterexample) == expected


def test_unknown_suite_is_a_key_error():
    with pytest.raises(KeyError, match="unknown suite"):
        run_suite("nonsense")
