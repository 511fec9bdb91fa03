"""Named exhaustive verification suites at their documented desk scales.

Each suite re-checks one structural fact behind the toolkit (box/class
correspondence, Walsh-sum bound soundness, weight-sum identity, counting
caps, ...) over an exhaustive or seeded-random grid.  A suite is a
generator: it yields once per passed check, raises `_Counterexample` at
its first failed check and returns a description of its grid when every
check passed.  `run_suite` drives it, counts the checks and builds the
one `SuiteResult`.  The CLI `verify` command runs the suites by name;
the acceptance tests call `run_suite` directly.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .discrepancy import (
    PointSetD,
    certificates,
    prefix_discrepancies,
    star_discrepancy_exact,
)
from .gfpoly import (
    Poly,
    ResidueClass,
    irreducible_poly,
    poly_from_int,
)
from .plattice import (
    LatticeConfig,
    SubLatticeSpec,
    coprime_to_irreducible,
    sublattice_affine,
    sublattice_enumerate,
)
from .search import _candidates, average_bound_check, dual_solution_counts
from .seqgen import (
    HaltonConfig,
    SigmaBijection,
    box_to_residue_classes,
    digital_points,
    hybrid_point_set,
    residue_classes_measure,
)
from .walsh import (
    character_magnitude,
    character_sum,
    count_low_valuation,
    dual_test_matrix,
    dual_test_valuation,
    walsh_discrepancy_bound,
    walsh_weight_total,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    detail: str
    counterexample: str | None = None

    def summary(self) -> str:
        if self.passed:
            return f"pass ({self.detail}; {self.checks} checks)"
        return f"FAIL ({self.detail}): {self.counterexample}"


class _Counterexample(Exception):
    """A suite's first failed check: where it failed and what was seen."""

    def __init__(self, detail: str, witness: str):
        super().__init__(detail, witness)
        self.detail = detail
        self.witness = witness


def _coprime_moduli(moduli, pX: Poly) -> list:
    """The moduli of degree <= deg pX that share no factor with (irreducible) pX."""
    return [b for b in moduli if b.degree <= pX.degree and coprime_to_irreducible(b, pX)]


def suite_boxdecomp():
    """Box membership == residue-class membership, disjointness, and the
    exact measure identity; p=2 bases (X, X+1), levels <= 2, n < 256,
    plus a non-default sigma variant."""
    swapped_p3 = SigmaBijection(3, 1, (0, 2, 1))
    variants = (
        ("default sigma", HaltonConfig.make(2, (Poly.x(2), Poly(2, (1, 1)))), 256),
        # degree-1 binary bases admit only the identity bijection, so the
        # non-default variants use a quadratic base and p=3
        (
            "sigma on quadratic base",
            HaltonConfig.make(
                2,
                (Poly.x(2), Poly(2, (1, 1, 1))),
                (SigmaBijection(2, 1, (0, 1)), SigmaBijection(2, 2, (0, 2, 3, 1))),
            ),
            256,
        ),
        (
            "sigma at p=3",
            HaltonConfig.make(3, (Poly.x(3), Poly(3, (1, 1))), (swapped_p3, swapped_p3)),
            81,
        ),
    )
    for label, cfg, n_limit in variants:
        points = list(digital_points(n_limit, cfg, None))
        for levels in itertools.product(range(3), repeat=cfg.s):
            caps = [cfg.p ** (e * l) for e, l in zip(cfg.degrees, levels)]
            for numerators in itertools.product(*(range(1, c + 1) for c in caps)):
                classes = box_to_residue_classes(cfg, levels, numerators)
                bounds = [Fraction(v, c) for v, c in zip(numerators, caps)]
                if residue_classes_measure(classes) != math.prod(bounds):
                    raise _Counterexample(
                        label, f"measure mismatch at levels={levels} v={numerators}"
                    )
                for n, point in enumerate(points):
                    in_box = all(x < b for x, b in zip(point, bounds))
                    hits = sum(1 for c in classes if c.contains(n))
                    if hits > 1:
                        raise _Counterexample(
                            label,
                            f"overlapping classes at n={n} levels={levels} v={numerators}",
                        )
                    if in_box != (hits == 1):
                        raise _Counterexample(
                            label,
                            f"membership mismatch at n={n} levels={levels} v={numerators}",
                        )
                    yield
    return "p=2 bases (X, X+1) levels<=2 n<256, plus non-default sigma variants"


def suite_walshbound():
    """Exact L*D*_L <= Walsh-sum bound, exhaustively over binary lattices
    m <= 4, t <= 2, moduli in {1, X, X+1, (X+1)^2}, all residues."""
    p = 2
    moduli = [Poly.one(p), Poly.x(p), Poly(p, (1, 1)), Poly(p, (1, 1)) * Poly(p, (1, 1))]
    tight_seen = False
    for m in range(2, 5):
        pX = irreducible_poly(p, m)
        for t in (1, 2):
            for qvec in _candidates("exhaustive", t, pX):
                cfg = LatticeConfig(p, pX, qvec)
                for modulus in _coprime_moduli(moduli, pX):
                    for r_enc in range(p**modulus.degree):
                        residue = poly_from_int(r_enc, p)
                        spec = SubLatticeSpec(m, 0, ResidueClass(modulus, residue))
                        bound = walsh_discrepancy_bound(spec, cfg)
                        rows = sublattice_enumerate(spec, cfg)
                        pts = PointSetD([[Fraction(x, p**m) for x in row] for row in rows])
                        exact = pts.n * star_discrepancy_exact(pts)
                        if exact > bound:
                            raise _Counterexample(
                                f"m={m} t={t}",
                                f"exact {exact} > bound {bound} at q={[str(q) for q in qvec]} "
                                f"B={modulus} R={residue}",
                            )
                        if (
                            m == 2
                            and t == 1
                            and str(qvec[0]) == "X"
                            and modulus == Poly.one(p)
                            and bound == 1
                            and exact == 1
                        ):
                            tight_seen = True
                        yield
    if not tight_seen:
        raise _Counterexample(
            "tight case", "expected bound = exact = 1 for p=2 m=2 q=(X) B=1"
        )
    return "p=2, m<=4, t<=2, B in {1, X, X+1, (X+1)^2}, all residues, tight case included"


def suite_weightsum():
    """Closed-form total Walsh weight equals direct summation in Q(zeta_p),
    exactly for every prime; p in {2,3,5}, m <= 3, t <= 3."""
    for p in (2, 3, 5):
        for m in range(1, 4):
            for t in range(1, 4):
                closed = walsh_weight_total(p, m, t, "closed")
                direct = walsh_weight_total(p, m, t, "direct")
                if closed != direct:
                    raise _Counterexample(
                        f"p={p} m={m} t={t}",
                        f"closed {float(closed)} != direct {float(direct)}",
                    )
                yield
    return "p in {2,3,5}, m<=3, t<=3"


def suite_valcount():
    """Exhaustive low-valuation count equals p^(m-u) - 1 for u <= m <= 6."""
    for p in (2, 3):
        for m in range(1, 7):
            pX = irreducible_poly(p, m)
            for u in range(m + 1):
                got = count_low_valuation(pX, u)
                want = p ** (m - u) - 1
                if got != want:
                    raise _Counterexample(f"p={p} m={m} u={u}", f"count {got} != {want}")
                yield
    return "p in {2,3}, 0 <= u <= m <= 6"


def _random_sublattice(rng: random.Random, p: int, m: int, t: int):
    pX = irreducible_poly(p, m)
    qvec = tuple(poly_from_int(rng.randrange(1, p**m), p) for _ in range(t))
    cfg = LatticeConfig(p, pX, qvec)
    while True:
        deg_b = rng.randrange(0, m + 1)
        enc = rng.randrange(p**deg_b, 2 * p**deg_b) if deg_b else 1
        modulus = poly_from_int(enc, p)
        if coprime_to_irreducible(modulus, pX):
            break
    residue = poly_from_int(rng.randrange(p**deg_b), p) if deg_b else Poly.zero(p)
    u = rng.randrange(deg_b, m + 1)
    blocks = p**m // p**u
    start = rng.randrange(blocks) * p**u
    spec = SubLatticeSpec(u, start, ResidueClass(modulus, residue))
    return spec, cfg


def suite_dichotomy():
    """|character sum| is 0 or p^d exactly, and fullness agrees with both
    the matrix-kernel and the valuation dual tests."""
    rng = random.Random(20240801)
    for _ in range(200):
        p = rng.choice((2, 3))
        m = rng.randrange(1, 6)
        t = rng.randrange(1, 3)
        spec, cfg = _random_sublattice(rng, p, m, t)
        kvec = tuple(rng.randrange(p**m) for _ in range(t))
        acc = character_sum(spec, cfg, kvec)
        try:
            mag = character_magnitude(acc)
        except ArithmeticError:
            raise _Counterexample(
                "integer accumulator",
                f"counts {acc} at p={p} m={m} spec={spec} k={kvec}",
            ) from None
        full = mag == p**spec.d
        if mag not in (0, p**spec.d):
            raise _Counterexample("magnitude", f"|sum|={mag} at p={p} m={m} k={kvec}")
        if full != dual_test_matrix(spec, cfg, kvec) or full != dual_test_valuation(
            spec, cfg, kvec
        ):
            raise _Counterexample(
                "three-way agreement",
                f"p={p} m={m} q={[str(q) for q in cfg.generators]} "
                f"B={spec.cls.modulus} R={spec.cls.residue} u={spec.u} k={kvec}",
            )
        yield
    return "200 random (cfg, spec, k), p in {2,3}, m<=5, t<=2"


def suite_sublattice():
    """Block/residue intersections have size p^d and the affine digit map
    reproduces the enumerated points as multisets."""
    rng = random.Random(19937)
    for _ in range(500):
        p = rng.choice((2, 3))
        m = rng.randrange(1, 6)
        t = rng.randrange(1, 3)
        spec, cfg = _random_sublattice(rng, p, m, t)
        enumerated = sublattice_enumerate(spec, cfg)
        if len(enumerated) != p**spec.d:
            raise _Counterexample(
                "cardinality", f"|points|={len(enumerated)} != p^{spec.d} at {spec}"
            )
        if sorted(enumerated) != sorted(sublattice_affine(spec, cfg)[2]):
            raise _Counterexample("affine agreement", f"mismatch at p={p} m={m} spec={spec}")
        yield
    return "500 random specs, p in {2,3}, m<=5"


def suite_averaging():
    """Mean Walsh-sum bound over all generator tuples stays below the
    closed-form cap; p=2, m <= 4, t <= 2, moduli {1, X+1, (X+1)^2}, u=m."""
    p = 2
    moduli = [Poly.one(p), Poly(p, (1, 1)), Poly(p, (1, 1)) * Poly(p, (1, 1))]
    for m in range(2, 5):
        pX = irreducible_poly(p, m)
        for t in (1, 2):
            for modulus in _coprime_moduli(moduli, pX):
                empirical, cap = average_bound_check(modulus, m, pX, t)
                if empirical > cap:
                    raise _Counterexample(
                        f"m={m} t={t} B={modulus}",
                        f"empirical {float(empirical)} > cap {float(cap)}",
                    )
                yield
    return "p=2, m<=4, t<=2, B in {1, X+1, (X+1)^2}, u=m"


def suite_counting():
    """Kernel/dual counting caps for every nonzero frequency tuple;
    p=2, m <= 3, general t <= 2 and Korobov t <= 3, B in {1, X+1}."""
    p = 2
    for m in range(1, 4):
        pX = irreducible_poly(p, m)
        for modulus in _coprime_moduli([Poly.one(p), Poly(p, (1, 1))], pX):
            for u in range(modulus.degree, m + 1):
                for mode, tmax in (("general", 2), ("korobov", 3)):
                    for t in range(1, tmax + 1):
                        for kvec in itertools.product(range(p**m), repeat=t):
                            if not any(kvec):
                                continue
                            try:
                                dual_solution_counts(kvec, modulus, pX, t, u, mode)
                            except ArithmeticError as exc:
                                raise _Counterexample(
                                    f"{mode} m={m} t={t} B={modulus} u={u}",
                                    f"k={kvec}: {exc}",
                                ) from None
                            yield
    return "p=2, m<=3, B in {1, X+1}, general t<=2 / korobov t<=3, all k"


def suite_certificate():
    """Certificate totals dominate c * D* of anchor-stripped hybrid prefixes
    and the prefix reduction bound; p=2, m <= 6, s in {0, 1}, t=1, all q."""
    p = 2
    for m in range(2, 7):
        pX = irreducible_poly(p, m)
        for bases in ((), (Poly.x(p),)):
            halton_cfg = HaltonConfig.make(p, bases)
            qvecs = [(poly_from_int(q_enc, p),) for q_enc in range(1, p**m)]
            batch = certificates(m, halton_cfg, pX, qvecs)
            for q_enc, (qvec, cert) in enumerate(zip(qvecs, batch), start=1):
                lattice_cfg = LatticeConfig(p, pX, qvec)
                points = PointSetD._checked(tuple(hybrid_point_set(m, halton_cfg, lattice_cfg)))
                hybrid = points.project(range(1, points.dim))
                prefixes = prefix_discrepancies(hybrid)
                for nn, exact in enumerate(prefixes, start=1):
                    if exact > cert.total:
                        raise _Counterexample(
                            f"m={m} s={len(bases)}",
                            f"{nn}*D* = {float(exact)} > total {float(cert.total)} "
                            f"at q encoding {q_enc}",
                        )
                    yield
                # the prefix reduction bound of points, from the sweep above
                exact = points.n * star_discrepancy_exact(points)
                if not exact <= max(prefixes) + 1 <= cert.total:
                    raise _Counterexample(
                        f"m={m} s={len(bases)}",
                        f"prefix reduction bound violated at q encoding {q_enc}",
                    )
                yield
    return "p=2, m<=6, s in {0,1}, t=1, all q, all prefixes"


SUITES = {
    "boxdecomp": suite_boxdecomp,
    "walshbound": suite_walshbound,
    "weightsum": suite_weightsum,
    "valcount": suite_valcount,
    "sublattice": suite_sublattice,
    "dichotomy": suite_dichotomy,
    "averaging": suite_averaging,
    "counting": suite_counting,
    "certificate": suite_certificate,
}


def run_suite(name: str) -> SuiteResult:
    """Run the named suite: count its checks and report its pass
    description or its first counterexample."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    suite = SUITES[name]()
    checks = 0
    try:
        while True:
            next(suite)
            checks += 1
    except StopIteration as done:
        return SuiteResult(name, True, checks, done.value)
    except _Counterexample as failure:
        return SuiteResult(name, False, checks, failure.detail, failure.witness)
