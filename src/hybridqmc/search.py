"""Constructive generator search with certificate merits and counting checks.

The searches certify every candidate generator tuple (or Korobov power
tuple) with the full discrepancy certificate, all in one batch, and rank
by (merit, integer encoding); since the best merit never exceeds the
candidate average, the searches realize the averaging existence argument
constructively.  The
counting helpers classify, for a fixed frequency tuple, how many
candidates annihilate it outright versus merely sink it below X^-d.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .discrepancy import (
    BudgetExceededError,
    Certificate,
    PointSetD,
    certificates,
    env_budget,
    prefix_discrepancies,
)
from .gfpoly import (
    Poly,
    poly_from_int,
    poly_to_int,
    valuation,
)
from .plattice import LatticeConfig, _irreducible_modulus, coprime_to_irreducible, korobov_qvec
from .seqgen import HaltonConfig, hybrid_point_set
from .walsh import _batch_bounds, _combined_numerator, _modulus_bound, walsh_weight_total

DEFAULT_SEARCH_BUDGET = 10**6


def search_budget() -> int:
    return env_budget("HYBRIDQMC_SEARCH_BUDGET", DEFAULT_SEARCH_BUDGET)


def check_search_budget(mode: str, p: int, m: int, t: int, budget: int | None = None):
    """Raise BudgetExceededError when a search's candidate tuples, (p^m - 1)^t
    (exhaustive) or p^m - 1 (korobov), or their generator slots, tuples * t,
    exceed the budget (default: search_budget()).  As p^m - 1 >= 2^m - 1,
    an m or (for a base of 2 or more) a t past the budget's bit length
    exceeds it unformed."""
    budget = search_budget() if budget is None else budget
    power, width = t if mode == "exhaustive" else 1, budget.bit_length()
    base = p**m - 1 if m <= width else None
    space = None if base is None or base > 1 and power > width else base**power
    if space is None or space > budget:
        count = f"{p}^{m} - 1" if power == 1 else f"({p}^{m} - 1)^{t}"
        count = space if space is not None and space.bit_length() <= 64 else count
        hint = "; consider the Korobov search" if mode == "exhaustive" else ""
        raise BudgetExceededError(f"{count} candidate tuples exceed budget {budget}{hint}")
    if space * t > budget:
        raise BudgetExceededError(f"{space} candidate tuples x t={t} exceed budget {budget}")


def nonzero_polys(p: int, m: int) -> list:
    """All nonzero polynomials of degree < m, ascending integer encoding."""
    return [poly_from_int(k, p) for k in range(1, p**m)]


def _candidates(mode: str, t: int, pX: Poly, budget: int | None = None):
    """Check the budget, then yield the candidate generator t-tuples for
    modulus pX: every tuple of nonzero polynomials of degree < m
    (exhaustive) or the power tuples (g, ..., g^t mod pX) (korobov)."""
    p, m = pX.p, pX.degree
    check_search_budget(mode, p, m, t, budget)
    if mode == "exhaustive":
        yield from itertools.product(nonzero_polys(p, m), repeat=t)
    else:
        yield from (korobov_qvec(g, t, pX) for g in nonzero_polys(p, m))


@dataclass(frozen=True)
class MeritReport:
    candidate: tuple
    certificate: Certificate
    rank: int

    @property
    def merit(self) -> Fraction:
        return self.certificate.total

    @property
    def encoding(self) -> tuple:
        return tuple(poly_to_int(q) for q in self.candidate)

    def as_dict(self) -> dict:
        return {
            "candidate": [str(q) for q in self.candidate],
            "encoding": list(self.encoding),
            "merit": float(self.merit),
            "rank": self.rank,
        }


@dataclass(frozen=True)
class SearchResult:
    mode: str
    p: int
    m: int
    t: int
    halton_cfg: HaltonConfig
    modulus: Poly
    reports: tuple
    average: object

    @property
    def best(self) -> MeritReport:
        return self.reports[0]

    @property
    def existence_ok(self) -> bool:
        """Sanity gate: the minimum merit is at most the candidate average,
        compared exactly since both are rationals for every prime."""
        return self.best.merit <= self.average

    def as_dict(self, top: int = 10) -> dict:
        return {
            "mode": self.mode,
            "p": self.p,
            "m": self.m,
            "t": self.t,
            "s": self.halton_cfg.s,
            "bases": [str(b) for b in self.halton_cfg.bases],
            "pX": str(self.modulus),
            "candidateCount": len(self.reports),
            "best": self.best.as_dict(),
            "average": float(self.average),
            "existenceOk": self.existence_ok,
            "table": [r.as_dict() for r in self.reports[:top]],
            "perLevel": self.best.certificate.as_dict()["perLevel"],
        }

    def to_json(self, top: int = 10) -> str:
        return json.dumps(self.as_dict(top), indent=2, sort_keys=True)


def _certify_candidates(mode, m, halton_cfg, pX, candidates) -> SearchResult:
    """Certify the candidates as one batch, rank them by (total numerator,
    encoding), and check the best one's class bounds against a fresh batch
    of one per shape and its merit against the candidate average."""
    qvecs = list(candidates)
    certs = certificates(m, halton_cfg, pX, qvecs)
    scored = sorted(
        zip(certs, qvecs),
        key=lambda item: (item[0].total_numerator, tuple(poly_to_int(q) for q in item[1])),
    )
    reports = tuple(
        MeritReport(qvec, cert, rank) for rank, (cert, qvec) in enumerate(scored, start=1)
    )
    best = reports[0].certificate
    cfg = LatticeConfig(pX.p, pX, reports[0].candidate)
    for u, (table, nums) in enumerate(zip(best.table, best.shape_numerators), start=1):
        for (_, deg_b, _, modulus), num in zip(table, nums):
            if modulus is not None and _modulus_bound(cfg, modulus)[u - deg_b] != num:
                raise ArithmeticError("best candidate's class bound differs from its shape bound")
    average = Fraction(sum(c.total_numerator for c in certs), len(certs) * best.denominator)
    result = SearchResult(mode, pX.p, m, best.t, halton_cfg, pX, reports, average)
    if not result.existence_ok:
        raise ArithmeticError("search minimum exceeds the candidate average")
    return result


def search_exhaustive(
    m: int, t: int, halton_cfg: HaltonConfig, pX: Poly, budget: int | None = None
) -> SearchResult:
    """Certify every generator tuple in (nonzero degree < m)^t, sorted by merit."""
    candidates = _candidates("exhaustive", t, pX, budget)
    return _certify_candidates("exhaustive", m, halton_cfg, pX, candidates)


def search_korobov(
    m: int, t: int, halton_cfg: HaltonConfig, pX: Poly, budget: int | None = None
) -> SearchResult:
    """Certify the power tuples (g, g^2, ..., g^t) for every nonzero g."""
    candidates = _candidates("korobov", t, pX, budget)
    return _certify_candidates("korobov", m, halton_cfg, pX, candidates)


@dataclass(frozen=True)
class DualCounts:
    """Candidate classification for one frequency tuple: kernel candidates
    annihilate it mod pX; low_valuation candidates only sink it below X^-d."""

    kernel: int
    low_valuation: int

    @property
    def total_dual(self) -> int:
        return self.kernel + self.low_valuation


def _digit_freedom(modulus_b: Poly, pX: Poly, u: int) -> int:
    """d = u - deg(B) for a B coprime to the irreducible pX, deg(B) <= u <= m."""
    if not _irreducible_modulus(pX):
        raise ValueError("modulus must be irreducible")
    if not coprime_to_irreducible(modulus_b, pX):
        raise ValueError("modulus shares factor with pX")
    if not modulus_b.degree <= u <= pX.degree:
        raise ValueError("need deg(B) <= u <= m")
    return u - modulus_b.degree


def dual_solution_counts(
    kvec, modulus_b: Poly, pX: Poly, t: int, u: int, mode: str = "general"
) -> DualCounts:
    """Exhaustive kernel/dual counts over the candidate space.

    general: candidates are all nonzero generator t-tuples; checks
    kernel <= (p^m-1)^(t-1) and kernel+low <= (p^m-1)^(t-1) * p^(m-d).
    korobov: candidates are power tuples of single generators; checks
    kernel <= t and low <= t * (p^(m-d) - 1).
    """
    kvec = tuple(kvec)
    if not any(kvec):
        raise ValueError("frequency tuple must be nonzero")
    if len(kvec) != t:
        raise ValueError("frequency tuple length must equal t")
    p, m = pX.p, pX.degree
    d = _digit_freedom(modulus_b, pX, u)
    if mode not in ("general", "korobov"):
        raise ValueError(f"unknown mode {mode!r}")
    kernel = low = 0
    for qvec in _candidates("exhaustive" if mode == "general" else mode, t, pX):
        acc = _combined_numerator(pX, kvec, qvec)
        if acc.is_zero:
            kernel += 1
            continue
        if valuation((acc * modulus_b) % pX, pX) < -d:
            low += 1
    counts = DualCounts(kernel, low)
    pm = p**m
    if mode == "general":
        if kernel > (pm - 1) ** (t - 1):
            raise ArithmeticError("kernel count exceeds (p^m-1)^(t-1)")
        if counts.total_dual > (pm - 1) ** (t - 1) * p ** (m - d):
            raise ArithmeticError("dual count exceeds (p^m-1)^(t-1) * p^(m-d)")
    else:
        if kernel > t:
            raise ArithmeticError("kernel count exceeds t")
        if low > t * (p ** (m - d) - 1):
            raise ArithmeticError("low-valuation count exceeds t*(p^(m-d)-1)")
    return counts


def average_bound_check(modulus_b: Poly, u: int, pX: Poly, t: int, budget: int | None = None):
    """(empirical average, theoretical cap) of the sub-lattice Walsh bound
    over every generator tuple; raises if the average exceeds the cap."""
    p, m = pX.p, pX.degree
    d = _digit_freedom(modulus_b, pX, u)
    qvecs = list(_candidates("exhaustive", t, pX, budget))
    total = sum(bounds[d] for bounds in _batch_bounds(pX, (modulus_b,), qvecs)[0])
    empirical = Fraction(total, len(qvecs) * p**m * (3 * p) ** t)
    theoretical = t + Fraction(p**m, p**m - 1) * walsh_weight_total(p, m, t)
    if empirical > theoretical:
        raise ArithmeticError("empirical average exceeds the theoretical cap")
    return empirical, theoretical


def anchor_pair_set(m: int, pX: Poly, q: Poly | None = None) -> PointSetD:
    """The 2-D set (n/p^m, lattice coordinate of n for generator q), with
    the unit generator by default."""
    p = pX.p
    cfg = LatticeConfig(p, pX, (Poly.one(p) if q is None else q,))
    return PointSetD._checked(tuple(hybrid_point_set(m, HaltonConfig.make(p, ()), cfg)))


def negative_control_report(m: int, pX: Poly, t: int = 2) -> dict:
    """Why the unit component must not meet the anchor coordinate.

    Compares Korobov power tuples (g, ..., g^t) against the shifted family
    (1, g, ..., g^(t-1)) and measures the exact worst prefix discrepancy of
    the 2-D set pairing the anchor with the unit-generator coordinate.
    """
    p = pX.p
    halton0 = HaltonConfig.make(p, ())
    korobov = search_korobov(m, t, halton0, pX)
    # at t = 1 the shifted family is the one tuple (1,), certified once
    gens = nonzero_polys(p, m) if t > 1 else [Poly.one(p)]
    qvecs = [(Poly.one(p),) + (korobov_qvec(g, t - 1, pX) if t > 1 else ()) for g in gens]
    shifted = [
        {"g": str(g), "candidate": [str(q) for q in qvec], "merit": float(cert.total)}
        for g, qvec, cert in zip(gens, qvecs, certificates(m, halton0, pX, qvecs))
    ]
    pair = prefix_discrepancies(anchor_pair_set(m, pX))
    worst = max(pair)
    worst_nn = pair.index(worst) + 1
    best_worst = max(prefix_discrepancies(anchor_pair_set(m, pX, korobov.best.candidate[0])))
    n_points = p**m
    return {
        "p": p,
        "m": m,
        "t": t,
        "pX": str(pX),
        "bestKorobov": korobov.best.as_dict(),
        "shiftedFamily": shifted,
        "anchorUnitPair": {
            "maxPrefixBound": float(worst),
            "argmax": worst_nn,
            "exactScaledDiscrepancy": float(worst),
            "floorNQuarter": n_points / 4,
            "floorHolds": worst >= Fraction(n_points, 4),
        },
        "bestKorobovAnchorPair": {"maxPrefixBound": float(best_worst)},
        "ratio": float(worst / best_worst) if best_worst else None,
    }
