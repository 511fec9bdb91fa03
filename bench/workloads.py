"""Seeded inputs and operations of the benchmark workloads.

A seed picks, for every (p, degree) a search needs, one of the monic
irreducible moduli of that degree, and for each oracle point set one
(modulus, generator) pair from a fixed pool.  Seed 0 is the default: the
smallest irreducible of each degree and the first pool entry, which are the
configurations the workloads were sized on.  answers.json (written by
make_answers.py) holds the expected answer of every configuration a seed can
pick, so every run checks its answers whatever its seed.

The operations call hybridqmc through attribute lookups on the package at
call time, so the traced pass sees the wrappers it installs there.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random

import hybridqmc
import hybridqmc.cli
from checks import DEFAULT_SEED, close

# Passes are kept to about two seconds or less, so that the medians run.py
# reports are taken over ten or more passes of a run.
# (p, m) of the t=1 envelope searches, Halton base X.  For p=3 m=4 only 4 to 8
# of the 80 candidates tie at the best merit (multiplying q by a nonzero
# constant keeps the merit, so 2 is the least possible), which makes the
# best-candidate check bite; for p=5 m=2, 20 of 24 tie, so that operation
# checks the GF(5) merit value but hardly its best candidate.
SEARCH_T1 = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (5, 2))
# (kind, m, t) of the p=2 searches with t > 1, Halton base X
SEARCH_T2 = (("korobov", 4, 2), ("exhaustive", 3, 2), ("korobov", 3, 3))
# (modulus encoding, generator encoding) pools; entry 0 is the default set
ORACLE_3D_128 = (  # m=7, base X: the set written by the CLI and read back
    (131, 102), (203, 120), (203, 2), (143, 9),
    (213, 3), (213, 22), (137, 44), (253, 35),
)
ORACLE_4D_32 = (  # m=5, bases X, X+1
    (37, 5), (47, 30), (47, 1), (37, 3),
    (61, 21), (55, 1), (55, 6), (37, 11),
)
PREFIX_3D_32 = (  # m=5, base X: 32 small python-path oracle calls
    (37, 23), (59, 9), (59, 1), (41, 5),
    (37, 29), (47, 14), (41, 22), (61, 21),
)
# Halton bases of the box-to-class sweep: (p, bases), as in the boxdecomp suite
BOX_SWEEP = ((2, "X,X+1"), (3, "X,X+1"))
# (m, t) of the Walsh bound sweep over every residue class, as in walshbound
BOUND_SWEEP = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))
# degrees m of the certificate check over every prefix, as in the certificate suite
CERT_CHECK = (2, 3)
# suites small enough for one pass
VERIFY_SUITES = ("sublattice", "dichotomy")


def irreducibles(p: int, m: int) -> list:
    """Monic irreducible polynomials of degree m, ascending encoding."""
    polys = (hybridqmc.poly_from_int(p**m + low, p) for low in range(p**m))
    return [f for f in polys if hybridqmc.poly_is_irreducible(f)]


def _halton(p: int, bases: str):
    return hybridqmc.HaltonConfig.make(
        p, tuple(hybridqmc.poly_parse(b, p) for b in bases.split(","))
    )


def search_op(kind: str, p: int, m: int, t: int, pX):
    """One search over base X.  p=2 merits are exact; for p>2 the answer also
    lists every candidate whose merit is close to the best one."""
    halton = _halton(p, "X")
    op_id = f"search_{kind} p={p} m={m} t={t} bases=X pX={hybridqmc.poly_to_int(pX)}"

    def run():
        search = getattr(hybridqmc, f"search_{kind}")
        result = search(m, t, halton, pX)
        best = result.best
        answer = {
            "best": list(best.encoding),
            "merit": str(best.merit),
            "candidates": len(result.reports),
            "existenceOk": result.existence_ok,
        }
        if p != 2:
            answer["ties"] = [
                list(r.encoding)
                for r in result.reports
                if close(str(r.merit), answer["merit"])
            ]
        return answer

    return op_id, run


def _hybrid_set(m: int, bases: str, pX_enc: int, q_enc: int):
    lattice = hybridqmc.LatticeConfig(
        2, hybridqmc.poly_from_int(pX_enc, 2), (hybridqmc.poly_from_int(q_enc, 2),)
    )
    points = hybridqmc.hybrid_point_set(m, _halton(2, bases), lattice)
    return hybridqmc.PointSetD(points)


def oracle_ops(cfg128, cfg4d, cfg_prefix, workdir: str) -> list:
    """Write the 128-point set through the CLI, read it back, and run the
    exact oracle on it, on a 4-D set, and through the prefix-reduction bound."""
    pX, q = (str(hybridqmc.poly_from_int(e, 2)) for e in cfg128)
    path = os.path.join(workdir, "hybrid128.txt")
    tag128 = f"p=2 m=7 pX={cfg128[0]} bases=X q={cfg128[1]}"
    set4d = _hybrid_set(5, "X,X+1", *cfg4d)
    set3d = _hybrid_set(5, "X", *cfg_prefix)
    loaded = {}

    def gen():
        argv = ["gen", "hybrid", "--p", "2", "--px", pX, "--bases", "X", "--q", q,
                "--output", path]
        code = hybridqmc.cli.main(argv)
        with open(path, "rb") as fh:
            data = fh.read()
        return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}

    def load():
        points, meta = hybridqmc.load_point_set(path)
        loaded["points"] = points
        return {"n": points.n, "dim": points.dim, "meta": meta}

    def exact128():
        return {"dstar": str(hybridqmc.star_discrepancy_exact(loaded["points"]))}

    def exact4d():
        return {"dstar": str(hybridqmc.star_discrepancy_exact(set4d))}

    def prefix():
        return {"bound": str(hybridqmc.prefix_reduction_bound(set3d))}

    return [
        (f"cli_gen_hybrid {tag128}", gen),
        (f"load_point_set {tag128}", load),
        (f"star_discrepancy_exact {tag128}", exact128),
        (f"star_discrepancy_exact p=2 m=5 pX={cfg4d[0]} bases=X,X+1 q={cfg4d[1]}", exact4d),
        (f"prefix_reduction_bound p=2 m=5 pX={cfg_prefix[0]} bases=X q={cfg_prefix[1]}", prefix),
    ]


def suite_op(name: str):
    def run():
        result = hybridqmc.run_suite(name)
        return {"passed": result.passed, "checks": result.checks}

    return f"run_suite {name}", run


def box_sweep_op(p: int, bases: str):
    """box_to_residue_classes for every anchored box of levels <= 2."""
    halton = _halton(p, bases)

    def run():
        digest = hashlib.sha256()
        boxes = classes = 0
        for levels in itertools.product(range(3), repeat=halton.s):
            caps = [p ** (e * level) for e, level in zip(halton.degrees, levels)]
            for numerators in itertools.product(*(range(1, c + 1) for c in caps)):
                found = hybridqmc.box_to_residue_classes(halton, levels, numerators)
                boxes += 1
                classes += len(found)
                for c in found:
                    digest.update(f"{c.modulus}|{c.residue};".encode())
        return {"boxes": boxes, "classes": classes, "sha256": digest.hexdigest()}

    return f"box_to_residue_classes p={p} bases={bases} levels<=2", run


def bound_sweep_op(moduli: dict):
    """walsh_discrepancy_bound on every residue class of B in {1, X, X+1,
    (X+1)^2} for every generator tuple: the bound does not depend on the
    residue, so all but the first class of each B are cache hits."""
    x, x1 = hybridqmc.Poly.x(2), hybridqmc.Poly(2, (1, 1))
    shapes = (hybridqmc.Poly.one(2), x, x1, x1 * x1)

    def run():
        total = 0
        calls = 0
        for m, t in BOUND_SWEEP:
            pX = moduli[m]
            for qvec in itertools.product(hybridqmc.nonzero_polys(2, m), repeat=t):
                cfg = hybridqmc.LatticeConfig(2, pX, qvec)
                for b in shapes:
                    for r in range(2 ** b.degree):
                        cls = hybridqmc.ResidueClass(b, hybridqmc.poly_from_int(r, 2))
                        spec = hybridqmc.SubLatticeSpec(m, 0, cls)
                        total += hybridqmc.walsh_discrepancy_bound(spec, cfg)
                        calls += 1
        return {"calls": calls, "total": str(total)}

    encodings = ",".join(str(hybridqmc.poly_to_int(moduli[m])) for m in sorted(moduli))
    return f"walsh_discrepancy_bound sweep p=2 pX={encodings}", run


def cert_check_op(moduli: dict):
    """Every prefix of every t=1 hybrid set of degree m in CERT_CHECK, with
    no Halton base and with base X, against its certificate total: one
    certificate and many tiny python-path oracle calls per generator."""

    def run():
        checks = 0
        worst = 0
        for m in CERT_CHECK:
            for bases in ((), (hybridqmc.Poly.x(2),)):
                halton = hybridqmc.HaltonConfig.make(2, bases)
                for q in hybridqmc.nonzero_polys(2, m):
                    lattice = hybridqmc.LatticeConfig(2, moduli[m], (q,))
                    total = hybridqmc.discrepancy_certificate(m, halton, lattice).total
                    points = hybridqmc.PointSetD(hybridqmc.hybrid_point_set(m, halton, lattice))
                    for n in range(1, points.n + 1):
                        scaled = n * hybridqmc.star_discrepancy_exact(points.prefix(n))
                        worst = max(worst, scaled / total)
                        checks += 1
        return {"checks": checks, "worstRatio": str(worst), "sound": worst <= 1}

    encodings = ",".join(str(hybridqmc.poly_to_int(moduli[m])) for m in CERT_CHECK)
    return f"certificate check p=2 t=1 pX={encodings}", run


def _verify_ops(moduli: dict) -> list:
    return [
        *(suite_op(name) for name in VERIFY_SUITES),
        cert_check_op(moduli),
        bound_sweep_op(moduli),
        *(box_sweep_op(p, bases) for p, bases in BOX_SWEEP),
    ]


def plan(workload: str, seed: int, workdir: str) -> list:
    """The (op_id, thunk) list of one pass; builds every input up front."""
    rng = random.Random(seed)

    def pick(options):
        return options[0] if seed == DEFAULT_SEED else options[rng.randrange(len(options))]

    if workload == "search-t1":
        return [search_op("exhaustive", p, m, 1, pick(irreducibles(p, m))) for p, m in SEARCH_T1]
    if workload == "search-t2":
        return [search_op(kind, 2, m, t, pick(irreducibles(2, m))) for kind, m, t in SEARCH_T2]
    if workload == "oracle":
        return oracle_ops(pick(ORACLE_3D_128), pick(ORACLE_4D_32), pick(PREFIX_3D_32), workdir)
    if workload == "verify":
        moduli = {m: pick(irreducibles(2, m)) for m in sorted({m for m, _ in BOUND_SWEEP})}
        return _verify_ops(moduli)
    raise ValueError(f"unknown workload {workload!r}")


def every_op(workload: str, workdir: str):
    """Every (op_id, thunk) any seed can produce for the workload."""
    if workload == "search-t1":
        for p, m in SEARCH_T1:
            for pX in irreducibles(p, m):
                yield search_op("exhaustive", p, m, 1, pX)
    elif workload == "search-t2":
        for kind, m, t in SEARCH_T2:
            for pX in irreducibles(2, m):
                yield search_op(kind, 2, m, t, pX)
    elif workload == "oracle":
        for entry in zip(ORACLE_3D_128, ORACLE_4D_32, PREFIX_3D_32):
            yield from oracle_ops(*entry, workdir)
    else:
        degrees = sorted({m for m, _ in BOUND_SWEEP})
        for choice in itertools.product(*(irreducibles(2, m) for m in degrees)):
            yield from _verify_ops(dict(zip(degrees, choice)))
