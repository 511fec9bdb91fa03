"""Command-line surface: generate point sets, evaluate/certify discrepancy,
search generators, and run the verification suites.

Exit codes: 0 success, 1 usage or parse error, 2 violated mathematical
precondition (reducible modulus, zero generator, ...), 3 budget exceeded.
Output files are written to a temporary name and renamed on success, and
identical flags produce byte-identical output regardless of --workers.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .discrepancy import (
    BudgetExceededError,
    discrepancy_certificate,
    load_point_set,
    point_file_lines,
    prefix_reduction_bound,
    star_discrepancy_1d,
    star_discrepancy_exact,
    write_atomic,
)
from .gfpoly import ParseError, irreducible_poly, poly_parse
from .plattice import LatticeConfig, korobov_qvec, plattice_point_laurent
from .search import search_exhaustive, search_korobov
from .seqgen import HaltonConfig, digital_points, halton_point, hybrid_point
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


_WORKERS_HELP = "accepted for compatibility; has no effect"


class _UsageError(Exception):
    pass


def _int_at_least(name: str, low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        return value

    parse.__name__ = name  # argparse names it in "invalid <name> value"
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hybridqmc", description=__doc__)
    budget = _int_at_least("budget", 1)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a point set")
    gen.add_argument("kind", choices=["halton", "plattice", "korobov", "hybrid"])
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--px", help="lattice modulus polynomial")
    gen.add_argument("--bases", help="comma-separated Halton base polynomials")
    gen.add_argument("--q", help="comma-separated generator polynomials")
    gen.add_argument("--g", help="Korobov generator polynomial")
    gen.add_argument("--t", type=_int_at_least("t", 1), help="number of Korobov components")
    gen.add_argument("--count", type=int, help="number of points")
    gen.add_argument("--n", type=int, help="emit the single point of this index")
    gen.add_argument("--format", choices=["rational", "decimal"], default="rational")
    gen.add_argument("--precision", type=_int_at_least("precision", 1), default=12)
    gen.add_argument("--output", help="output file (default: stdout)")
    gen.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    disc = sub.add_parser("disc", help="discrepancy evaluation and certification")
    disc.add_argument("mode", choices=["exact", "prefix", "certificate"])
    disc.add_argument("--input", help="point file for exact/prefix modes")
    disc.add_argument("--p", type=int)
    disc.add_argument("--px")
    disc.add_argument("--bases")
    disc.add_argument("--q")
    disc.add_argument("--g")
    disc.add_argument("--t", type=_int_at_least("t", 1))
    disc.add_argument("--budget", type=budget)
    disc.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    search = sub.add_parser("search", help="generator search with certificates")
    search.add_argument("mode", choices=["exhaustive", "korobov"])
    search.add_argument("--p", type=int, required=True)
    search.add_argument("--m", type=_int_at_least("m", 1), required=True)
    search.add_argument("--t", type=_int_at_least("t", 1), default=1)
    search.add_argument("--px", help="modulus (default: smallest irreducible)")
    search.add_argument("--bases", default="", help="Halton bases (may be empty)")
    search.add_argument("--budget", type=budget)
    search.add_argument("--top", type=_int_at_least("top", 0), default=10)
    search.add_argument("--output", help="report file (default: stdout)")
    search.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    return parser


def _parse_polys(text: str, p: int) -> tuple:
    items = [s for s in (text or "").split(",") if s.strip()]
    return tuple(poly_parse(s, p) for s in items)


def _halton_cfg(args) -> HaltonConfig:
    return HaltonConfig.make(args.p, _parse_polys(args.bases or "", args.p))


def _lattice_cfg(args) -> LatticeConfig:
    if not args.px:
        raise _UsageError("--px is required for lattice point sets")
    pX = poly_parse(args.px, args.p)
    if args.g is not None:
        if not args.t:
            raise _UsageError("--t is required with --g")
        qvec = korobov_qvec(poly_parse(args.g, args.p), args.t, pX)
    elif args.q:
        qvec = _parse_polys(args.q, args.p)
    else:
        raise _UsageError("need --q or --g for lattice point sets")
    return LatticeConfig(args.p, pX, qvec)


def _emit(lines, output):
    """Write an iterable of strings to the output file, or to stdout."""
    if output:
        write_atomic(output, lines)
    else:
        sys.stdout.writelines(lines)


def _cmd_gen(args) -> int:
    halton = _halton_cfg(args) if args.kind in ("halton", "hybrid") else None
    lattice = _lattice_cfg(args) if args.kind != "halton" else None
    if lattice is None:
        if not halton.bases:
            raise ValueError("halton generation needs at least one base")
        point = functools.partial(halton_point, cfg=halton)
        meta = {"p": args.p, "dim": halton.s}
    elif halton is None:
        point = functools.partial(plattice_point_laurent, cfg=lattice)
        meta = {"p": args.p, "m": lattice.m, "dim": lattice.t}
    else:
        point = functools.partial(hybrid_point, m=lattice.m, cfg=halton, lattice=lattice)
        meta = {"p": args.p, "m": lattice.m, "dim": 1 + halton.s + lattice.t}
    if args.n is not None:
        points = [point(args.n)]
        meta = {}  # a single point is written without a header
    else:
        total = lattice.n_points if lattice else None  # Halton indices are unbounded
        count = args.count if args.count is not None else total or 1
        if total is None and count < 1:
            raise ValueError("count must be >= 1")
        if total is not None and not 1 <= count <= total:
            raise ValueError(f"count outside [1, {total}]")
        points = digital_points(count, halton, lattice)
        meta["count"] = count
    _emit(point_file_lines(points, meta, args.format, args.precision), args.output)
    return EXIT_OK


def _cmd_disc(args) -> int:
    if args.mode == "certificate":
        if args.p is None:
            raise _UsageError("--p is required for certificate mode")
        halton = _halton_cfg(args)
        lattice = _lattice_cfg(args)
        cert = discrepancy_certificate(lattice.m, halton, lattice)
        lines = [
            f"p={cert.p} m={cert.m} s={cert.s} t={cert.t}",
            f"total={float(cert.total):.12g}",
        ]
        for lv in cert.per_level:
            lines.append(f"  u={lv.u} value={float(lv.value):.12g} shapes={len(lv.shapes)}")
            for sh in lv.shapes:
                lines.append(
                    f"    j={','.join(map(str, sh.exponents)) or '-'} degB={sh.deg_modulus}"
                    f" d={sh.d} mult={sh.multiplicity} classBound={float(sh.class_bound):.12g}"
                )
        _emit(("\n".join(lines) + "\n",), None)
        return EXIT_OK
    if not args.input:
        raise _UsageError("--input is required for exact/prefix modes")
    points, _meta = load_point_set(args.input)
    if args.mode == "exact":
        if points.dim == 1:
            value = star_discrepancy_1d(points)
        else:
            value = star_discrepancy_exact(points, budget=args.budget)
    else:
        value = prefix_reduction_bound(points, budget=args.budget)
    _emit((f"{value} (= {float(value):.12g})\n",), None)
    return EXIT_OK


def _cmd_search(args) -> int:
    p = args.p
    halton = HaltonConfig.make(p, _parse_polys(args.bases, p))
    pX = poly_parse(args.px, p) if args.px else irreducible_poly(p, args.m)
    if pX.degree != args.m:
        raise ValueError("modulus degree must equal m")
    search = search_exhaustive if args.mode == "exhaustive" else search_korobov
    result = search(args.m, args.t, halton, pX, budget=args.budget)
    _emit((result.to_json(top=args.top) + "\n",), args.output)
    return EXIT_OK if result.existence_ok else EXIT_PRECONDITION


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise _UsageError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}"
        )
    result = run_suite(args.suite)
    print(f"{result.name}: {result.summary()}")
    return EXIT_OK if result.passed else EXIT_PRECONDITION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "disc":
            return _cmd_disc(args)
        if args.command == "search":
            return _cmd_search(args)
        return _cmd_verify(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
