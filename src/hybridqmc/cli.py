"""Command-line surface: generate point sets, evaluate/certify discrepancy,
search generators, and run the verification suites.

Exit codes: 0 success, 1 usage or parse error, 2 violated mathematical
precondition (reducible modulus, zero generator, ...), 3 budget exceeded.
Output files are written to a temporary name and renamed on success, and
identical flags produce byte-identical output regardless of --workers.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal

from .discrepancy import (
    _MAX_PRECISION,
    BudgetExceededError,
    UsageError,
    discrepancy_certificate,
    load_point_set,
    point_file_lines,
    prefix_reduction_bound,
    star_discrepancy_exact,
    write_atomic,
)
from .gfpoly import ParseError, as_prime, irreducible_poly, poly_parse
from .plattice import LatticeConfig, korobov_qvec
from .search import check_search_budget, search_exhaustive, search_korobov
from .seqgen import HaltonConfig, digital_points
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


_WORKERS_HELP = "accepted for compatibility; has no effect"


def _int_in(name: str, low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{name} must be <= {high}")
        return value

    parse.__name__ = name  # argparse names it in "invalid <name> value"
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hybridqmc", description=__doc__)
    budget = _int_in("budget", 1)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a point set")
    gen.add_argument("kind", choices=["halton", "plattice", "korobov", "hybrid"])
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--px", help="lattice modulus polynomial")
    gen.add_argument("--bases", help="comma-separated Halton base polynomials")
    gen.add_argument("--q", help="comma-separated generator polynomials")
    gen.add_argument("--g", help="Korobov generator polynomial")
    gen.add_argument("--t", type=_int_in("t", 1), help="number of Korobov components")
    size = gen.add_mutually_exclusive_group()
    size.add_argument("--count", type=int, help="number of points")
    size.add_argument("--n", type=int, help="emit the single point of this index")
    gen.add_argument("--format", choices=["rational", "decimal"], default="rational")
    gen.add_argument("--precision", type=_int_in("precision", 1, _MAX_PRECISION), default=12)
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
    disc.add_argument("--t", type=_int_in("t", 1))
    disc.add_argument("--budget", type=budget)
    disc.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    search = sub.add_parser("search", help="generator search with certificates")
    search.add_argument("mode", choices=["exhaustive", "korobov"])
    search.add_argument("--p", type=int, required=True)
    search.add_argument("--m", type=_int_in("m", 1), required=True)
    search.add_argument("--t", type=_int_in("t", 1), default=1)
    search.add_argument("--px", help="modulus (default: smallest irreducible)")
    search.add_argument("--bases", default="", help="Halton bases (may be empty)")
    search.add_argument("--budget", type=budget)
    search.add_argument("--top", type=_int_in("top", 0), default=10)
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
        raise UsageError("--px is required for lattice point sets")
    pX = poly_parse(args.px, args.p)
    if args.g is not None:
        if not args.t:
            raise UsageError("--t is required with --g")
        qvec = korobov_qvec(poly_parse(args.g, args.p), args.t, pX)
    elif args.q:
        qvec = _parse_polys(args.q, args.p)
    else:
        raise UsageError("need --q or --g for lattice point sets")
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
        meta = {"p": args.p, "dim": halton.s}
    elif halton is None:
        meta = {"p": args.p, "m": lattice.m, "dim": lattice.t}
    else:
        meta = {"p": args.p, "m": lattice.m, "dim": 1 + halton.s + lattice.t}
    if args.n is not None:
        points = digital_points(1, halton, lattice, start=args.n)
        meta = {}  # a single point is written without a header
    else:
        total = lattice.n_points if lattice else None  # Halton indices are unbounded
        count = args.count if args.count is not None else total or 1
        if not 1 <= count <= (total or count):
            bound = "must be >= 1" if total is None else f"outside [1, {total}]"
            raise ValueError(f"count {bound}")
        points = digital_points(count, halton, lattice)
        meta["count"] = count
    _emit(point_file_lines(points, meta, args.format, args.precision), args.output)
    return EXIT_OK


def _cmd_disc(args) -> int:
    if args.mode == "certificate":
        if args.p is None:
            raise UsageError("--p is required for certificate mode")
        if args.budget is not None:
            raise UsageError("--budget does not apply to certificate mode")
        halton = _halton_cfg(args)
        lattice = _lattice_cfg(args)
        cert = discrepancy_certificate(lattice.m, halton, lattice).as_dict()
        lines = [f"p={cert['p']} m={cert['m']} s={cert['s']} t={cert['t']}"]
        lines.append(f"total={cert['total']:.12g}")
        for lv in cert["perLevel"]:
            lines.append(f"  u={lv['u']} value={lv['value']:.12g} shapes={len(lv['shapes'])}")
            lines.extend(
                f"    j={','.join(map(str, sh['exponents'])) or '-'} degB={sh['degB']}"
                f" d={sh['d']} mult={sh['multiplicityBound']} classBound={sh['classBound']:.12g}"
                for sh in lv["shapes"]
            )
        _emit(("\n".join(lines) + "\n",), None)
        return EXIT_OK
    if not args.input:
        raise UsageError("--input is required for exact/prefix modes")
    points, _meta = load_point_set(args.input)
    oracle = star_discrepancy_exact if args.mode == "exact" else prefix_reduction_bound
    value = oracle(points, budget=args.budget)
    # str(int) refuses more than 4,300 digits; str(Decimal(int)) prints any
    num, den = (str(Decimal(n)) for n in value.as_integer_ratio())
    exact = num if den == "1" else f"{num}/{den}"
    _emit((f"{exact} (= {float(value):.12g})\n",), None)
    return EXIT_OK


def _cmd_search(args) -> int:
    p = as_prime(args.p)
    check_search_budget(args.mode, p, args.m, args.t, args.budget)
    halton = HaltonConfig.make(p, _parse_polys(args.bases, p))
    pX = poly_parse(args.px, p) if args.px else irreducible_poly(p, args.m)
    if pX.degree != args.m:
        raise ValueError("modulus degree must equal m")
    search = search_exhaustive if args.mode == "exhaustive" else search_korobov
    result = search(args.m, args.t, halton, pX, budget=args.budget)
    _emit((result.to_json(top=args.top) + "\n",), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UsageError(
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
    except UsageError as exc:
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
