"""One benchmark pass in a fresh interpreter; run.py starts it.

Set-up is the interpreter start, `import hybridqmc` and building the
workload's inputs; it is timed from the monotonic instant the parent passed
in --spawn-ns, which is one clock for every process on the machine.  The
pass then records whether the walsh caches are still empty (set-up must not
warm them: a pass that starts warm fails), runs every operation of the
workload once, and prints one JSON line with its answers, times and peak
memory.  Exit code 3 means hybridqmc could not be imported from this
checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
EXIT_NO_PROGRAM = 3


def _import_program():
    try:
        import hybridqmc
    except ImportError as exc:
        print(f"cannot import hybridqmc: {exc}", file=sys.stderr)
        return None
    if SRC_DIR.resolve() not in Path(hybridqmc.__file__).resolve().parents:
        print(f"hybridqmc comes from {hybridqmc.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return None
    return hybridqmc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--mode", choices=["pass", "traced"], required=True)
    parser.add_argument("--spans", help="file for the traced pass's spans")
    args = parser.parse_args(argv)

    hybridqmc = _import_program()
    if hybridqmc is None:
        return EXIT_NO_PROGRAM
    import numpy
    import workloads

    workdir = tempfile.mkdtemp(prefix="pass-", dir=BENCH_DIR / "results")
    try:
        ops = workloads.plan(args.workload, args.seed, workdir)
        setup_s = (time.monotonic_ns() - args.spawn_ns) * 1e-9
        out = {
            "setup_s": setup_s,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
        caches = (hybridqmc.walsh._modulus_bound, hybridqmc.walsh._combined_residues)
        tracer = None
        if args.mode == "traced":
            import tracing

            tracer = tracing.Tracer(hybridqmc)
            tracer.install()
        out["cold"] = all(cache.cache_info().currsize == 0 for cache in caches)

        answers = []
        start = time.perf_counter()
        for op_id, run in ops:
            op_start = time.perf_counter()
            try:
                answer, error = run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                answer, error = None, repr(exc)
            op_s = time.perf_counter() - op_start
            answers.append({"op": op_id, "answer": answer, "error": error, "op_s": op_s})
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["ops"] = answers
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["self_check"] = tracer.cache_self_check()
            out["binding_sites"] = tracer.sites
            out["spans"] = len(tracer.spans)
            if args.spans:
                tracer.write_spans(args.spans)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
