"""Cold-cache benchmark of hybridqmc's search, oracle and verify paths.

    python3 bench/run.py --workload search-t1 [--seed 0] [--seconds 30] [--trace 0]

Run it from the root of a checkout; it imports hybridqmc from src/ there.
Every pass runs in a fresh interpreter (child.py), so caches start cold,
set-up is timed from process start, and the peak resident memory is the
pass's own.  The workloads are in workloads.py and their reasons in
BENCHMARK.json.  Every answer is checked against answers.json.

--trace 0 repeats whole cold passes for --seconds (at least one).  The
machine the benchmark was sized on, a 2-vCPU virtual machine, runs the same
pass up to 1.5 times slower for minutes at a time, slowing every CPU-bound
job alike, so raw pass times from two runs half an hour apart cannot be
compared.  The parent therefore times a fixed pure-Python reference job on
the pass's CPU just before and just after every pass, and scales the pass's
times by REFERENCE_S over that reference time.  wall_s and setup_s are the
medians of the scaled times: the seconds the pass takes on the machine at
the speed where the reference job takes REFERENCE_S.  The reference job
lives here and never imports hybridqmc, so no change to the program changes
the scale.  Each pass is pinned to one CPU, taking the usable CPUs in turn,
because a virtual CPU is often slowed by a busy neighbour on its host core
while another is not.  peak_rss_mb is the median of the passes.  The record
keeps the unscaled times.

--trace 1 runs a few untraced passes and one traced pass, and reports the
per-layer counts and busy times of the traced one.  trace.wall_s is the
traced pass's unscaled wall time, on the same clock as the busy times, and
trace.overhead_s is that minus the untraced median at the traced pass's
reference speed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.  A
record with the per-operation answers, the fingerprint and the machine is
written to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
sys.path.insert(0, str(BENCH_DIR))

from tracing import METRICS as LAYER_METRICS  # noqa: E402
from checks import DEFAULT_SEED, WORKLOADS, fingerprint, fingerprint_view, matches  # noqa: E402
from child import EXIT_NO_PROGRAM  # noqa: E402

UNTRACED_PASSES_WITH_TRACE = 4
RUN_LIMIT_S = 170  # every child is stopped before the run exceeds this
REFERENCE_REPEATS = 3
# the reference job's time on the machine the workloads were sized on
# (2-vCPU x86_64 virtual machine, Python 3.11) in a quiet phase: the speed
# at which wall_s and setup_s are reported
REFERENCE_S = 0.015


class NoProgram(RuntimeError):
    """The checkout holds no importable hybridqmc."""


def _child_env() -> dict:
    env = dict(os.environ)
    for name in ("HYBRIDQMC_ORACLE_BUDGET", "HYBRIDQMC_SEARCH_BUDGET"):
        env.pop(name, None)  # the workloads are sized to the default budgets
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _reference_job():
    """Fixed work in the style of hybridqmc's inner loops: GF(2) products of
    coefficient lists and a Fraction sum."""
    total = Fraction(0)
    b = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1)
    for i in range(1, 1500):
        a = [(i >> j) & 1 for j in range(12)]
        prod = [0] * (len(a) + len(b) - 1)
        for x, ax in enumerate(a):
            if ax:
                for y, by in enumerate(b):
                    prod[x + y] ^= by
        total += Fraction(sum(prod), i)
    return total


def _reference_s(cpu: int) -> float:
    """Fastest of a few timings of the reference job on cpu."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            _reference_job()
            times.append(time.perf_counter() - start)
        return min(times)
    finally:
        os.sched_setaffinity(0, saved)


def _run_child(args, mode: str, deadline: float, cpu: int, spans: Path | None = None) -> dict | None:
    """One child process, pinned to cpu, between two timings of the reference
    job there; None if it crashed or ran out of time."""
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    reference_before = _reference_s(cpu)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd + ["--spawn-ns", str(spawn_ns)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{mode} child of {args.workload} stopped at the run's time limit", file=sys.stderr)
        return None
    if proc.returncode == EXIT_NO_PROGRAM:
        raise NoProgram("hybridqmc cannot be imported from this checkout's src/")
    if proc.returncode != 0:
        print(f"{mode} child of {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(stdout.strip().splitlines()[-1])
    reference = (reference_before + _reference_s(cpu)) / 2
    return {**result, "cpu": cpu, "reference_s": reference}


def _check(passes, answers, expected_ops: int):
    """Check every operation of every pass; returns (attempted, failed, notes)."""
    attempted = failed = 0
    notes = []
    for number, result in enumerate(passes, start=1):
        if result is None:
            attempted += expected_ops
            failed += expected_ops
            notes.append(f"pass {number}: child failed, {expected_ops} operations lost")
            continue
        if not result["cold"]:
            notes.append(f"pass {number}: walsh caches warm after set-up")
        for op in result["ops"]:
            attempted += 1
            ok = result["cold"] and op["error"] is None and matches(answers.get(op["op"]), op["answer"])
            if not ok:
                failed += 1
                notes.append(f"pass {number}: {op['op']}: {op['error'] or 'answer differs from answers.json'}")
        check = result.get("self_check")
        if check is not None:
            attempted += 1
            if not check["ok"]:
                failed += 1
                notes.append(f"pass {number}: trace self-check failed: {check}")
    return attempted, failed, notes


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # the benchmark checkout need not be a git repository


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment(passes) -> dict:
    first = next((r for r in passes if r is not None), {})
    return {
        "machine": {
            "system": platform.system(),
            "release": platform.release(),
            "arch": platform.machine(),
            "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        },
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _why(workload: str):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), None)


def measure(args, answers):
    """Runs the children of one benchmark run; returns its record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    passes = []
    traced = None
    if args.trace:
        for _ in range(UNTRACED_PASSES_WITH_TRACE):
            passes.append(_run_child(args, "pass", deadline, next(cpus)))
        spans = RESULTS / f"spans-{args.workload}.tsv"
        traced = _run_child(args, "traced", deadline, next(cpus), spans)
        passes.append(traced)
    else:
        window_start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            passes.append(_run_child(args, "pass", deadline, next(cpus)))
            last = time.monotonic() - pass_start
            now = time.monotonic()
            if passes[-1] is None or now - window_start + last > args.seconds or now + last > deadline:
                break
    done = [r for r in passes if r is not None]
    ops = len(done[0]["ops"]) if done else 0
    attempted, failed, notes = _check(passes, answers, ops)
    if not done:
        attempted = max(attempted, 1)
        failed = max(failed, 1)
    untraced = [r for r in done if "layers" not in r]

    def scaled(key):
        return statistics.median(r[key] * REFERENCE_S / r["reference_s"] for r in untraced)

    metrics = {}
    if args.trace:
        if untraced and traced is not None:
            layers = dict(traced["layers"])
            layers["trace.wall_s"] = traced["wall_s"]
            at_traced_speed = scaled("wall_s") * traced["reference_s"] / REFERENCE_S
            layers["trace.overhead_s"] = traced["wall_s"] - at_traced_speed
            metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
    elif untraced:
        metrics = {
            "setup_s": {"value": scaled("setup_s"), "unit": "s"},
            "wall_s": {"value": scaled("wall_s"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced), "unit": "MB"},
        }
    ops_seen = [(op["op"], op["answer"]) for op in done[0]["ops"]] if done else []
    record = {
        "workload": args.workload,
        "why": _why(args.workload),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **_environment(passes),
        "passes": len(passes),
        "reference_scale_s": REFERENCE_S,
        "pass_cpu": [r["cpu"] for r in done],
        "pass_reference_s": [r["reference_s"] for r in done],
        "pass_setup_s": [r["setup_s"] for r in done],
        "pass_wall_s": [r["wall_s"] for r in done],
        "pass_wall_median_s": statistics.median(r["wall_s"] for r in done) if done else None,
        "pass_peak_rss_mb": [r["peak_rss_mb"] for r in done],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": notes,
        "fingerprint": fingerprint(ops_seen),
        "answers": [{"op": op, "answer": fingerprint_view(a)} for op, a in ops_seen],
        "op_fastest_s": {
            op["op"]: min(r["ops"][i]["op_s"] for r in untraced)
            for i, op in enumerate(untraced[0]["ops"])
        } if untraced else {},
        "metrics": metrics,
    }
    if args.trace and traced is not None:
        for key in ("self_check", "binding_sites", "spans"):
            record[key] = traced.get(key)
    return record


def _report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  passes {record['passes']}")
    print(f"  why          {record['why']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':30s} {record['error_rate']:.6g} ({record['failed']}/{record['attempted']} operations failed)")
    for note in record["failures"]:
        print(f"    {note}")
    if record["pass_wall_s"]:
        print(f"  unscaled medians: wall {statistics.median(record['pass_wall_s']):.4g} s, "
              f"setup {statistics.median(record['pass_setup_s']):.4g} s, "
              f"reference job {statistics.median(record['pass_reference_s']):.4g} s "
              f"(scale {record['reference_scale_s']} s)")
    if record["trace"] and "walsh.busy_s" in record["metrics"]:
        share = record["metrics"]["walsh.busy_s"]["value"] / record["metrics"]["trace.wall_s"]["value"]
        print(f"  walsh busy share of the traced pass {share:.3f}; self-check {record.get('self_check')}")
    machine = record["machine"]
    print(f"  fingerprint  {record['fingerprint']}")
    print(f"  machine      {machine['system']} {machine['release']} {machine['arch']}, "
          f"{machine['cpus_usable']}/{machine['cpus']} cpus, {machine['memory_gb']} GB; "
          f"python {record['python']}, numpy {record['numpy']}")
    print(f"  source       commit {record['git_commit']}, sha256 {record['source_sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hybridqmc" / "__init__.py").is_file():
        print(f"error: no hybridqmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    answers = json.loads((BENCH_DIR / "answers.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    try:
        record = measure(args, answers)
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    _report(record)
    print(json.dumps({
        "correct": record["failed"] == 0 and bool(record["metrics"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
