"""One cold pass of every benchmark workload, and one traced pass, so that
the harness breaks here when a name it reads is renamed or changes shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["search-t1", "search-t2", "oracle", "verify"])
def test_bench_workload_pass(workload):
    last = _bench("--workload", workload)
    assert last["correct"] is True and last["failed"] == 0


@pytest.mark.parametrize("workload", ["search-t1", "search-t2"])
def test_bench_traced_pass(workload):
    # a failed self-check (walsh.bound_calls != cache hits + misses, i.e. a
    # _modulus_bound call that bypassed the traced binding sites) counts as
    # a failed operation
    last = _bench("--workload", workload, "--trace", "1")
    assert last["correct"] is True and last["failed"] == 0
    assert last["metrics"]["walsh.bound_calls"]["value"] > 0
    assert last["metrics"]["walsh.residue_tables"]["value"] == 0


_COLD_CHECK = """
import json, sys, tempfile
sys.path.insert(0, "bench")
import workloads
with tempfile.TemporaryDirectory() as workdir:
    for workload in ("search-t1", "search-t2", "oracle", "verify"):
        workloads.plan(workload, 0, workdir)
sizes = {
    f"{module.__name__}.{name}": value.cache_info().currsize
    for module_name, module in sorted(sys.modules.items())
    if module_name == "hybridqmc" or module_name.startswith("hybridqmc.")
    for name, value in vars(module).items()
    if hasattr(value, "cache_info") and value.__module__ == module.__name__
}
print(json.dumps(sizes))
"""

# set-up warms these by design: primality of the workloads' primes, and the
# irreducibility of the moduli it builds lattice configurations on
_WARMED_BY_SETUP = {"hybridqmc.gfpoly._is_prime", "hybridqmc.plattice._irreducible_modulus"}


def test_workload_setup_leaves_caches_cold():
    # building every workload's inputs must not warm a cache that the timed
    # passes use; every lru_cache defined in a hybridqmc module is checked
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_CHECK],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    sizes = json.loads(proc.stdout)
    assert {
        "hybridqmc.walsh._modulus_bound",
        "hybridqmc.walsh._unit_group",
        "hybridqmc.walsh._rank_profile",
        "hybridqmc.walsh._combined_residues",
        "hybridqmc.discrepancy._shape_table",
        "hybridqmc.seqgen._crt_coefficient",
        "hybridqmc.seqgen._crt_pair",
        "hybridqmc.seqgen._digit_classes",
        *_WARMED_BY_SETUP,
    } <= set(sizes)
    cold = {name: size for name, size in sizes.items() if name not in _WARMED_BY_SETUP}
    assert cold == dict.fromkeys(cold, 0)
