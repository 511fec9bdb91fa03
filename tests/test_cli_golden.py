"""Byte-identity gate for the CLI.

Each case runs one fast command in-process through cli.main and compares
its exit code and the sha256 of its stdout, stderr and written file with
values recorded from the CLI before the exact-coordinate refactor that
made every base-p coordinate a Fraction.  A refactor that keeps the
answers keeps these hashes; a deliberate output change must re-record
them and say why.  To print the current hashes, run this file as a
script: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from hybridqmc.cli import main

# Two point files written by `gen --output` and read back by `disc`.
FILES = {
    "hybrid2": [
        "gen", "hybrid", "--p", "2", "--px", "X^4+X+1", "--bases", "X,X+1",
        "--q", "X^3+X^2+1", "--output", "{hybrid2}",
    ],
    "hybrid3dec": [
        "gen", "hybrid", "--p", "3", "--px", "X^2+1", "--bases", "X", "--q", "X+1",
        "--format", "decimal", "--output", "{hybrid3dec}",
    ],
}

COMMANDS = {
    "gen-plattice": ["gen", "plattice", "--p", "2", "--px", "X^5+X^2+1", "--q", "X^3+X"],
    "gen-hybrid": [
        "gen", "hybrid", "--p", "2", "--px", "X^3+X+1", "--bases", "X,X+1", "--q", "X^2+1",
    ],
    "gen-hybrid-p3-decimal": [
        "gen", "hybrid", "--p", "3", "--px", "X^2+1", "--bases", "X", "--q", "X+1",
        "--format", "decimal", "--precision", "8",
    ],
    "gen-hybrid-n1": [
        "gen", "hybrid", "--p", "2", "--px", "X^3+X+1", "--bases", "X", "--q", "X^2+1",
        "--n", "1",
    ],
    "gen-halton-decimal": [
        "gen", "halton", "--p", "2", "--bases", "X,X+1", "--count", "20", "--format", "decimal",
    ],
    "gen-korobov": ["gen", "korobov", "--p", "2", "--px", "X^3+X+1", "--g", "X", "--t", "2"],
    "gen-reducible": ["gen", "plattice", "--p", "2", "--px", "X^2+1", "--q", "X"],
    "cert-p2": [
        "disc", "certificate", "--p", "2", "--px", "X^4+X+1", "--bases", "X,X+1",
        "--q", "X^3+X^2+1",
    ],
    "cert-p3": ["disc", "certificate", "--p", "3", "--px", "X^2+1", "--bases", "X", "--q", "X+1"],
    "exact-p2": ["disc", "exact", "--input", "{hybrid2}"],
    "prefix-p2": ["disc", "prefix", "--input", "{hybrid2}"],
    "exact-p3-decimal": ["disc", "exact", "--input", "{hybrid3dec}"],
    "search-exhaustive-p2": ["search", "exhaustive", "--p", "2", "--m", "5", "--bases", "X"],
    "search-korobov-t2": [
        "search", "korobov", "--p", "2", "--m", "4", "--t", "2", "--bases", "X",
    ],
    "search-exhaustive-p3": ["search", "exhaustive", "--p", "3", "--m", "3", "--bases", "X"],
    "verify-dichotomy": ["verify", "dichotomy"],
}

# name -> (exit code, sha256 of stdout, sha256 of stderr[, sha256 of the written file])
EXPECTED = {
    "hybrid2": (0, "e3b0c44298fc1c14", "e3b0c44298fc1c14", "ca43be47af297a20"),
    "hybrid3dec": (0, "e3b0c44298fc1c14", "e3b0c44298fc1c14", "03e7e4b59e524aa6"),
    "gen-plattice": (0, "f7f183ff4e625669", "e3b0c44298fc1c14"),
    "gen-hybrid": (0, "3354c422a9e719e1", "e3b0c44298fc1c14"),
    "gen-hybrid-p3-decimal": (0, "5d576283ee3ff674", "e3b0c44298fc1c14"),
    "gen-hybrid-n1": (0, "88745a699b541ca3", "e3b0c44298fc1c14"),
    "gen-halton-decimal": (0, "7f605a463a73cbb3", "e3b0c44298fc1c14"),
    "gen-korobov": (0, "97a6331e57624525", "e3b0c44298fc1c14"),
    "gen-reducible": (2, "e3b0c44298fc1c14", "a597712f5cdb908e"),
    "cert-p2": (0, "0d1d8b05727ae4f9", "e3b0c44298fc1c14"),
    "cert-p3": (0, "4f52423bc5a321c1", "e3b0c44298fc1c14"),
    "exact-p2": (0, "33bd583ccba92219", "e3b0c44298fc1c14"),
    "prefix-p2": (0, "bdcb749ee39e17da", "e3b0c44298fc1c14"),
    "exact-p3-decimal": (0, "fd50c7a3450f0c49", "e3b0c44298fc1c14"),
    "search-exhaustive-p2": (0, "6c80ccfe3ba6d440", "e3b0c44298fc1c14"),
    "search-korobov-t2": (0, "d6d3331647544d91", "e3b0c44298fc1c14"),
    "search-exhaustive-p3": (0, "81ef78124c2c713e", "e3b0c44298fc1c14"),
    "verify-dichotomy": (0, "94fbd464cfb7bfaa", "e3b0c44298fc1c14"),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()[:16]


def _run(argv, paths):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def _run_all(workdir):
    """Every file and command, in order: name -> observed tuple."""
    paths = {name: os.path.join(workdir, f"{name}.txt") for name in FILES}
    seen = {}
    for name, argv in FILES.items():
        code, out, err = _run(argv, paths)
        with open(paths[name], "rb") as fh:
            seen[name] = (code, out, err, _sha(fh.read()))
    for name, argv in COMMANDS.items():
        seen[name] = _run(argv, paths)
    return seen


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return _run_all(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", [*FILES, *COMMANDS])
def test_cli_output_matches_recorded_hashes(observed, name):
    assert observed[name] == EXPECTED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for key, value in _run_all(workdir).items():
            print(f"    {key!r}: {value!r},")
