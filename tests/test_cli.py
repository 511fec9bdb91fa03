import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridqmc.cli import main
from hybridqmc.discrepancy import (
    PointSetD,
    _rescaled_columns,
    load_point_set,
    star_discrepancy_1d,
    star_discrepancy_exact,
)
from hybridqmc.gfpoly import poly_parse
from hybridqmc.seqgen import HaltonConfig, halton_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_plattice_example(capsys):
    code, out, _ = run(capsys, "gen", "plattice", "--p", "2", "--px", "X^2+X+1", "--q", "X")
    assert code == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert body == ["0/4", "3/4", "2/4", "1/4"]


def test_gen_hybrid_single_point(capsys):
    code, out, _ = run(
        capsys,
        "gen", "hybrid", "--p", "2", "--px", "X^2+X+1", "--bases", "X", "--q", "X",
        "--n", "1",
    )
    assert code == 0
    assert out.strip() == "1/4 1/2 3/4"


def test_gen_halton_single_zero_line(capsys):
    code, out, _ = run(capsys, "gen", "halton", "--p", "2", "--bases", "X,X+1", "--count", "1")
    assert code == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(body) == 1
    assert all(tok.startswith("0/") for tok in body[0].split())


def test_gen_korobov(capsys):
    code, out, _ = run(
        capsys, "gen", "korobov", "--p", "2", "--px", "X^2+X+1", "--g", "X", "--t", "2"
    )
    assert code == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(body) == 4 and len(body[0].split()) == 2


def test_disc_exact_examples(tmp_path, capsys):
    target = tmp_path / "pts.txt"
    code, _, _ = run(
        capsys,
        "gen", "plattice", "--p", "2", "--px", "X^2+X+1", "--q", "X",
        "--output", str(target),
    )
    assert code == 0
    code, out, _ = run(capsys, "disc", "exact", "--input", str(target))
    assert code == 0
    assert out.startswith("1/4 ")
    single = tmp_path / "zero.txt"
    single.write_text("# p=2\n# dim=1\n# count=1\n0/1\n")
    code, out, _ = run(capsys, "disc", "exact", "--input", str(single))
    assert code == 0
    assert out.startswith("1 ")


def test_disc_certificate(capsys):
    code, out, _ = run(
        capsys,
        "disc", "certificate", "--p", "2", "--px", "X^2+X+1", "--q", "X",
    )
    assert code == 0
    assert "total=4" in out


def test_search_report(capsys):
    code, out, _ = run(capsys, "search", "exhaustive", "--p", "2", "--m", "2", "--t", "1")
    assert code == 0
    report = json.loads(out)
    assert report["candidateCount"] == 3
    assert report["best"]["candidate"] == ["X"]
    assert report["existenceOk"] is True


def test_search_korobov_singleton(capsys):
    code, out, _ = run(capsys, "search", "korobov", "--p", "2", "--m", "1", "--t", "2")
    assert code == 0
    assert json.loads(out)["candidateCount"] == 1


def test_search_top_below_zero_is_a_usage_error(capsys):
    argv = ("search", "exhaustive", "--p", "2", "--m", "3", "--t", "1")
    code, out, err = run(capsys, *argv, "--top", "-1")
    assert code == 1 and "usage error" in err and not out
    code, out, _ = run(capsys, *argv, "--top", "0")
    report = json.loads(out)
    assert code == 0 and report["candidateCount"] == 7 and report["table"] == []


def test_exit_codes(tmp_path, capsys):
    # usage: unknown suite
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 1 and "unknown suite" in err
    # parse error in polynomial text
    code, _, err = run(capsys, "gen", "plattice", "--p", "2", "--px", "X^2+3", "--q", "X")
    assert code == 1 and "parse error" in err
    # math precondition: reducible modulus
    code, _, err = run(capsys, "gen", "plattice", "--p", "2", "--px", "X^2+1", "--q", "X")
    assert code == 2 and "irreducible" in err
    # zero generator
    code, _, err = run(capsys, "gen", "plattice", "--p", "2", "--px", "X^2+X+1", "--q", "0")
    assert code == 2
    # budget
    code, _, err = run(
        capsys, "search", "exhaustive", "--p", "2", "--m", "3", "--t", "2",
        "--budget", "5",
    )
    assert code == 3 and "budget" in err


def test_no_partial_output_on_error(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, _, _ = run(
        capsys,
        "gen", "plattice", "--p", "2", "--px", "X^2+1", "--q", "X",
        "--output", str(target),
    )
    assert code == 2
    assert not target.exists()


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "valcount")
    assert code == 0
    assert "pass" in out


def test_byte_identical_across_runs_and_workers(tmp_path, capsys):
    outputs = []
    for workers in ("1", "4", "1"):
        target = tmp_path / f"run_{len(outputs)}.json"
        code, _, _ = run(
            capsys,
            "search", "exhaustive", "--p", "2", "--m", "3", "--t", "1",
            "--workers", workers, "--output", str(target),
        )
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def _disc_exact_with_header(tmp_path, capsys, header):
    path = tmp_path / "pts.txt"
    path.write_text(f"# {header}\n# dim=1\n# count=2\n0/2\n1/2\n")
    return run(capsys, "disc", "exact", "--input", str(path))


def test_header_p_one_is_a_parse_error(tmp_path, capsys):
    code, out, err = _disc_exact_with_header(tmp_path, capsys, "p=1")
    assert code == 1 and "parse error" in err and not out


def test_header_p_zero_is_a_parse_error(tmp_path, capsys):
    code, out, err = _disc_exact_with_header(tmp_path, capsys, "p=0")
    assert code == 1 and "parse error" in err and not out


def test_header_p_composite_is_a_parse_error(tmp_path, capsys):
    code, out, err = _disc_exact_with_header(tmp_path, capsys, "p=4")
    assert code == 1 and "parse error" in err and not out


@pytest.mark.parametrize(
    "header, named",
    [
        ("# p=2\n# dim=3\n# count=5\n", "dim=3"),
        ("# count=5\n", "count=5"),
        ("# dim=1\n# count=2\n", "dim=1"),
        ("# count=-1\n", "count=-1"),
        ("# count=0\n", "count=0"),
        ("# dim=0\n", "dim=0"),
        ("0/2 1/2\n# count=4\n", "count=4"),  # a header after rows
    ],
)
def test_headers_that_disagree_with_the_rows_are_parse_errors(tmp_path, capsys, header, named):
    path = tmp_path / "pts.txt"
    path.write_text(f"{header}1/2 1/4\n1/4 3/4\n")
    code, out, err = run(capsys, "disc", "exact", "--input", str(path))
    assert code == 1 and not out and err.startswith("parse error") and named in err


@pytest.mark.parametrize(
    "text",
    [
        "# p=2\n# m=-4\n1/2 1/4\n",  # read as 7/8 before m was checked
        "# m=0\n1/2 1/4\n",  # without a p header too
        "# p=2\n# m=1\n0/2\n1/2\n1/4\n",  # 3 rows, more than 2^1: read as 5/12 before
        "# p=3\n# m=2\n" + "0/3\n" * 10,
    ],
)
def test_m_header_below_one_or_too_small_for_the_rows_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "pts.txt"
    path.write_text(text)
    code, out, err = run(capsys, "disc", "exact", "--input", str(path))
    assert code == 1 and not out and err.startswith("parse error")
    assert "m=" in err and "(at position 4)" in err


@pytest.mark.parametrize(
    "text",
    [
        "# p=2\n# m=1\n0/2\n1/2\n",  # p^m rows
        "# p=3\n# m=2\n" + "0/3\n" * 9,
        "# p=2\n# m=3\n0.5\n0.1\n",  # the m header does not fix the denominators
        "# p=3\n# m=1000000000000\n0/3\n1/3\n",  # p^m is never formed
        "# m=2\n" + "0/4\n" * 9,  # without a p header, m bounds nothing
    ],
)
def test_m_header_that_fits_the_rows_is_read(tmp_path, capsys, text):
    path = tmp_path / "pts.txt"
    path.write_text(text)
    code, out, err = run(capsys, "disc", "exact", "--input", str(path))
    assert code == 0 and out and not err


@pytest.mark.parametrize(
    "argv",
    [
        ("plattice", "--px", "X^3+X+1", "--q", "X"),
        ("korobov", "--px", "X^3+X+1", "--g", "X+1", "--t", "2", "--count", "5"),
        ("halton", "--bases", "X,X+1", "--count", "3"),
        ("hybrid", "--px", "X^3+X+1", "--bases", "X", "--q", "X+1"),
        ("hybrid", "--px", "X^3+X+1", "--bases", "X", "--q", "X+1", "--n", "5"),
    ],
)
def test_files_written_by_gen_load_with_their_headers(tmp_path, capsys, argv):
    target = tmp_path / "pts.txt"
    assert run(capsys, "gen", *argv, "--p", "2", "--output", str(target))[0] == 0
    points, meta = load_point_set(target)
    assert meta.get("dim", points.dim) == points.dim and meta.get("count", points.n) == points.n
    assert ("count" in meta) == ("--n" not in argv)
    assert run(capsys, "disc", "exact", "--input", str(target))[0] == 0


@pytest.mark.parametrize("value", ["abc", "0", "-5", ""])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("HYBRIDQMC_ORACLE_BUDGET", ("disc", "exact", "--input", "pts.txt")),
        ("HYBRIDQMC_ORACLE_BUDGET", ("disc", "prefix", "--input", "pts.txt")),
        ("HYBRIDQMC_SEARCH_BUDGET", ("search", "exhaustive", "--p", "2", "--m", "3")),
        ("HYBRIDQMC_SEARCH_BUDGET", ("search", "korobov", "--p", "2", "--m", "3")),
        ("HYBRIDQMC_ORACLE_BUDGET", ("verify", "walshbound")),
        ("HYBRIDQMC_SEARCH_BUDGET", ("verify", "walshbound")),
    ],
)
def test_budget_settings_below_one_are_usage_errors(tmp_path, monkeypatch, capsys, name, argv, value):
    # the environment overrides follow the --budget rule: exit 1, naming the variable
    (tmp_path / "pts.txt").write_text("0/4 1/4\n2/4 3/4\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and err.startswith("usage error") and name in err


def test_budget_settings_of_one_or_more_are_read(tmp_path, monkeypatch, capsys):
    (tmp_path / "pts.txt").write_text("0/4 1/4\n2/4 3/4\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HYBRIDQMC_ORACLE_BUDGET", "9")  # 3 x 3 corners
    assert run(capsys, "disc", "exact", "--input", "pts.txt")[:2] == (0, "5/8 (= 0.625)\n")
    monkeypatch.setenv("HYBRIDQMC_ORACLE_BUDGET", "8")
    assert run(capsys, "disc", "exact", "--input", "pts.txt")[0] == 3
    monkeypatch.setenv("HYBRIDQMC_SEARCH_BUDGET", "7")  # korobov, p = 2, m = 3: 7 candidates
    assert run(capsys, "search", "korobov", "--p", "2", "--m", "3")[0] == 0
    monkeypatch.setenv("HYBRIDQMC_SEARCH_BUDGET", "6")
    assert run(capsys, "search", "korobov", "--p", "2", "--m", "3")[0] == 3


def test_search_korobov_budget(capsys):
    code, out, err = run(
        capsys, "search", "korobov", "--p", "2", "--m", "6", "--budget", "10"
    )
    assert code == 3 and "budget" in err and not out


def test_output_leaves_foreign_tmp_file_alone(tmp_path, capsys):
    target = tmp_path / "pts.txt"
    other = tmp_path / "pts.txt.tmp"
    other.write_text("another run's file\n")
    code, _, _ = run(
        capsys,
        "gen", "plattice", "--p", "2", "--px", "X^2+X+1", "--q", "X",
        "--output", str(target),
    )
    assert code == 0
    assert target.read_text().splitlines()[-1] == "1/4"
    assert other.read_text() == "another run's file\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["pts.txt", "pts.txt.tmp"]


@pytest.mark.parametrize("header", ["# p=2\n", ""], ids=["p=2", "no-header"])
@pytest.mark.parametrize(
    "token",
    [
        "1/0", "abc", "2/2", "3/2", "-1/2", "1/-2", "1", "-0", "+0.5", "1e-5", ".5", "0.",
        # int() reads these, but a rational token is digits/digits
        "1_0/32", "+1/2", "-0/2", "1/+2", "1/2_0",
    ],
)
def test_bad_coordinate_is_a_parse_error(tmp_path, capsys, header, token):
    path = tmp_path / "pts.txt"
    path.write_text(f"{header}0/2 {token}\n")
    code, out, err = run(capsys, "disc", "exact", "--input", str(path))
    assert code == 1 and "parse error" in err and "position 4" in err and not out


P31_SQUARED = str((2**31 - 1) ** 2)  # composite, with no factor below 2^31 - 1


@pytest.mark.parametrize(
    "argv, text, code, seconds",
    [
        (("disc", "exact"), b"1e-99999999 1/2\n", 1, 1),
        (("disc", "exact"), b"0/2 \xef/2\n", 1, 1),
        (("disc", "exact"), f"# p={P31_SQUARED}\n0/2 1/2\n".encode(), 1, 0.1),
        (("search", "exhaustive", "--p", P31_SQUARED, "--m", "1"), None, 2, 0.1),
        (("search", "exhaustive", "--p", "2", "--m", "1000000"), None, 3, 1),
        (("search", "korobov", "--p", "3", "--m", "1000000"), None, 3, 1),
        (("search", "exhaustive", "--p", "2", "--m", "2", "--t", "10000000"), None, 3, 1),
    ],
    ids=["exponent-token", "non-ascii", "p-header", "p-option", "m-exhaustive", "m-korobov", "t"],
)
def test_hostile_inputs_end_in_bounded_time(tmp_path, capsys, argv, text, code, seconds):
    if text is not None:
        path = tmp_path / "pts.txt"
        path.write_bytes(text)
        argv = (*argv, "--input", str(path))
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert got == code and not out and err.count("\n") == 1


@pytest.mark.parametrize("header", ["# p=2\n", ""], ids=["p=2", "no-header"])
def test_rows_of_unequal_length_are_a_precondition_error(tmp_path, capsys, header):
    path = tmp_path / "pts.txt"
    path.write_text(f"{header}0/2 1/2\n1/2\n")
    code, out, err = run(capsys, "disc", "exact", "--input", str(path))
    assert (code, out, err) == (2, "", "error: dimension mismatch\n")


@pytest.mark.parametrize("command", ["gen", "disc", "search"])
def test_workers_help_says_it_has_no_effect(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "accepted for compatibility; has no effect" in capsys.readouterr().out


GF256 = ("gen", "plattice", "--p", "2", "--px", "X^8+X^4+X^3+X+1", "--q", "X^7+1")
HYBRID_9 = ("gen", "hybrid", "--p", "3", "--px", "X^2+1", "--bases", "X", "--q", "X+1")


def test_decimal_file_reads_back(tmp_path, capsys):
    # 0.99609375 rounds to 1.00 at two digits; the token must stay below 1
    target = tmp_path / "pts.txt"
    code, _, _ = run(
        capsys, *GF256, "--format", "decimal", "--precision", "2", "--output", str(target)
    )
    assert code == 0
    assert "0.99" in target.read_text().split()
    code, _, err = run(capsys, "disc", "exact", "--input", str(target))
    assert code == 0 and not err
    for precision in ("0", "-3"):
        code, out, err = run(capsys, *GF256, "--format", "decimal", "--precision", precision)
        assert code == 1 and "usage error" in err and not out


@pytest.mark.parametrize("count", ["0", "-5"])
def test_gen_halton_count_below_one_fails(tmp_path, capsys, count):
    target = tmp_path / "pts.txt"
    code, out, err = run(
        capsys, "gen", "halton", "--p", "2", "--bases", "X", "--count", count,
        "--output", str(target),
    )
    assert code == 2 and "count" in err and not out
    assert not target.exists()


def test_disc_multi_dimensional_oracle(tmp_path, capsys):
    # the criterion-12 set: 8 points in 3 dimensions
    target = tmp_path / "pts.txt"
    code, _, _ = run(
        capsys,
        "gen", "hybrid", "--p", "2", "--px", "X^3+X+1", "--bases", "X", "--q", "X^2",
        "--output", str(target),
    )
    assert code == 0
    code, out, _ = run(capsys, "disc", "exact", "--input", str(target))
    assert code == 0 and out == "49/128 (= 0.3828125)\n"
    code, out, _ = run(capsys, "disc", "prefix", "--input", str(target))
    assert code == 0 and out == "109/32 (= 3.40625)\n"
    for mode in ("exact", "prefix"):
        code, out, err = run(capsys, "disc", mode, "--input", str(target), "--budget", "10")
        assert code == 3 and "budget" in err and not out


def test_disc_prefix_budget_counts_tail_cells_times_points(tmp_path, capsys):
    target = tmp_path / "pts.txt"
    run(
        capsys,
        "gen", "hybrid", "--p", "2", "--px", "X^3+X+1", "--bases", "X", "--q", "X^2",
        "--output", str(target),
    )
    points, _ = load_point_set(target)
    _, _, cands = _rescaled_columns(points.project([1, 2]))
    work = len(cands[0]) * len(cands[1]) * points.n
    code, out, _ = run(capsys, "disc", "prefix", "--input", str(target), "--budget", str(work))
    assert code == 0 and out == "109/32 (= 3.40625)\n"
    code, out, err = run(
        capsys, "disc", "prefix", "--input", str(target), "--budget", str(work - 1)
    )
    assert code == 3 and "budget" in err and not out


@pytest.mark.parametrize("bases", ["0", "X,0", "1"])
def test_bad_halton_base_is_a_precondition_error(capsys, bases):
    # a zero base has no degree to build a sigma from; it fails like the
    # constant base 1, before any sigma is built
    commands = (
        ("gen", "halton", "--p", "2", "--bases", bases, "--count", "4"),
        ("gen", "hybrid", "--p", "2", "--px", "X^3+X+1", "--bases", bases, "--q", "X"),
        ("disc", "certificate", "--p", "2", "--px", "X^3+X+1", "--bases", bases, "--q", "X"),
        ("search", "exhaustive", "--p", "2", "--m", "3", "--bases", bases),
    )
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2 and "bases must be monic and nonconstant" in err and not out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("halton", "--bases", "X", "--count", "0"), "count must be >= 1"),
        (("plattice", "--px", "X^4+X+1", "--q", "X", "--count", "17"), "count outside [1, 16]"),
        (("korobov", "--px", "X^4+X+1", "--g", "X", "--t", "2", "--count", "0"), "count outside [1, 16]"),
        (("hybrid", "--px", "X^4+X+1", "--bases", "X+1", "--q", "X", "--count", "17"), "count outside [1, 16]"),
    ],
)
def test_gen_count_errors_write_nothing(tmp_path, capsys, argv, message):
    # every gen kind checks its count on one path, before any point is built
    target = tmp_path / "pts.txt"
    code, out, err = run(capsys, "gen", *argv, "--p", "2", "--output", str(target))
    assert code == 2 and out == "" and err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search", "exhaustive", "--p", "2", "--m", "3", "--t", "-1"), "t must be >= 1"),
        (("search", "korobov", "--p", "2", "--m", "0"), "m must be >= 1"),
        (("search", "exhaustive", "--p", "2", "--m", "-2"), "m must be >= 1"),
        (("gen", "korobov", "--p", "2", "--px", "X^2+X+1", "--g", "X", "--t", "0"), "t must be >= 1"),
        (("gen", "korobov", "--p", "2", "--px", "X^2+X+1", "--g", "X", "--t", "-1"), "t must be >= 1"),
        (("disc", "certificate", "--p", "2", "--px", "X^2+X+1", "--g", "X", "--t", "0"), "t must be >= 1"),
        (("search", "exhaustive", "--p", "2", "--m", "3", "--budget", "-1"), "budget must be >= 1"),
        (("search", "korobov", "--p", "2", "--m", "3", "--budget", "0"), "budget must be >= 1"),
        (("disc", "exact", "--input", "points.txt", "--budget", "0"), "budget must be >= 1"),
        (("disc", "prefix", "--input", "points.txt", "--budget", "-1"), "budget must be >= 1"),
        ((*HYBRID_9, "--format", "decimal", "--precision", "4301"), "precision must be <= 4300"),
    ],
)
def test_m_and_t_below_one_are_usage_errors(tmp_path, capsys, argv, message):
    # parsed like --top and --precision: exit 1 before any work, nothing written
    output = ("--output", str(tmp_path / "out.txt")) if argv[0] != "disc" else ()
    code, out, err = run(capsys, *argv, *output)
    assert code == 1 and out == "" and err.startswith("usage error") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (
            ("gen", "plattice", "--p", "2", "--px", "X^64+X^4+X^3+X+1", "--q", "X", "--count", "1"),
            0,
            "# p=2\n# m=64\n# dim=1\n# count=1\n0/18446744073709551616\n",
        ),
        (("search", "exhaustive", "--p", "2", "--m", "40"), 3, ""),
    ],
)
def test_high_degree_modulus_in_bounded_time(argv, code, out):
    # the irreducibility test of a modulus costs polynomial time in its
    # degree; trial division needs up to 2^32 divisors here
    proc = subprocess.run(
        [sys.executable, "-m", "hybridqmc.cli", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


def test_base_sharing_a_factor_with_the_modulus_is_a_precondition_error(capsys):
    # the shape table checks every base against pX once per search
    commands = (
        ("disc", "certificate", "--p", "2", "--px", "X^3+X+1", "--bases", "X,X^3+X+1", "--q", "X"),
        ("search", "exhaustive", "--p", "2", "--m", "3", "--px", "X^3+X+1", "--bases", "X^3+X+1"),
        ("search", "korobov", "--p", "3", "--m", "2", "--t", "2", "--px", "X^2+1", "--bases", "X^2+1"),
    )
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: Halton base shares a factor with the lattice modulus\n"


@pytest.mark.parametrize(
    "px",
    ["X^²+X+1", "[1,1,²]", "²X^2+X+1", "1" * 5001 + "X^2+X+1", "[1,1," + "1" * 5001 + "]"],
    ids=["superscript-exponent", "superscript-list", "superscript-coefficient", "long-term", "long-list"],
)
def test_non_ascii_digits_and_long_coefficients_are_parse_errors(capsys, px):
    # a coefficient is read from ASCII digits only, and one too long to be
    # below p is rejected before int() converts it
    code, out, err = run(capsys, "search", "korobov", "--p", "2", "--m", "2", "--px", px)
    assert code == 1 and not out
    assert err.startswith("parse error:") and err.count("\n") == 1 and "Traceback" not in err


def test_a_coefficient_with_leading_zeros_is_read_by_value(capsys):
    code, out, _ = run(capsys, "search", "korobov", "--p", "2", "--m", "2", "--px", "[" + "0" * 5000 + "1,1,1]")
    assert code == 0 and out == run(capsys, "search", "korobov", "--p", "2", "--m", "2")[1]


@pytest.mark.parametrize("precision", ["1500", "4300"])
def test_exact_answers_of_any_size_are_printed(tmp_path, capsys, precision):
    # at 1,500 digits D* has a numerator of 14,949 bits, past the 4,300
    # digits str(int) prints; 4,300 is the largest precision gen accepts
    target = tmp_path / "pts.txt"
    argv = (*HYBRID_9, "--format", "decimal", "--precision", precision, "--output", str(target))
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, "disc", "exact", "--input", str(target))
    assert code == 0 and not err
    exact, _, approx = out.partition(" ")
    num, _, den = exact.partition("/")
    assert num.isdigit() and den.isdigit()
    expected = star_discrepancy_exact(load_point_set(target)[0])
    # Decimal reads any number of digits, int() at most 4,300
    assert Fraction(Decimal(num)) / Fraction(Decimal(den)) == expected
    assert approx == f"(= {float(expected):.12g})\n" == "(= 0.351165980796)\n"


def _text_levels(out):
    """The level and shape lines of disc certificate, as tuples of fields."""
    return [tuple(field.split("=")[1] for field in line.split()) for line in out.splitlines()[2:]]


def _json_levels(per_level):
    rows = []
    for level in per_level:
        rows.append((str(level["u"]), f"{level['value']:.12g}", str(len(level["shapes"]))))
        rows.extend(
            (
                ",".join(map(str, shape["exponents"])) or "-",
                str(shape["degB"]),
                str(shape["d"]),
                str(shape["multiplicityBound"]),
                f"{shape['classBound']:.12g}",
            )
            for shape in level["shapes"]
        )
    return rows


@pytest.mark.parametrize(
    "search, generators",
    [
        (("exhaustive", "--p", "2", "--m", "4", "--bases", "X"), lambda c: ("--q", ",".join(c))),
        (("exhaustive", "--p", "3", "--m", "2", "--bases", "X"), lambda c: ("--q", ",".join(c))),
        (("korobov", "--p", "2", "--m", "3", "--t", "2"), lambda c: ("--g", c[0], "--t", "2")),
        (("korobov", "--p", "3", "--m", "2", "--t", "2", "--bases", "X+1"), lambda c: ("--g", c[0], "--t", "2")),
    ],
    ids=["exhaustive-t1-p2", "exhaustive-t1-p3", "korobov-t2-p2", "korobov-t2-p3"],
)
def test_certificate_text_matches_search_per_level(capsys, search, generators):
    # the best candidate's breakdown in the search JSON and the text of disc
    # certificate for the same configuration agree line for line
    code, out, _ = run(capsys, "search", *search, "--top", "1")
    assert code == 0
    report = json.loads(out)
    bases = ",".join(report["bases"])
    argv = ("disc", "certificate", "--p", str(report["p"]), "--px", report["pX"], "--bases", bases)
    code, text, _ = run(capsys, *argv, *generators(report["best"]["candidate"]))
    assert code == 0
    head = text.splitlines()[:2]
    assert head == [
        f"p={report['p']} m={report['m']} s={report['s']} t={report['t']}",
        f"total={report['best']['merit']:.12g}",
    ]
    levels = _text_levels(text)
    assert len(levels) > report["m"] + 1
    assert levels == _json_levels(report["perLevel"])


@pytest.mark.parametrize(
    "argv",
    [
        ("disc", "certificate", "--p", "2", "--px", "X^3+X+1", "--q", "X", "--budget", "5"),
        ("gen", "halton", "--p", "2", "--bases", "X", "--n", "1", "--count", "3"),
        ("gen", "plattice", "--p", "2", "--px", "X^3+X+1", "--q", "X", "--count", "3", "--n", "1"),
    ],
)
def test_flags_that_would_be_ignored_are_usage_errors(capsys, argv):
    # certificates take no budget, and --n writes one point, so --count cannot apply
    code, out, err = run(capsys, *argv)
    flag = "--budget" if "--budget" in argv else "--count"
    assert code == 1 and out == "" and flag in err


_GEN_N_CASES = {  # p: (modulus, m)
    2: ("X^3+X+1", 3),
    3: ("X^2+1", 2),
    5: ("X^2+2", 2),
}
_GEN_N_KINDS = {
    "halton": ("--bases", "X,X+1"),
    "plattice": ("--q", "X,X+1"),
    "korobov": ("--g", "X+1", "--t", "2"),
    "hybrid": ("--bases", "X+1", "--q", "X"),
}


@pytest.mark.parametrize("fmt", ["rational", "decimal"])
@pytest.mark.parametrize("p", sorted(_GEN_N_CASES))
@pytest.mark.parametrize("kind", sorted(_GEN_N_KINDS))
def test_gen_n_prints_the_line_of_the_count_file(capsys, kind, p, fmt):
    px, m = _GEN_N_CASES[p]
    argv = ["gen", kind, "--p", str(p), *_GEN_N_KINDS[kind], "--format", fmt]
    if kind != "halton":
        argv += ["--px", px]
    code, out, _ = run(capsys, *argv, "--count", str(p**m))
    body = [line + "\n" for line in out.splitlines() if not line.startswith("#")]
    assert code == 0 and len(body) == p**m
    for n in sorted({0, 1, p**m - 1, random.Random(p).randrange(p**m)}):
        assert run(capsys, *argv, "--n", str(n)) == (0, body[n], "")


def test_gen_n_far_into_the_halton_sequence(capsys):
    cfg = HaltonConfig.make(2, (poly_parse("X", 2), poly_parse("X^2+X+1", 2)))
    argv = ("gen", "halton", "--p", "2", "--bases", "X,X^2+X+1", "--n", "1000003")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == " ".join(c.token() for c in halton_point(1000003, cfg)) + "\n"


@st.composite
def _one_d_files(draw):
    """(file text, coordinates): a 1-D point file with repeated values, in
    the rational or the decimal format."""
    if draw(st.booleans(), label="decimal"):
        digits = draw(st.integers(1, 4), label="digits")
        pool = draw(st.lists(st.integers(0, 10**digits - 1), min_size=1, max_size=6), label="pool")
        nums = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12), label="values")
        return "".join(f"0.{v:0{digits}d}\n" for v in nums), [Fraction(v, 10**digits) for v in nums]
    fraction = st.integers(1, 12).flatmap(lambda d: st.tuples(st.integers(0, d - 1), st.just(d)))
    pool = draw(st.lists(fraction, min_size=1, max_size=6), label="pool")
    pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12), label="values")
    return "".join(f"{a}/{d}\n" for a, d in pairs), [Fraction(a, d) for a, d in pairs]


@settings(max_examples=100, deadline=None)
@given(case=_one_d_files())
def test_disc_exact_on_a_1d_file_is_the_sorted_formula(tmp_path_factory, case):
    # the CLI runs the corner-grid sweep at every dimension: on 1-D files it
    # prints the sorted-order formula's value, within a budget of the distinct
    # values plus 1 cells, and stops with exit 3 below it
    text, values = case
    path = tmp_path_factory.mktemp("one-d") / "pts.txt"
    path.write_text(text)
    value = star_discrepancy_1d(PointSetD([(v,) for v in values]))
    exact = str(value.numerator) if value.denominator == 1 else str(value)
    cells = len(set(values)) + 1
    for budget, want in ((cells, (0, f"{exact} (= {float(value):.12g})\n")), (cells - 1, (3, ""))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["disc", "exact", "--input", str(path), "--budget", str(budget)])
        assert (code, out.getvalue()) == want
