import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hybridqmc.cli import main
from hybridqmc.discrepancy import _rescaled_columns, load_point_set


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
@pytest.mark.parametrize("token", ["1/0", "abc", "2/2", "3/2", "-1/2", "1/-2", "1"])
def test_bad_coordinate_is_a_parse_error(tmp_path, capsys, header, token):
    path = tmp_path / "pts.txt"
    path.write_text(f"{header}0/2 {token}\n")
    code, out, err = run(capsys, "disc", "exact", "--input", str(path))
    assert code == 1 and "parse error" in err and "position 4" in err and not out


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
