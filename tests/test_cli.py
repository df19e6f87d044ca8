"""CLI subcommands, exit codes, and report reproducibility."""

import json
import re
import sys

import numpy as np
import pytest

from phasealg import AngleMatrix, DenseMatrix, SingularMatrixError, identity, read_matrix, write_matrix
from phasealg.bench import BENCH_CSV_HEADER
from phasealg.cli import entrypoint, main
from phasealg.core import DeterminantRangeError
from phasealg.matio import MatrixFormatError


def run_cli(*argv):
    return main(list(argv))


def write_identity_pair(tmp_path, n=2):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, identity(n))
    write_matrix(t_path, AngleMatrix(theta=np.zeros(n), phi=np.zeros(n)))
    return str(a_path), str(t_path)


def test_gen_dense_and_angle(tmp_path):
    dense_path = tmp_path / "a.json"
    angle_path = tmp_path / "t.json"
    assert run_cli("gen", "--rows", "3", "--cols", "2", "--seed", "9", "--out", str(dense_path)) == 0
    assert run_cli("gen", "--rows", "3", "--cols", "2", "--seed", "9", "--angle", "--out", str(angle_path)) == 0
    dense = read_matrix(dense_path)
    assert isinstance(dense, DenseMatrix) and dense.shape == (3, 2)
    angle = read_matrix(angle_path)
    assert isinstance(angle, AngleMatrix) and angle.shape == (3, 2)
    assert (angle.theta >= 0).all() and (angle.theta < 2 * np.pi).all()


def test_gen_is_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    run_cli("gen", "--rows", "4", "--cols", "4", "--seed", "123", "--out", str(first))
    run_cli("gen", "--rows", "4", "--cols", "4", "--seed", "123", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_det_identity_zero_phases(tmp_path, capsys):
    a_path, t_path = write_identity_pair(tmp_path)
    assert run_cli("det", "--matrix", a_path, "--angle", t_path) == 0
    out = capsys.readouterr().out
    assert "structured: 1+0j" in out
    assert "oracle: 1+0j" in out
    assert "difference: 0.0" in out


def test_inv_writes_result_and_oracle(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, DenseMatrix([[1, 1], [0, 1]]))
    write_matrix(t_path, AngleMatrix(theta=[0.0, np.pi], phi=[0.0, np.pi / 2]))
    out_path = tmp_path / "x.json"
    assert run_cli("inv", "--matrix", str(a_path), "--angle", str(t_path),
                   "--out", str(out_path), "--oracle") == 0
    x = read_matrix(out_path)
    assert np.allclose(x.array, [[1, 1], [0, 1j]], rtol=0, atol=1e-15)
    oracle = read_matrix(str(out_path) + ".oracle")
    assert np.allclose(oracle.array, x.array, rtol=0, atol=1e-12)
    printed = capsys.readouterr().out
    assert "oracle_diff_frobenius" in printed


def test_inv_and_pinv_output_is_pinned(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, DenseMatrix([[2, 1j], [0, 1]]))
    write_matrix(t_path, AngleMatrix(theta=[0.3, -1.0], phi=[2.0, 0.5]))
    out = str(tmp_path / "x.json")
    value = r"(-?\d+(\.\d+)?(e[-+]\d+)?)"
    expected = {
        "inv": ["left_identity_residual", "right_identity_residual", "oracle_diff_frobenius"],
        "pinv": ["penrose_worst_residual", "oracle_diff_frobenius"],
    }
    for command, names in expected.items():
        assert run_cli(command, "--matrix", str(a_path), "--angle", str(t_path), "--out", out, "--oracle") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"wrote {out}", f"wrote {out}.oracle"]
        assert [line.split(": ")[0] for line in lines[2:]] == names
        for line in lines[2:]:
            number = line.split(": ")[1]
            assert re.fullmatch(value, number) and repr(float(number)) == number
        assert run_cli(command, "--matrix", str(a_path), "--angle", str(t_path), "--out", out) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
    # --matrix is read and checked before --angle is opened
    assert run_cli("inv", "--matrix", str(t_path), "--angle", str(tmp_path / "absent.json"), "--out", out) == 2
    assert capsys.readouterr().err == f"error: {t_path}: expected a dense matrix file (kind 'dense')\n"


def test_inv_singular_input_exits_3(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, DenseMatrix([[1, 2], [2, 4]]))
    write_matrix(t_path, AngleMatrix(theta=np.zeros(2), phi=np.zeros(2)))
    assert run_cli("inv", "--matrix", str(a_path), "--angle", str(t_path),
                   "--out", str(tmp_path / "x.json")) == 3
    assert "singular" in capsys.readouterr().err


def test_pinv_rectangular(tmp_path):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, DenseMatrix([[1.0], [1.0]]))
    write_matrix(t_path, AngleMatrix(theta=[0.0, np.pi / 2], phi=[0.0]))
    out_path = tmp_path / "x.json"
    assert run_cli("pinv", "--matrix", str(a_path), "--angle", str(t_path),
                   "--out", str(out_path), "--oracle") == 0
    x = read_matrix(out_path)
    assert np.allclose(x.array, [[0.5, -0.5j]], rtol=0, atol=1e-15)


def test_failing_oracle_writes_no_output(tmp_path, monkeypatch, capsys):
    def singular(_):
        raise SingularMatrixError("matrix is singular to working precision: oracle", pivot=0.0)

    monkeypatch.setattr("phasealg.cli.inverse_lu", singular)
    monkeypatch.setattr("phasealg.cli.pinv_full_rank", singular)
    a_path, t_path = write_identity_pair(tmp_path)
    for command in ("inv", "pinv"):
        out_path = tmp_path / f"{command}.json"
        assert run_cli(command, "--matrix", a_path, "--angle", t_path, "--out", str(out_path), "--oracle") == 3
        assert "singular" in capsys.readouterr().err
        assert not out_path.exists()
        assert not (tmp_path / f"{command}.json.oracle").exists()


def test_oracles_with_overflowing_phase_sum_exit_0(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, DenseMatrix([[2.0]]))
    write_matrix(t_path, AngleMatrix(theta=[1e308], phi=[1e308]))
    out_path = str(tmp_path / "x.json")
    for command in (("det",), ("inv", "--out", out_path, "--oracle"), ("pinv", "--out", out_path, "--oracle")):
        assert run_cli(*command, "--matrix", str(a_path), "--angle", str(t_path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert not re.search(r"\bnan\b", captured.out)


def test_pinv_rank_deficient_exits_3(tmp_path):
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, DenseMatrix([[1, 1], [2, 2], [3, 3]]))
    write_matrix(t_path, AngleMatrix(theta=np.zeros(3), phi=np.zeros(2)))
    assert run_cli("pinv", "--matrix", str(a_path), "--angle", str(t_path),
                   "--out", str(tmp_path / "x.json")) == 3


def test_det_outside_float_range_exits_3(tmp_path, capsys):
    a_path = str(tmp_path / "a.json")
    t_path = str(tmp_path / "t.json")
    assert run_cli("gen", "--rows", "272", "--cols", "272", "--seed", "5", "--out", a_path) == 0
    assert run_cli("gen", "--rows", "272", "--cols", "272", "--seed", "5", "--angle", "--out", t_path) == 0
    capsys.readouterr()
    assert run_cli("det", "--matrix", a_path, "--angle", t_path) == 3
    captured = capsys.readouterr()
    assert not re.search(r"\bnan\b", captured.out + captured.err)
    assert "float64 range" in captured.err


def test_inv_and_det_of_a_base_at_1e308(tmp_path, capsys):
    # the inverse fits in float64 and comes back exact; |det| = 2e616 does not
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    out_path = tmp_path / "x.json"
    write_matrix(a_path, DenseMatrix(1e308 * np.array([[1, 1], [-1, 1]])))
    write_matrix(t_path, AngleMatrix(theta=np.zeros(2), phi=np.zeros(2)))
    assert run_cli("inv", "--matrix", str(a_path), "--angle", str(t_path), "--out", str(out_path)) == 0
    assert np.array_equal(read_matrix(out_path).array, 5e-309 * np.array([[1, -1], [1, 1]]))
    capsys.readouterr()
    assert run_cli("det", "--matrix", str(a_path), "--angle", str(t_path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: determinant modulus exp\(1419\.09\) is outside the float64 range \S+, \S+\n",
                        captured.err)


def test_masked_result_that_overflows_exits_3(tmp_path, capsys):
    # inv(a) = 1.515e308 * (1 + 1j) has finite parts; the mask's pi/4 turn
    # puts its whole modulus on the imaginary axis, beyond float64
    a_path = tmp_path / "a.json"
    t_path = tmp_path / "t.json"
    write_matrix(a_path, DenseMatrix([[3.3e-309 * (1 - 1j)]]))
    write_matrix(t_path, AngleMatrix(theta=[0.0], phi=[-np.pi / 4]))
    for command in ("inv", "pinv"):
        out_path = tmp_path / f"{command}.json"
        assert run_cli(command, "--matrix", str(a_path), "--angle", str(t_path), "--out", str(out_path)) == 3
        assert capsys.readouterr().err == "error: result overflows float64: non-finite entry at (0, 0)\n"
        assert not out_path.exists()


@pytest.mark.parametrize("error, code", [
    (SingularMatrixError("singular", pivot=0.0), 3),
    (DeterminantRangeError("out of range", log_abs=1e3), 3),
    (OverflowError("overflows"), 3),
    (RuntimeError("internal"), 3),
    (MatrixFormatError("malformed"), 2),
    (ValueError("bad value"), 2),
    (OSError("unreadable"), 2),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_each_error_class_has_one_exit_code(tmp_path, monkeypatch, capsys, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr("phasealg.cli.det_structured", fail)
    a_path, t_path = write_identity_pair(tmp_path)
    assert run_cli("det", "--matrix", a_path, "--angle", t_path) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_dense_file_where_angle_expected_exits_2(tmp_path, capsys):
    a_path, _ = write_identity_pair(tmp_path)
    assert run_cli("det", "--matrix", a_path, "--angle", a_path) == 2
    assert "angle" in capsys.readouterr().err


def test_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    a_path, t_path = write_identity_pair(tmp_path)
    assert run_cli("det", "--matrix", str(bad), "--angle", t_path) == 2
    bad.write_text('{"kind": "angle", "theta": [Infinity, 0], "phi": [0, 0]}')
    capsys.readouterr()
    assert run_cli("det", "--matrix", a_path, "--angle", str(bad)) == 2
    assert "theta contains a non-finite phase" in capsys.readouterr().err


def test_undecodable_file_exits_2_naming_it(tmp_path, capsys):
    a_path, _ = write_identity_pair(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert run_cli("det", "--matrix", a_path, "--angle", str(bad)) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert a_path not in err


def test_deeply_nested_file_exits_2_naming_it(tmp_path, capsys):
    a_path, _ = write_identity_pair(tmp_path)
    bad = tmp_path / "deep.json"
    bad.write_text('{"kind": "angle", "theta": ' + "[" * 100000 + "]" * 100000 + ', "phi": [0.0]}')
    assert run_cli("det", "--matrix", a_path, "--angle", str(bad)) == 2
    assert capsys.readouterr().err == f"error: {bad}: JSON nested too deeply to parse\n"


def test_integer_beyond_float64_exits_2(tmp_path, capsys):
    a_path, t_path = write_identity_pair(tmp_path, n=1)
    huge = "1" + "0" * 400
    bad_dense = tmp_path / "bad_dense.json"
    bad_dense.write_text(f'{{"kind": "dense", "rows": 1, "cols": 1, "data": [[{huge}, 0.0]]}}')
    bad_angle = tmp_path / "bad_angle.json"
    bad_angle.write_text(f'{{"kind": "angle", "theta": [{huge}], "phi": [0.0]}}')
    assert run_cli("det", "--matrix", str(bad_dense), "--angle", t_path) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli("det", "--matrix", a_path, "--angle", str(bad_angle)) == 2
    assert "error:" in capsys.readouterr().err


def test_boolean_dimensions_exit_2(tmp_path, capsys):
    _, t_path = write_identity_pair(tmp_path, n=1)
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "dense", "rows": true, "cols": true, "data": [[1.0, 0.0]]}')
    assert run_cli("det", "--matrix", str(bad), "--angle", t_path) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    _, t_path = write_identity_pair(tmp_path)
    assert run_cli("det", "--matrix", str(tmp_path / "absent.json"), "--angle", t_path) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert run_cli("unknown-command") == 2
    assert run_cli("gen", "--rows", "2") == 2
    assert run_cli("verify", "--suite", "lemma9") == 2
    capsys.readouterr()
    assert run_cli("verify", "--suite", "thm1", "--trials", "0") == 2
    assert "trials must be >= 1" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path):
    assert run_cli("gen", "--rows", "2", "--cols", "2", "--seed", "-1",
                   "--out", str(tmp_path / "a.json")) == 2


def test_verify_single_suite(tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli("verify", "--suite", "lemma1", "--trials", "5", "--seed", "7",
                   "--report", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["schema_version"] == 1
    assert report["seed"] == 7
    assert [s["suite"] for s in report["suites"]] == ["lemma1"]
    assert report["tolerances"] == {"condition_cap": 1e6, "entry_eps": 1e-12, "rank_eps": 1e-10, "residual_eps": 1e-8}


def test_verify_all_covers_every_suite(tmp_path):
    report_path = tmp_path / "report.json"
    assert run_cli("verify", "--suite", "all", "--trials", "3", "--seed", "11",
                   "--report", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert [s["suite"] for s in report["suites"]] == ["lemma1", "lemma2", "lemma3", "thm1", "thm2"]
    names = {c["name"] for s in report["suites"] for c in s["checks"]}
    assert "transposed_mask_inverse" in names
    assert "adjugate_oracle_equivalence" in names
    assert "gram_hadamard_factorization" in names


def test_verify_stdout_when_no_report_path(capsys):
    assert run_cli("verify", "--suite", "lemma2", "--trials", "3", "--seed", "2") == 0
    out = capsys.readouterr().out
    assert json.loads(out)["passed"] is True


def test_verify_exit_1_when_a_check_fails(monkeypatch, tmp_path):
    from phasealg import cli as cli_module
    monkeypatch.setattr(cli_module, "run_suites",
                        lambda *args, **kwargs: {"suites": [], "passed": False})
    assert run_cli("verify", "--suite", "lemma1", "--trials", "1", "--seed", "0",
                   "--report", str(tmp_path / "r.json")) == 1


def test_verify_reports_are_reproducible(tmp_path):
    report_path = tmp_path / "report.json"
    argv = ["verify", "--suite", "all", "--trials", "3", "--seed", "7",
            "--report", str(report_path)]
    assert main(list(argv)) == 0
    first = report_path.read_bytes()
    assert main(list(argv)) == 0
    second = report_path.read_bytes()
    scrub = lambda blob: re.sub(rb'"wall_time_s": [-+0-9.eE]+', b'"wall_time_s": 0', blob)
    assert scrub(first) == scrub(second)


def test_bench_appends_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    args = ("bench", "--rows", "8", "--cols", "8", "--updates", "3", "--seed", "5",
            "--csv", str(csv_path))
    assert run_cli(*args) == 0
    assert run_cli(*args) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "rows,cols,updates,structured_ns,naive_ns,max_residual,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[:3] == ["8", "8", "3"]
    assert first[5] == second[5]  # residual is seed-determined; timings may differ
    assert "max_residual" in capsys.readouterr().out


def test_bench_config_cap_exits_2(tmp_path):
    assert run_cli("bench", "--rows", "4096", "--cols", "4096", "--updates", "1",
                   "--seed", "1", "--csv", str(tmp_path / "b.csv")) == 2


def test_console_script_entrypoint_exits_0(tmp_path, monkeypatch, capsys):
    # the installed `phasealg` command runs cli.entrypoint, which exits with main's code
    csv_path = tmp_path / "bench.csv"
    monkeypatch.setattr(sys, "argv", ["phasealg", "bench", "--rows", "2", "--cols", "2", "--updates", "1",
                                      "--seed", "0", "--csv", str(csv_path)])
    with pytest.raises(SystemExit) as exited:
        entrypoint()
    assert exited.value.code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER and len(lines) == 2
    assert lines[1].split(",")[:3] == ["2", "2", "1"]
    assert "max_residual" in capsys.readouterr().out


def test_module_execution(tmp_path):
    import subprocess
    out = tmp_path / "m.json"
    result = subprocess.run(
        [sys.executable, "-m", "phasealg", "gen", "--rows", "2", "--cols", "2",
         "--seed", "4", "--out", str(out)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert out.exists()
