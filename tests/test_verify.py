"""Verify report layout and the script that compares reports across trees."""

import os
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from phasealg import LUFactorization, SingularMatrixError, run_suite
from phasealg.generate import draw_angle, stream_generator
from phasealg.verify import _max_abs, _rank_one_minor_residual

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAME_REPORTS = os.path.join(ROOT, "tools", "same_verify_reports.py")

LAYOUT = {  # suite -> (check name, trials) at --trials 1 --seed 0, in report order
    "lemma1": [("hermitian_duality", 1), ("hermitian_involution", 1), ("unit_modulus", 1),
               ("rank_one_minors", 0)],
    "lemma2": [("determinant_identity", 1)],
    "lemma3": [("gram_left", 1), ("gram_right", 1), ("gram_diagonal_scale", 1), ("triple_product", 1),
               ("gram_2x2_structure", 2)],
    "thm1": [("inverse_left_residual", 1), ("inverse_right_residual", 1), ("inverse_matches_lu_oracle", 1),
             ("transposed_mask_inverse", 1), ("adjugate_oracle_equivalence", 1)],
    "thm2": [("penrose_conditions", 1), ("pinv_matches_dense_oracle", 1), ("gram_hadamard_factorization", 1),
             ("square_degeneration", 0), ("hermitian_duality_pinv", 1)],
}


@pytest.mark.parametrize("suite", sorted(LAYOUT))
def test_report_lists_each_check_once_in_a_fixed_order(suite):
    checks = run_suite(suite, 1, 0)["checks"]
    assert [(c["name"], c["trials"]) for c in checks] == LAYOUT[suite]
    for check in checks:
        assert set(check) == {"name", "trials", "max_residual", "max_ratio", "passed"}
        if check["trials"] == 0:  # declared but reached by no trial
            assert (check["max_residual"], check["max_ratio"], check["passed"]) == (0.0, 0.0, True)


def _minor_mask(m: int, n: int) -> np.ndarray:
    return draw_angle(stream_generator(m, n), m, n).materialize().array


def test_blocked_minor_residual_has_the_bits_of_the_full_product():
    for m in range(2, 17):
        for n in range(2, 17):
            dense = _minor_mask(m, n)
            outer = dense[:, None, :, None] * dense[None, :, None, :]
            assert _rank_one_minor_residual(dense) == _max_abs(outer - outer.transpose(0, 1, 3, 2)), (m, n)


def test_blocked_minor_residual_peaks_below_512_kib_at_16x16():
    # the full m*m*n*n product, its transpose difference and their modulus
    # peak at about 2.5 MiB here
    dense = _minor_mask(16, 16)
    tracemalloc.start()
    try:
        _rank_one_minor_residual(dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_lemma2_draws_do_not_consult_the_lu_oracle(monkeypatch):
    def reject(self):
        raise SingularMatrixError("pivot test called", pivot=0.0)

    monkeypatch.setattr(LUFactorization, "_check_pivots", reject)
    assert run_suite("lemma2", 10, 0)["passed"]


def _same_reports(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, SAME_REPORTS, *args],
                          capture_output=True, text=True, check=False)


def test_same_reports_rejects_bad_arguments(tmp_path):
    assert _same_reports().returncode == 2
    assert _same_reports(os.path.join(ROOT, "src")).returncode == 2
    run = _same_reports(str(tmp_path), os.path.join(ROOT, "src"))
    assert run.returncode == 2
    assert "holds no phasealg package" in run.stderr


def test_same_reports_names_the_first_differing_suite_and_seed(tmp_path):
    changed = tmp_path / "phasealg"
    shutil.copytree(os.path.join(ROOT, "src", "phasealg"), changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    verify_py = changed / "verify.py"
    source = verify_py.read_text(encoding="utf-8")
    assert "DUALITY_LIMIT = 1e-14\n" in source
    verify_py.write_text(source.replace("DUALITY_LIMIT = 1e-14\n", "DUALITY_LIMIT = 2e-14\n"), encoding="utf-8")
    base = os.path.join(ROOT, "src")
    run = _same_reports(base, str(tmp_path))
    assert run.returncode == 1
    assert "suite lemma1, seed 0" in run.stdout
    # the first line that differs, from each tree, with the same line number
    # and the halved ratio; the exit codes agree, so no more lines
    header, *lines = run.stdout.splitlines()
    pattern = r'  (.+) line (\d+): +"max_ratio": (\S+),'
    (base_src, base_number, base_ratio), (head_src, head_number, head_ratio) = (
        re.fullmatch(pattern, line).groups() for line in lines)
    assert (base_src, head_src) == (base, str(tmp_path)) and base_number == head_number
    assert float(head_ratio) == pytest.approx(float(base_ratio) / 2, rel=1e-12)


def test_same_reports_fails_on_a_numpy_warning(tmp_path):
    changed = tmp_path / "phasealg"
    shutil.copytree(os.path.join(ROOT, "src", "phasealg"), changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    verify_py = changed / "verify.py"
    source = verify_py.read_text(encoding="utf-8")
    header = "def _suite_lemma1(trials: int, seed: int) -> list[dict]:\n"
    assert header in source
    verify_py.write_text(source.replace(header, header + "    np.divide(1.0, np.zeros(1))\n"), encoding="utf-8")
    run = _same_reports(os.path.join(ROOT, "src"), str(tmp_path))
    assert run.returncode == 2
    assert "RuntimeWarning" in run.stderr
