"""Self-test of the benchmark.

    python3 perfbench/selftest.py

First, every checker must accept an exact answer and an answer perturbed to
a tenth of its tolerance, and reject one perturbed to ten times it, so no
check is one that can never fail; perturbed program outputs must fail the
in-loop checks and the replay. Then every workload runs briefly, traced
and untraced, and must report zero failed ops, correct outputs and exactly
the metrics BENCHMARK.json lists. Exits nonzero if any check failed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EPS = checks.RESIDUAL_EPS

failures = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(label)


def graded(label: str, check, make) -> None:
    """check(make(scale)) must hold at scale 0 and 0.1 and fail at 10."""
    expect(f"{label}: exact", check(make(0.0)))
    expect(f"{label}: 0.1x tolerance accepted", check(make(0.1)))
    expect(f"{label}: 10x tolerance rejected", not check(make(10.0)))


def test_checkers() -> None:
    gen = np.random.Generator(np.random.Philox(key=[7, 7]))

    def gaussian(m, n):
        return gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))

    n = 32
    m = gaussian(n, n)
    inv = np.linalg.inv(m)
    # (1 + s) X leaves X M - I = s I, of Frobenius norm s * sqrt(n).
    graded("identity residual", lambda x: checks.identity_ok(m, x),
           lambda k: (1 + k * EPS * np.sqrt(n)) * inv)
    graded("agreement with numpy", lambda x: checks.agrees(x, inv),
           lambda k: (1 + k * EPS * n) * inv)
    expect("inverse: wrong shape rejected", not checks.inverse_ok(m, inv[:, :-1]))

    tall = gaussian(24, 16)
    pinv = np.linalg.pinv(tall)
    # (1 + s) X leaves A X A - A = s A and X A X - X = (s + s^2) X.
    s = EPS * (1 + np.linalg.norm(tall)) / max(np.linalg.norm(tall), np.linalg.norm(pinv))
    graded("penrose conditions", lambda x: checks.penrose_ok(tall, x), lambda k: (1 + k * s) * pinv)
    graded("pinv agreement with numpy", lambda x: checks.agrees(x, pinv), lambda k: (1 + k * EPS * 24) * pinv)
    expect("pinv: exact accepted", checks.pinv_ok(tall, pinv))
    expect("pinv: transposed shape rejected", not checks.pinv_ok(tall, pinv.T))

    det = complex(np.linalg.det(m))
    graded("determinant", lambda d: checks.det_ok(m, d), lambda k: det * (1 + k * EPS * n))
    expect("determinant: nan rejected", not checks.det_ok(m, complex("nan+nanj")))

    # Probe checks on A ∘ T with random phases, probed with unit v and u.
    theta, phi = gen.uniform(0, 2 * np.pi, n), gen.uniform(0, 2 * np.pi, n)
    masked = checks.masked(m, theta, phi)
    v = checks.unit_probe(gen, n)
    # (1 + s) X leaves X M v - v = s v, of norm s.
    graded("inverse probe", lambda x: checks.inverse_probe_ok(m, theta, phi, x, v),
           lambda k: (1 + k * EPS * n) * np.linalg.inv(masked))
    tall_theta, tall_phi = gen.uniform(0, 2 * np.pi, 24), gen.uniform(0, 2 * np.pi, 16)
    tall_masked = checks.masked(tall, tall_theta, tall_phi)
    tall_pinv = np.linalg.pinv(tall_masked)
    v16, u24 = checks.unit_probe(gen, 16), checks.unit_probe(gen, 24)
    # (1 + s) X leaves the Hermitian conditions exact and the other two at
    # s ||M v|| and (s + s^2) ||X u||.
    s = EPS * (1 + np.linalg.norm(tall)) / max(np.linalg.norm(tall_masked @ v16), np.linalg.norm(tall_pinv @ u24))
    graded("penrose probe", lambda x: checks.penrose_probe_ok(tall, tall_theta, tall_phi, x, v16, u24),
           lambda k: (1 + k * s) * tall_pinv)
    expect("penrose probe: transposed shape rejected",
           not checks.penrose_probe_ok(tall, tall_theta, tall_phi, tall_pinv.T, v16, u24))

    def report(ratio=0.5, passed=True, wall=0.25):
        body = {"passed": passed, "suites": [{"checks": [{"max_ratio": 0.1}, {"max_ratio": ratio}]}],
                "wall_time_s": wall}
        return json.dumps(body, sort_keys=True, indent=2) + "\n"

    expect("report: passing accepted", checks.report_ok(report()))
    expect("report: passed false rejected", not checks.report_ok(report(passed=False)))
    expect("report: max_ratio 1.5 rejected", not checks.report_ok(report(ratio=1.5)))
    expect("report: only wall time differs", checks.same_report(report(wall=0.25), report(wall=0.75)))
    expect("report: residual differs", not checks.same_report(report(ratio=0.5), report(ratio=0.5000001)))


def test_faulty_program() -> None:
    """In-process: outputs off by 1e-5 fail the in-loop checks, and outputs
    off by 1e-14 only when served again fail the replay's fingerprint."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    import workloads

    def perturbed(call, factor):
        def wrong(req):
            out = call(req)
            if isinstance(out, complex):
                return out * factor
            return type(out)(out.array * factor)
        return wrong

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("update-stream", "cold-solve"):
            workload = workloads.WORKLOADS[name](1, tmp)
            workload.setup()
            call = workload.call
            workload.call = perturbed(call, 1 + 1e-5)
            checked = run.Checked()
            loop = run.run_loop(workload, 1e-9, checked)
            expect(f"{name}: every perturbed output rejected ({checked.mismatches} of {loop['attempted'] + 1})",
                   checked.mismatches == loop["attempted"] + 1)
            workload.call = call
            checked = run.Checked()
            loop = run.run_loop(workload, 1e-9, checked)
            expect(f"{name}: exact outputs accepted", checked.mismatches == 0)
            workload.call = perturbed(call, 1 + 1e-14)
            run.replay(workload, loop["fingerprints"], checked)
            expect(f"{name}: replay that differs from the timed output rejected "
                   f"({checked.mismatches} of {len(loop['fingerprints'])})",
                   checked.mismatches == len(loop["fingerprints"]) > 0)


def test_workloads(seconds: str = "0.5") -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", seconds, "--trace", trace],
                capture_output=True, text=True, timeout=180, cwd=ROOT,
            )
            if proc.returncode != 0:
                expect(f"{label}: exit 0 ({proc.stderr.strip()[-300:]})", False)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(f"{label}: correct, {result['attempted']} attempted, none failed",
                   result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1)
            expect(f"{label}: metrics as listed",
                   sorted(result["metrics"]) == sorted(m["name"] for m in wanted))


def main() -> int:
    test_checkers()
    test_faulty_program()
    test_workloads()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
