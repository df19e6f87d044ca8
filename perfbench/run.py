"""Run one benchmark workload in this process: a closed loop with a single
caller, every output checked apart from the program.

    python3 perfbench/run.py --workload update-stream --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. Metric names and units come from
BENCHMARK.json at the root of the checkout. Run `perfbench/selftest.py` to
check the checkers and run every workload briefly.
"""

from __future__ import annotations

import os
import sys

# Fix the BLAS thread count before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 11


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    index = min(len(sorted_values) - 1, max(0, int(round(fraction * len(sorted_values))) - 1))
    return sorted_values[index]


class Checked:
    """Counts outputs that fail a check; a check that raises counts too."""

    def __init__(self):
        self.mismatches = 0

    def __call__(self, check, *args) -> None:
        try:
            ok = check(*args)
        except (ArithmeticError, ValueError, KeyError, TypeError, OSError, RuntimeError):
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.mismatches += 1


def run_loop(workload, seconds: float, checked: Checked, on_request=None) -> dict:
    """One untimed warm-up op, then whole rounds of timed ops until `seconds`
    of op time have been measured. Checks run between ops, untimed; the
    fingerprints of replayed requests are kept for `replay`."""
    gc.collect()
    req = workload.prepare(0)
    checked(workload.check, 0, req, workload.call(req))
    samples = []
    fingerprints = {}
    failed = 0
    measured = 0
    k = 0
    budget = seconds * 1e9
    while measured < budget:
        for _ in workload.ROUND:
            req = workload.prepare(k)
            if on_request:
                on_request(k)
            start = time.perf_counter_ns()
            try:
                out = workload.call(req)
            except (ArithmeticError, ValueError, RuntimeError):
                traceback.print_exc(file=sys.stderr)
                failed += 1
            else:
                elapsed = time.perf_counter_ns() - start
                samples.append(elapsed)
                measured += elapsed
                checked(workload.check, k, req, out)
                if workload.replayed(k):
                    fingerprints[k] = workload.fingerprint(req, out)
                del out
            k += 1
    return {"samples": samples, "attempted": k, "failed": failed, "fingerprints": fingerprints}


def replay(workload, fingerprints: dict, checked: Checked) -> None:
    """Serve the sampled requests again and check them fully; each output
    must reproduce the fingerprint of the timed one."""

    def reproduced(k, fingerprint):
        req = workload.prepare(k)
        out = workload.call(req)
        return workload.full_check(k, req, out) and workload.fingerprint(req, out) == fingerprint

    for k, fingerprint in sorted(fingerprints.items()):
        checked(reproduced, k, fingerprint)


def end_to_end(workload, seconds: float, checked: Checked) -> tuple[dict, dict]:
    setup = statistics.median(workload.setup() for _ in range(SETUP_REPS))
    loop = run_loop(workload, seconds, checked)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replay(workload, loop["fingerprints"], checked)
    ns = sorted(loop["samples"])
    metrics = {
        "setup_s": setup,
        "latency_p50_ms": statistics.median(ns) / 1e6,
        "latency_p90_ms": percentile(ns, 0.90) / 1e6,
        "throughput_per_s": len(ns) / (sum(ns) / 1e9),
        "peak_rss_mb": peak_rss,
    }
    return loop, metrics


def per_layer(workload, seconds: float, checked: Checked, names, trace_path: str) -> tuple[dict, dict]:
    """Half the time untraced, half traced: the ratio of the two p50
    latencies is the tracing overhead."""
    from tracing import Tracer

    workload.setup()
    plain = run_loop(workload, seconds / 2, checked)
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        traced = run_loop(workload, seconds / 2, checked, on_request=tracer.start_request)
    finally:
        tracer.uninstall()
    replay(workload, {**plain["fingerprints"], **traced["fingerprints"]}, checked)
    tracer.write(trace_path)
    metrics = {}
    for name in names:
        if name == "trace.latency_p50_ratio":
            metrics[name] = statistics.median(traced["samples"]) / statistics.median(plain["samples"])
        else:
            metrics[name] = tracer.metric(name, traced["attempted"])
    combined = {key: plain[key] + traced[key] for key in ("attempted", "failed")}
    return combined, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "phasealg", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: no phasealg sources under {SRC} (run from a checkout of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    checked = Checked()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
            loop, values = per_layer(workload, args.seconds, checked, [m["name"] for m in wanted], trace_path)
        else:
            loop, values = end_to_end(workload, args.seconds, checked)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": checked.mismatches == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
