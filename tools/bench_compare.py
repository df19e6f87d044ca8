"""Benchmark two commits side by side and write the figures to one JSON file.

Usage: python tools/bench_compare.py --parent REV [--change REV] --out FILE
           [--workload NAME ...] [--seed S]

Each commit is extracted with `git archive` into its own temporary
directory. For every workload (all of BENCHMARK.json's when none is named)
the script runs `perfbench/run.py --workload NAME --seed S --seconds T`
PAIRS (10) times on each side, with T the `run_seconds` BENCHMARK.json
fixes, the parent first in even pairs and the change first in odd ones, and
keeps every run's end-to-end metrics. It then runs `perfbench/baseline.py`
at its default repeat count in the change's checkout for the LAPACK figures
on the same inputs.

FILE is sorted-key JSON holding both commits, the seed, the run length, the
pair count, `nproc`, the Python, numpy and BLAS versions, and per workload
and side each metric's median and quartiles, its unit and the raw values,
with the runs' `correct` flags and failed-op counts. Per workload, `claim`
holds for each end-to-end metric the two figures a gain is judged on: the
pairs the change won in the direction BENCHMARK.json's `better` gives (ties
count for neither side), and whether the medians differ by more than the
distance between the parent's quartiles. Exit 0 when every run
is correct with no failed op, 1 when some run is not (FILE is still
written), and 2 on a bad argument or a run that prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_LINE = re.compile(
    r"^(?P<workload>\S+)\s+numpy\.linalg\.(?P<function>\S+)\s+(?P<m>\d+)x(?P<n>\d+)\s+"
    r"median\s+(?P<median>\S+) ms\s+quartiles (?P<q1>[^-\s]+)-(?P<q3>\S+) ms\s+\((?P<repeats>\d+) calls\)$"
)
SIDES = ("parent", "change")
PAIRS = 10  # the fewest pairs a gain can be judged on


class RunError(RuntimeError):
    """A benchmark command exited nonzero or printed no result."""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def extract(rev: str, dest: str) -> str:
    """Full commit id of `rev`, with its tree written under `dest`."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit


def run_python(checkout: str, argv: list[str]) -> str:
    """stdout of `python argv` run from the root of `checkout`."""
    run = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True, text=True, check=False)
    if run.returncode != 0 or not run.stdout.strip():
        sys.stderr.write(run.stderr)
        raise RunError(f"{' '.join(argv)} in {checkout} exited {run.returncode}")
    return run.stdout


def run_workload(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one end-to-end perfbench run."""
    out = run_python(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"])
    return json.loads(out.strip().splitlines()[-1])


def run_baseline(checkout: str, seed: int) -> list[dict]:
    """perfbench/baseline.py's figures, one entry per shape it times."""
    out = run_python(checkout, ["perfbench/baseline.py", "--seed", str(seed)])
    figures = []
    for line in out.splitlines():
        match = BASELINE_LINE.match(line)
        if match is None:
            raise RunError(f"unexpected line from perfbench/baseline.py: {line!r}")
        figures.append({
            "workload": match["workload"],
            "function": f"numpy.linalg.{match['function']}",
            "shape": [int(match["m"]), int(match["n"])],
            "median_ms": float(match["median"]),
            "q1_ms": float(match["q1"]),
            "q3_ms": float(match["q3"]),
            "repeats": int(match["repeats"]),
        })
    return figures


def versions() -> dict:
    """Python, numpy and BLAS versions of this interpreter, which runs the benchmark too."""
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # numpy before 1.26 has no mode="dicts"
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}


def summary(results: list[dict]) -> dict:
    """Median, quartiles, unit and raw values of each metric over runs of one side."""
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[name] = {"median": median, "q1": q1, "q3": q3,
                         "unit": results[0]["metrics"][name]["unit"], "values": values}
    return {
        "metrics": metrics,
        "correct": [r["correct"] for r in results],
        "failed": [r["failed"] for r in results],
        "attempted": [r["attempted"] for r in results],
    }


def claim(sides: dict, end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of one workload: its `better` direction, the
    pairs the change won in it, and whether the change's median is off the
    parent's by more than the parent's quartile spread."""
    figures = {}
    for spec in end_to_end:
        parent, change = (sides[side]["metrics"][spec["name"]] for side in SIDES)
        sign = 1 if spec["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent["values"], change["values"]))
        beyond = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        figures[spec["name"]] = {"better": spec["better"], "pairs_won": won, "beyond_parent_spread": beyond}
    return figures


def compare(checkouts: dict, workloads: list[str], seed: int, seconds: float, end_to_end: list[dict]) -> dict:
    """Per workload, the summary of each side over PAIRS alternating pairs of
    runs, and the claim figures of its end-to-end metrics."""
    figures = {}
    for workload in workloads:
        results = {side: [] for side in SIDES}
        for k in range(PAIRS):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"{workload}: pair {k + 1}/{PAIRS}, {side}", file=sys.stderr, flush=True)
                results[side].append(run_workload(checkouts[side], workload, seed, seconds))
        figures[workload] = {side: summary(results[side]) for side in SIDES}
        figures[workload]["claim"] = claim(figures[workload], end_to_end)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change (default HEAD)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workload", action="append", help="workload to run; repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; expected among {', '.join(known)}")

    with tempfile.TemporaryDirectory(prefix="bench-compare-") as scratch:
        checkouts, commits = {}, {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            checkouts[side] = os.path.join(scratch, side)
            os.makedirs(checkouts[side])
            commits[side] = extract(rev, checkouts[side])
        try:
            figures = compare(checkouts, workloads, args.seed, seconds, benchmark["end_to_end"])
            baseline = run_baseline(checkouts["change"], args.seed)
        except RunError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    payload = {
        "commits": commits,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "order": "parent first in even pairs (0, 2, ...), change first in odd ones",
        "nproc": len(os.sched_getaffinity(0)),
        "versions": versions(),
        "workloads": figures,
        "baseline": baseline,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    clean = all(all(fig[side]["correct"]) and not any(fig[side]["failed"])
                for fig in figures.values() for side in SIDES)
    print(f"wrote {args.out}: {len(workloads)} workload(s) x {PAIRS} pairs")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
