"""The scripts in tools/: bench_compare.py with the benchmark runs stubbed out, and
setup_stages.py on small bases; and perfbench/tracing.py's spans against the
per-layer metrics of BENCHMARK.json."""

import importlib.util
import json
import os

import pytest

from phasealg import SUITE_NAMES, engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    _BENCHMARK = json.load(_handle)
END_TO_END = _BENCHMARK["end_to_end"]
PER_LAYER = [spec["name"] for spec in _BENCHMARK["per_layer"]]


def _load(directory: str, script: str):
    """The module of ROOT/directory/script.py, loaded by file path."""
    spec = importlib.util.spec_from_file_location(script, os.path.join(ROOT, directory, f"{script}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_compare():
    return _load("tools", "bench_compare")


def _stub(monkeypatch, module, calls, correct=True):
    def run_workload(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        calls.append((workload, side, seconds))
        value = 1.0 + len(calls)
        return {"correct": correct, "attempted": 10, "failed": 0,
                "metrics": {spec["name"]: {"value": value, "unit": spec["unit"]} for spec in END_TO_END}}

    monkeypatch.setattr(module, "extract", lambda rev, dest: f"{rev}-commit")
    monkeypatch.setattr(module, "run_workload", run_workload)
    monkeypatch.setattr(module, "run_baseline", lambda checkout, seed: [{"function": "numpy.linalg.inv"}])
    monkeypatch.setattr(module, "versions", lambda: {"blas": "b", "numpy": "n", "python": "p"})


def test_bench_compare_writes_sorted_keys_and_alternates_sides(bench_compare, monkeypatch, tmp_path):
    calls = []
    _stub(monkeypatch, bench_compare, calls)
    out = tmp_path / "BENCH.json"
    code = bench_compare.main(["--parent", "P", "--change", "C", "--out", str(out),
                               "--workload", "update-stream"])
    assert code == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    assert bench_compare.PAIRS == 10 and len(calls) == 2 * bench_compare.PAIRS
    assert [side for _, side, _ in calls] == ["parent", "change", "change", "parent"] * (bench_compare.PAIRS // 2)
    assert {seconds for _, _, seconds in calls} == {run_seconds}
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert sorted(payload) == ["baseline", "commits", "nproc", "order", "pairs", "seconds", "seed",
                               "versions", "workloads"]
    assert payload["commits"] == {"change": "C-commit", "parent": "P-commit"}
    assert (payload["seed"], payload["seconds"], payload["pairs"]) == (7, run_seconds, 10)
    assert payload["baseline"] == [{"function": "numpy.linalg.inv"}]
    sides = payload["workloads"]["update-stream"]
    assert sorted(sides) == ["change", "claim", "parent"]
    parent = sides["parent"]
    assert sorted(parent) == ["attempted", "correct", "failed", "metrics"]
    p50 = parent["metrics"]["latency_p50_ms"]
    assert sorted(p50) == ["median", "q1", "q3", "unit", "values"]
    assert p50["values"] == [2.0, 5.0, 6.0, 9.0, 10.0, 13.0, 14.0, 17.0, 18.0, 21.0] and p50["unit"] == "ms"
    assert p50["q1"] <= p50["median"] == 11.5 <= p50["q3"]


def test_bench_compare_counts_pairs_won_and_the_parent_spread(bench_compare, monkeypatch, tmp_path):
    # pair k holds run k of each side; pair 8 is a tie and pair 9 a loss for a lower-is-better metric
    # setup_s wins every pair by 0.5, inside the parent's quartile spread of 1
    parent = [10.0, 11.0, 10.0, 12.0, 10.0, 11.0, 10.0, 12.0, 10.0, 11.0]
    change = [9.0] * 8 + [10.0, 12.0]
    runs = {"parent": iter(zip(parent, parent)), "change": iter(zip(change, [p - 0.5 for p in parent]))}

    def run_workload(checkout, workload, seed, seconds):
        value, setup = next(runs[os.path.basename(checkout)])
        metrics = {spec["name"]: {"value": 1.0, "unit": spec["unit"]} for spec in END_TO_END}
        metrics["latency_p50_ms"]["value"] = metrics["throughput_per_s"]["value"] = value
        metrics["setup_s"]["value"] = setup
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    _stub(monkeypatch, bench_compare, [])
    monkeypatch.setattr(bench_compare, "run_workload", run_workload)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", "P", "--out", str(out), "--workload", "update-stream"]) == 0
    claim = json.loads(out.read_text(encoding="utf-8"))["workloads"]["update-stream"]["claim"]
    assert sorted(claim) == sorted(spec["name"] for spec in END_TO_END)
    # the parent's quartiles are 10 and 11; the medians are 10.5 and 9
    assert claim["latency_p50_ms"] == {"better": "lower", "pairs_won": 8, "beyond_parent_spread": True}
    assert claim["throughput_per_s"] == {"better": "higher", "pairs_won": 1, "beyond_parent_spread": True}
    assert claim["peak_rss_mb"] == {"better": "lower", "pairs_won": 0, "beyond_parent_spread": False}
    assert claim["setup_s"] == {"better": "lower", "pairs_won": 10, "beyond_parent_spread": False}


def test_bench_compare_exits_1_on_an_incorrect_run(bench_compare, monkeypatch, tmp_path):
    _stub(monkeypatch, bench_compare, [], correct=False)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main(["--parent", "P", "--out", str(out), "--workload", "cold-solve"]) == 1
    assert json.loads(out.read_text(encoding="utf-8"))["workloads"]["cold-solve"]["change"]["correct"] == [False] * 10


def test_bench_compare_rejects_bad_arguments(bench_compare, tmp_path):
    out = str(tmp_path / "BENCH.json")
    for argv in (["--parent", "P", "--out", out, "--pairs", "10"],
                 ["--parent", "P", "--out", out, "--seconds", "5"],
                 ["--parent", "P", "--out", out, "--baseline-repeats", "50"],
                 ["--parent", "P", "--out", out, "--workload", "no-such-workload"]):
        with pytest.raises(SystemExit) as exit_info:
            bench_compare.main(argv)
        assert exit_info.value.code == 2
    assert not os.path.exists(out)


def test_bench_compare_parses_the_baseline_lines(bench_compare, monkeypatch):
    lines = [  # the layout perfbench/baseline.py prints
        f"{'update-stream':14s} numpy.linalg.{'inv':8s} {256:4d}x{256:<4d} median {6.752:8.3f} ms  "
        f"quartiles {6.501:.3f}-{7.340:.3f} ms  (50 calls)",
        f"{'cold-solve':14s} numpy.linalg.{'pinv':8s} {192:4d}x{128:<4d} median {9.512:8.3f} ms  "
        f"quartiles {9.382:.3f}-{9.568:.3f} ms  (20 calls)",
    ]
    monkeypatch.setattr(bench_compare, "run_python", lambda checkout, argv: "\n".join(lines) + "\n")
    figures = bench_compare.run_baseline("checkout", 11)
    assert figures == [
        {"workload": "update-stream", "function": "numpy.linalg.inv", "shape": [256, 256],
         "median_ms": 6.752, "q1_ms": 6.501, "q3_ms": 7.34, "repeats": 50},
        {"workload": "cold-solve", "function": "numpy.linalg.pinv", "shape": [192, 128],
         "median_ms": 9.512, "q1_ms": 9.382, "q3_ms": 9.568, "repeats": 20},
    ]
    monkeypatch.setattr(bench_compare, "run_python", lambda checkout, argv: "something else\n")
    with pytest.raises(bench_compare.RunError, match="unexpected line"):
        bench_compare.run_baseline("checkout", 11)


@pytest.fixture
def setup_stages():
    return _load("tools", "setup_stages")


@pytest.mark.parametrize("n", [8, 160])
def test_setup_stages_prints_each_stage_and_restores_the_engine(setup_stages, capsys, n):
    originals = engine._pinv_system, engine._inverse_gate
    assert setup_stages.main(["--n", str(n), "--calls", "3"]) == 0
    assert (engine._pinv_system, engine._inverse_gate) == originals
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"precompute {n}x{n}, median of 3 calls, OPENBLAS_NUM_THREADS=")
    stages = {line[:20].strip(): line[20:].split() for line in lines[1:]}
    assert list(stages) == list(setup_stages.STAGES)
    for value, unit in stages.values():
        assert unit == "ms" and float(value) >= 0.0
    # each call's total covers both of its stages, so each median is at most the total's
    assert float(stages["total"][0]) >= max(float(stages["pinv_system"][0]), float(stages["gate"][0]))


def test_every_per_layer_metric_reads_a_traced_span():
    # The tracer names each span after the module that defines the function
    # and wraps only the names in its modules' __all__. A metric whose
    # function moved to another module, or left __all__, would read 0 on
    # every run instead of failing.
    tracing = _load("perfbench", "tracing")
    methods = {label for *_, label in tracing.METHODS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for metric in PER_LAYER:
            if metric == "trace.latency_p50_ratio":  # traced over untraced p50, from run.py, not a span
                continue
            span = metric.rsplit(".", 1)[0]
            if span in methods:
                continue
            if span.startswith("verify.run_suite."):  # one span, labelled per suite
                assert span.removeprefix("verify.run_suite.") in SUITE_NAMES, metric
                span = "verify.run_suite"
            short, attr = span.split(".")
            fn = getattr(importlib.import_module(f"phasealg.{short}"), attr, None)
            assert hasattr(fn, "__wrapped__") and fn.__wrapped__.__module__ == f"phasealg.{short}", metric
    finally:
        tracer.uninstall()
