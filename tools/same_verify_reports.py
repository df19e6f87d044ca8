"""Check that two source trees write the same `phasealg verify` reports.

Usage: python tools/same_verify_reports.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are directories holding the `phasealg` package (the
`src` directory of each checkout). For each suite below and each seed, the
script runs `python -m phasealg verify --suite SUITE --trials 20 --seed SEED`
once with PYTHONPATH set to each directory, drops the `wall_time_s` line of
each report, and compares the rest byte for byte together with the exit code.
Suites run one at a time rather than as `all`, so a suite added under a new
name does not count as a difference. Each run turns RuntimeWarning and
DeprecationWarning into errors, the filters pyproject.toml sets for pytest.

Exit 0 when every pair matches and 1 naming the first suite and seed that
differ, with the first report line that differs from each tree, numbered as
in the full report, and the exit codes if they differ. Exit 2 when a directory holds no `phasealg` package or a run writes
no report (a warning raised as an error is such a run).
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

SUITES = ("lemma1", "lemma2", "lemma3", "thm1", "thm2")
SEEDS = (0, 7, 1729, 123456789)
TRIALS = 20
WARNINGS_AS_ERRORS = ("-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning")


def verify_report(src: str, suite: str, seed: int) -> tuple[int, list[tuple[int, str]]]:
    """(exit code, the report's lines but its wall_time_s line, each with its
    line number in the full report) of one verify run."""
    argv = [sys.executable, *WARNINGS_AS_ERRORS, "-m", "phasealg", "verify",
            "--suite", suite, "--trials", str(TRIALS), "--seed", str(seed)]
    run = subprocess.run(argv, cwd=src, env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=False)
    if run.returncode not in (0, 1) or not run.stdout:  # a crash exits 1 with no report
        sys.stderr.write(run.stderr)
        print(f"error: {' '.join(argv[1:])} with PYTHONPATH={src} exited {run.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return run.returncode, [(number, line) for number, line in enumerate(run.stdout.splitlines(keepends=True), 1)
                            if '"wall_time_s":' not in line]


def _numbered(src: str, numbered: tuple[int, str] | None) -> str:
    if numbered is None:
        return f"  {src}: no more lines"
    number, line = numbered
    return f"  {src} line {number}: {line.rstrip()}"


def differences(base: str, head: str, suite: str, seed: int) -> list[str]:
    """How the two trees' verify runs differ: the first report line that
    differs, from each tree, then the exit codes if they differ; empty when
    the runs match."""
    (base_code, base_lines), (head_code, head_lines) = (verify_report(src, suite, seed) for src in (base, head))
    out = []
    for base_line, head_line in itertools.zip_longest(base_lines, head_lines):
        if base_line is None or head_line is None or base_line[1] != head_line[1]:
            out = [_numbered(base, base_line), _numbered(head, head_line)]
            break
    if base_code != head_code:
        out.append(f"  exit code {base_code} in {base}, {head_code} in {head}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = (os.path.abspath(path) for path in argv)
    for src in (base, head):
        if not os.path.isfile(os.path.join(src, "phasealg", "__init__.py")):
            print(f"error: {src} holds no phasealg package", file=sys.stderr)
            return 2
    for suite in SUITES:
        for seed in SEEDS:
            differ = differences(base, head, suite, seed)
            if differ:
                print(f"verify reports differ: suite {suite}, seed {seed}", *differ, sep="\n")
                return 1
    print(f"verify reports match: {len(SUITES)} suites x {len(SEEDS)} seeds at --trials {TRIALS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
