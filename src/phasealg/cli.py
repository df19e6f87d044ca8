"""Command-line surface: gen | det | inv | pinv | verify | bench.

Exit codes: 0 success, 1 verification failure, 2 usage or file-format error,
3 numerical error (singular or rank-deficient input, a result that
overflows float64, or a determinant whose modulus is outside the float64
range).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .angle import AngleMatrix
from .bench import append_bench_record, run_benchmark
from .core import (
    CONDITION_CAP,
    ENTRY_EPS,
    RANK_EPS,
    RESIDUAL_EPS,
    DenseMatrix,
    SingularMatrixError,
    det_lu,
    hadamard_product,
    inverse_lu,
)
from .generate import draw_angle, draw_dense, stream_generator
from .matio import (
    REPORT_SCHEMA_VERSION,
    MatrixFormatError,
    dumps_report,
    read_matrix,
    write_matrix,
    write_report,
)
from .pseudo import penrose_check, pinv_full_rank, pinv_structured
from .structured import det_structured, inverse_structured
from .verify import SUITE_NAMES, run_suites


def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _load_pair(args) -> tuple[DenseMatrix, AngleMatrix]:
    """The --matrix and --angle files, each read and checked in that order."""
    pair = []
    for path, cls, expected in ((args.matrix, DenseMatrix, "a dense matrix file (kind 'dense')"),
                                (args.angle, AngleMatrix, "an angle matrix file (kind 'angle')")):
        value = read_matrix(path)
        if not isinstance(value, cls):
            raise MatrixFormatError(f"{path}: expected {expected}")
        pair.append(value)
    return tuple(pair)


def _cmd_gen(args, argv):
    gen = stream_generator(args.seed, 0)
    if args.angle:
        value = draw_angle(gen, args.rows, args.cols)
    else:
        value = draw_dense(gen, args.rows, args.cols)
    write_matrix(args.out, value)
    print(f"wrote {args.out}")
    return 0


def _cmd_det(args, argv):
    matrix, mask = _load_pair(args)
    structured = det_structured(matrix, mask)
    oracle = det_lu(hadamard_product(matrix, mask.materialize()))
    print(f"structured: {_format_complex(structured)}")
    print(f"oracle: {_format_complex(oracle)}")
    print(f"difference: {abs(structured - oracle)!r}")
    return 0


def _cmd_solve(args, argv):
    """inv or pinv: the structured result, and with --oracle the naive one and
    the residuals of the structured result."""
    matrix, mask = _load_pair(args)
    square = args.command == "inv"
    solution = (inverse_structured if square else pinv_structured)(matrix, mask)
    if args.oracle:  # before any write, so a failing oracle leaves no --out behind
        masked = hadamard_product(matrix, mask.materialize())
        reference = (inverse_lu if square else pinv_full_rank)(masked)
    write_matrix(args.out, solution)
    print(f"wrote {args.out}")
    if args.oracle:
        oracle_path = f"{args.out}.oracle"
        write_matrix(oracle_path, reference)
        print(f"wrote {oracle_path}")
        if square:
            eye = np.eye(matrix.rows)
            print(f"left_identity_residual: {float(np.linalg.norm(solution.array @ masked.array - eye))!r}")
            print(f"right_identity_residual: {float(np.linalg.norm(masked.array @ solution.array - eye))!r}")
        else:
            print(f"penrose_worst_residual: {penrose_check(masked, solution).worst()!r}")
        print(f"oracle_diff_frobenius: {float(np.linalg.norm(solution.array - reference.array))!r}")
    return 0


def _cmd_verify(args, argv):
    started = time.perf_counter()
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, args.trials, args.seed)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": list(argv),
        "seed": args.seed,
        "trials": args.trials,
        "tolerances": {"entry_eps": ENTRY_EPS, "residual_eps": RESIDUAL_EPS,
                       "rank_eps": RANK_EPS, "condition_cap": CONDITION_CAP},
        "suites": results["suites"],
        "passed": results["passed"],
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if args.report:
        write_report(args.report, report)
        print(f"wrote {args.report}")
    else:
        sys.stdout.write(dumps_report(report))
    return 0 if results["passed"] else 1


def _cmd_bench(args, argv):
    record = run_benchmark(args.rows, args.cols, args.updates, args.seed)
    append_bench_record(args.csv, record)
    print(
        f"rows={record.rows} cols={record.cols} updates={record.updates} "
        f"structured_ns={record.structured_ns_per_update:.0f} "
        f"naive_ns={record.naive_ns_per_update:.0f} "
        f"max_residual={record.max_residual:.3e}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasealg",
        description="Closed-form inverses of phase-masked complex matrices, with naive oracles and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random matrix file")
    gen.add_argument("--rows", type=int, required=True)
    gen.add_argument("--cols", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed (default 0)")
    gen.add_argument("--angle", action="store_true", help="draw uniform phases instead of a dense matrix")
    gen.add_argument("--out", required=True, help="output path")
    gen.set_defaults(func=_cmd_gen)

    det = sub.add_parser("det", help="structured determinant vs the LU oracle")
    det.add_argument("--matrix", required=True, help="dense matrix file")
    det.add_argument("--angle", required=True, help="angle matrix file")
    det.set_defaults(func=_cmd_det)

    for name, help_text in (("inv", "structured inverse of a masked square matrix"),
                            ("pinv", "structured pseudoinverse of a masked full-rank matrix")):
        solve = sub.add_parser(name, help=help_text)
        solve.add_argument("--matrix", required=True, help="dense matrix file")
        solve.add_argument("--angle", required=True, help="angle matrix file")
        solve.add_argument("--out", required=True, help="output path for the structured result")
        solve.add_argument("--oracle", action="store_true", help="also write the naive result and print residuals")
        solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="run a randomized identity suite and write a report")
    verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True,
                        help="lemma1: conjugate-transpose duality; lemma2: determinant rotation; "
                             "lemma3: Gram and triple-product structure; thm1: structured inverse; "
                             "thm2: structured pseudoinverse")
    verify.add_argument("--trials", type=int, default=50)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--report", help="report path (default: print to stdout)")
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time structured vs naive updates, appending one CSV row")
    bench.add_argument("--rows", type=int, required=True)
    bench.add_argument("--cols", type=int, required=True)
    bench.add_argument("--updates", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", required=True, help="CSV path (header written on creation)")
    bench.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser unchanged,
    and building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, argv)
    except (SingularMatrixError, ArithmeticError, RuntimeError) as err:
        # must precede the ValueError clause: SingularMatrixError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())

