"""CLI entry point: ``python -m repro.experiments <id> [--fast] [--workers N]``.

Exit codes: 0 on success, 2 on argument errors (argparse).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from contextlib import nullcontext

from repro.experiments import EXPERIMENTS
from repro.experiments.parallel import resolve_workers, supports_workers
from repro.obs import reqtrace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="artifact id (e.g. table1, fig9) or 'all'",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shrink stochastic search budgets (for smoke runs)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for fan-out-capable experiments "
        "(default 1 = serial; 0 = one per CPU). "
        "Results are identical for any worker count.",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-span timings (e.g. sss.swap, noc.measure) per experiment; "
        "with --output-dir, also write them to <id>.profile.json",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report per-cell completion on stderr (fan-out-capable experiments)",
    )
    parser.add_argument(
        "--output-dir",
        help="also write <id>.txt / <id>.json artifacts into this directory",
    )
    args = parser.parse_args(argv)
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.output_dir:
        from repro.experiments.artifacts import write_artifacts

        written = write_artifacts(
            args.output_dir, ids, fast=args.fast, workers=workers, profile=args.profile
        )
        for path in written.values():
            print(path.read_text())
        print(f"artifacts written to {args.output_dir}")
        return 0
    for experiment_id in ids:
        fn = EXPERIMENTS[experiment_id]
        kwargs = {"fast": args.fast}
        if workers != 1 and supports_workers(fn):
            kwargs["workers"] = workers
        if args.progress and "progress" in inspect.signature(fn).parameters:
            kwargs["progress"] = True
        timer = (
            reqtrace.profiled(f"experiment.{experiment_id}") if args.profile else nullcontext()
        )
        with timer as spans:
            report = fn(**kwargs)
        print(report)
        if args.profile:
            print()
            print(reqtrace.format_span_summary(reqtrace.span_summary(spans)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
