"""CLI entry point: ``python -m repro.experiments <id> [--fast] [--workers N]``.

Exit codes: 0 on success, 2 on argument errors (argparse), and 3 when a
run stops deliberately before completing every cell (``--max-cells``) —
the completed cells are journaled and re-running the same command
resumes from them.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.experiments.parallel import resolve_workers, supports_workers
from repro.experiments.resilience import RunInterrupted, RunReport
from repro.obs import reqtrace

#: Exit code for a deliberate partial run (``--max-cells`` spent).
EXIT_INTERRUPTED = 3


def _print_run_sidecars(output_dir: str, ids: list[str]) -> None:
    """Echo each experiment's run accounting (resume/retry counts) to stderr."""
    for experiment_id in ids:
        sidecar = Path(output_dir) / f"{experiment_id}.run.json"
        if not sidecar.exists():
            continue
        try:
            doc = json.loads(sidecar.read_text())
            summary = RunReport(**doc).summary()
        except (ValueError, TypeError):
            continue
        print(f"{experiment_id} {summary}", file=sys.stderr)


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
        default=None,
        help="worker processes for fan-out-capable experiments "
        "(default: REPRO_WORKERS env var or 1 = serial; 0 = one per CPU). "
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
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="stop after N freshly computed cells (exit code 3); completed "
        "cells are journaled, so re-running resumes where this run stopped. "
        "Requires --output-dir (the journal lives under it).",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore and discard any existing run journal under --output-dir; "
        "recompute every cell from scratch",
    )
    args = parser.parse_args(argv)
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    if args.max_cells is not None and not args.output_dir:
        parser.error("--max-cells requires --output-dir (the run journal lives there)")
    if args.max_cells is not None and args.max_cells < 0:
        parser.error("--max-cells must be >= 0")

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.output_dir:
        from repro.experiments.artifacts import write_artifacts

        try:
            written = write_artifacts(
                args.output_dir,
                ids,
                fast=args.fast,
                workers=workers,
                resume=not args.no_resume,
                max_cells=args.max_cells,
                profile=args.profile,
            )
        except RunInterrupted as exc:
            print(
                f"partial run: {exc} (exit {EXIT_INTERRUPTED}); "
                f"re-run the same command without --max-cells to finish",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
        for experiment_id, path in written.items():
            print(path.read_text())
        _print_run_sidecars(args.output_dir, ids)
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
        if report.run_report is not None:
            print(report.run_report.summary(), file=sys.stderr)
        if args.profile:
            print()
            print(reqtrace.format_span_summary(reqtrace.span_summary(spans)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
