"""CLI entry point: ``python -m repro.experiments <id> [--fast] [--profile]``.

Exit codes: 0 on success, 2 on argument errors (argparse).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import EXPERIMENTS, run_experiments
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
        "--profile",
        action="store_true",
        help="print per-span timings (e.g. sss.swap, noc.measure) per experiment; "
        "with --output-dir, also write them to <id>.profile.json",
    )
    parser.add_argument(
        "--output-dir",
        help="also write <id>.txt / <id>.json artifacts into this directory",
    )
    args = parser.parse_args(argv)

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.output_dir:
        from repro.experiments.artifacts import write_artifacts

        written = write_artifacts(args.output_dir, ids, fast=args.fast, profile=args.profile)
        for path in written.values():
            print(path.read_text())
        print(f"artifacts written to {args.output_dir}")
        return 0
    for _, report, spans in run_experiments(ids, fast=args.fast, profile=args.profile):
        print(report)
        if spans is not None:
            print()
            print(reqtrace.format_span_summary(spans))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
