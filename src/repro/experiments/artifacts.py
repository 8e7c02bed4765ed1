"""Batch artifact generation: run experiments, write text + JSON to disk.

``python -m repro.experiments all`` prints to stdout; this module gives
the archival equivalent — one ``<id>.txt`` (the rendered report) and one
``<id>.json`` (the JSON-safe slice of the raw data) per experiment, plus
an index file, so reproduction outputs can be versioned and diffed.

Crash safety: every artifact is written atomically (temp file + fsync +
rename) with a ``.sha256`` sidecar, and experiments that support it run
against a :class:`~repro.experiments.resilience.RunLedger` under
``<output_dir>/.ledger/`` so an interrupted campaign resumes from its
completed cells.  An artifact whose bytes no longer match its sidecar is
quarantined to ``*.corrupt`` and recomputed.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.experiments.parallel import supports_kwarg, supports_workers
from repro.experiments.resilience import RunLedger, config_fingerprint, json_safe
from repro.obs import reqtrace
from repro.utils.atomicio import atomic_write_text, quarantine, verify_checksum

__all__ = ["write_artifacts"]

# Retained alias: the canonical implementation lives in resilience so the
# ledger and the artifact writer agree on one JSON-safe encoding.
_json_safe = json_safe


def _write_artifact(path: Path, text: str) -> None:
    """Atomically (re)write one artifact, quarantining a corrupted old copy."""
    if verify_checksum(path) is False:
        quarantine(path)
    atomic_write_text(path, text, checksum=True)


def write_artifacts(
    output_dir: str | Path,
    experiment_ids: list[str] | None = None,
    *,
    fast: bool = False,
    workers: int = 1,
    resume: bool = True,
    max_cells: int | None = None,
    profile: bool = False,
) -> dict[str, Path]:
    """Run the selected experiments and write their artifacts.

    Returns a map from experiment id to the written text file.  Unknown
    ids raise before anything runs.  ``workers`` is forwarded to the
    experiments that declare a ``workers`` keyword (the fan-out-capable
    harnesses); artifact bytes are identical for any worker count.  With
    ``profile=True`` each experiment runs as the root span
    ``experiment.<id>`` of a fresh trace and its per-span timings
    (:func:`repro.obs.reqtrace.span_summary`) are written to
    ``<id>.profile.json`` alongside the artifact.

    ``resume=True`` (the default) journals completed cells of
    ledger-capable experiments under ``<output_dir>/.ledger/`` and
    replays them on re-launch; ``resume=False`` ignores and overwrites
    any existing journal.  ``max_cells`` deliberately stops each
    ledger-capable experiment after that many freshly computed cells
    (raising :class:`~repro.experiments.resilience.RunInterrupted`) — the
    crash-drill knob used by the chaos tests and CI.
    """
    ids = list(EXPERIMENTS) if experiment_ids is None else list(experiment_ids)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")

    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    index = []
    for experiment_id in ids:
        fn = EXPERIMENTS[experiment_id]
        kwargs = {"fast": fast}
        if workers != 1 and supports_workers(fn):
            kwargs["workers"] = workers
        ledger = None
        if supports_kwarg(fn, "ledger"):
            ledger_path = output_dir / ".ledger" / f"{experiment_id}.jsonl"
            if resume:
                ledger = RunLedger(
                    ledger_path,
                    experiment=experiment_id,
                    fingerprint=config_fingerprint(experiment_id, fast=fast),
                )
                kwargs["ledger"] = ledger
            elif ledger_path.exists():
                ledger_path.unlink()
            if max_cells is not None and supports_kwarg(fn, "max_cells"):
                kwargs["max_cells"] = max_cells
        timer = (
            reqtrace.profiled(f"experiment.{experiment_id}") if profile else nullcontext()
        )
        try:
            with timer as spans:
                report = fn(**kwargs)
        finally:
            if ledger is not None:
                ledger.close()
        text_path = output_dir / f"{experiment_id}.txt"
        _write_artifact(text_path, str(report) + "\n")
        json_path = output_dir / f"{experiment_id}.json"
        _write_artifact(
            json_path,
            json.dumps(
                {
                    "experiment_id": report.experiment_id,
                    "title": report.title,
                    "fast": fast,
                    "data": _json_safe(report.data),
                },
                indent=2,
                sort_keys=True,
                default=repr,
            )
            + "\n",
        )
        if report.run_report is not None:
            # Run accounting is deliberately a sidecar, not artifact data:
            # it contains wall time, which must never leak into the
            # byte-deterministic artifacts.
            atomic_write_text(
                output_dir / f"{experiment_id}.run.json",
                json.dumps(report.run_report.as_dict(), indent=2, sort_keys=True) + "\n",
            )
        if profile:
            atomic_write_text(
                output_dir / f"{experiment_id}.profile.json",
                json.dumps(reqtrace.span_summary(spans), indent=2, sort_keys=True)
                + "\n",
            )
        written[experiment_id] = text_path
        index.append(f"{experiment_id}: {report.title}")
    _write_artifact(output_dir / "INDEX.txt", "\n".join(index) + "\n")
    return written
