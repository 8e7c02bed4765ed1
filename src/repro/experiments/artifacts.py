"""Batch artifact generation: run experiments, write text + JSON to disk.

``python -m repro.experiments all`` prints to stdout; this module gives
the archival equivalent — one ``<id>.txt`` (the rendered report) and one
``<id>.json`` (the JSON-safe slice of the raw data) per experiment, plus
an index file, so reproduction outputs can be versioned and diffed.

Every artifact is written atomically (temp file + fsync + rename) with a
``.sha256`` sidecar; an artifact whose bytes no longer match its sidecar
is quarantined to ``*.corrupt`` before it is rewritten.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import EXPERIMENTS, run_experiments
from repro.experiments.resilience import json_safe
from repro.utils.atomicio import atomic_write_text, quarantine, verify_checksum

__all__ = ["write_artifacts"]


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
    profile: bool = False,
) -> dict[str, Path]:
    """Run the selected experiments and write their artifacts.

    Returns a map from experiment id to the written text file.  Unknown
    ids raise before anything runs.  The experiments run through
    :func:`~repro.experiments.run_experiments`, each once; with
    ``profile=True`` each one's per-span timings are written to
    ``<id>.profile.json`` alongside the artifact.
    """
    ids = list(EXPERIMENTS) if experiment_ids is None else list(experiment_ids)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")

    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    index = []
    for experiment_id, report, spans in run_experiments(ids, fast=fast, profile=profile):
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
                    "data": json_safe(report.data),
                },
                indent=2,
                sort_keys=True,
                default=repr,
            )
            + "\n",
        )
        if profile:
            atomic_write_text(
                output_dir / f"{experiment_id}.profile.json",
                json.dumps(spans, indent=2, sort_keys=True) + "\n",
            )
        written[experiment_id] = text_path
        index.append(f"{experiment_id}: {report.title}")
    _write_artifact(output_dir / "INDEX.txt", "\n".join(index) + "\n")
    return written
