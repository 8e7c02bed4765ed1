"""Crash-safe run orchestration: ledger, run reports, retry backoff.

Long experiment campaigns (fig9/fig10 sweeps, measured replays,
sensitivity grids) are fan-outs of independent, deterministic *cells*.
This module makes those campaigns survivable:

* :class:`RunLedger` — an append-only JSONL journal keyed by
  ``(experiment, config fingerprint, cell key)``.  Each completed cell's
  JSON-safe result is appended (with a sha256 of its canonical encoding)
  and fsynced, so a crash, ``SIGKILL`` or Ctrl-C loses at most the cell
  that was in flight.  A re-launched run replays finished cells from the
  ledger and computes only the missing ones; because cells are
  deterministic, the resumed artifact is byte-identical to an
  uninterrupted run's.
* :class:`RunReport` — the structured account of what one orchestrated
  run actually did (cells resumed/computed/failed, retries, backoff
  waits, pool replacements, serial degradation), attached to
  :class:`~repro.experiments.base.ExperimentReport` and written next to
  artifacts as ``<id>.run.json``.  Deliberately kept *out* of the main
  artifact JSON: wall time is non-deterministic and artifact bytes must
  not be.
* :func:`backoff_delays` — capped exponential retry backoff with
  *seeded* jitter, so two runs of the same campaign wait the same
  amounts (determinism extends even to failure handling).

Resume semantics
----------------

A ledger is bound to one ``(experiment, fingerprint)`` pair, where the
fingerprint hashes every knob that affects cell *values* (``fast``,
ledger format version...).  Opening an existing ledger file
written under a different pair quarantines it to ``*.corrupt`` and
starts fresh — stale state can slow a run down, but can never leak into
its results.  A truncated trailing line (the signature of dying
mid-append) is discarded and the file healed in place; any deeper
corruption (bad JSON, wrong hash) discards that entry and everything
after it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.utils.atomicio import quarantine
from repro.utils.rng import stable_seed

__all__ = [
    "FailureBudgetExceeded",
    "LEDGER_FORMAT",
    "RunInterrupted",
    "RunLedger",
    "RunReport",
    "backoff_delays",
    "config_fingerprint",
    "json_safe",
    "resolve_backoff",
]

LEDGER_FORMAT = 1


def json_safe(value):
    """Best-effort conversion of result data to JSON-representable types."""
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return repr(value)


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_fingerprint(experiment_id: str, **knobs) -> str:
    """Stable hex fingerprint of an experiment id plus its value-affecting knobs.

    Two runs share a ledger exactly when their fingerprints match, so any
    knob that changes what a cell *returns* (``fast``, workload
    selection...) must be included; pure wall-clock knobs
    (``workers``, ``progress``) must not be.
    """
    payload = _canonical(
        {"experiment": experiment_id, "format": LEDGER_FORMAT, "knobs": json_safe(knobs)}
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class RunInterrupted(RuntimeError):
    """A run stopped deliberately before completing every cell.

    Raised by ``parallel_map(max_cells=N)`` once the budget of freshly
    computed cells is spent.  Everything completed so far is in the
    ledger; re-running the same command resumes where this run stopped.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"run interrupted after {completed}/{total} cells; "
            "re-run with the same ledger to resume"
        )
        self.completed = completed
        self.total = total


class FailureBudgetExceeded(RuntimeError):
    """The run-wide budget of failed cell attempts was spent."""

    def __init__(self, budget: int, causes: list[str]) -> None:
        detail = "; ".join(causes[-3:]) or "no recorded causes"
        super().__init__(
            f"run failure budget of {budget} attempt(s) exceeded (last causes: {detail})"
        )
        self.budget = budget
        self.causes = causes


@dataclass
class RunReport:
    """What one orchestrated run actually did, beyond its artifact bytes."""

    cells_total: int = 0  #: cells the campaign comprises
    cells_resumed: int = 0  #: replayed from the ledger without recomputing
    cells_computed: int = 0  #: computed fresh (and journaled, if ledgered)
    cells_failed: int = 0  #: exhausted their retry budget (``on_failure="none"``)
    retries: int = 0  #: failed attempts that were retried
    backoff_seconds: float = 0.0  #: total time slept between retries
    pool_replacements: int = 0  #: process pools replaced after crash/timeout
    degraded_serial: bool = False  #: fell back to in-process serial execution
    failure_causes: list[str] = field(default_factory=list)  #: recent causes (capped)
    wall_seconds: float = 0.0  #: harness wall-clock (non-deterministic)

    _MAX_CAUSES = 8

    def record_failure(self, cause: BaseException) -> None:
        self.failure_causes.append(f"{type(cause).__name__}: {cause}")
        del self.failure_causes[: -self._MAX_CAUSES]

    def as_dict(self) -> dict:
        return json_safe(asdict(self))

    def summary(self) -> str:
        """One-line human account for the CLI."""
        parts = [
            f"{self.cells_computed}/{self.cells_total} cells computed",
            f"{self.cells_resumed} resumed",
        ]
        if self.retries:
            parts.append(f"{self.retries} retried ({self.backoff_seconds:.2f}s backoff)")
        if self.cells_failed:
            parts.append(f"{self.cells_failed} FAILED")
        if self.pool_replacements:
            parts.append(f"{self.pool_replacements} pool replacement(s)")
        if self.degraded_serial:
            parts.append("degraded to serial")
        parts.append(f"{self.wall_seconds:.2f}s")
        return "run: " + ", ".join(parts)


class RunLedger:
    """Append-only JSONL journal of completed cell results.

    Line 1 is a header binding the file to one ``(experiment,
    fingerprint)`` pair; every further line is one completed cell::

        {"kind": "ledger", "v": 1, "experiment": "fig9", "fingerprint": "..."}
        {"cell": "C1", "sha256": "...", "result": {...}}

    :meth:`record` returns the *canonical* (JSON-round-tripped) result,
    and callers use that return value in place of the original object, so
    fresh and resumed cells flow through identical representations and
    downstream artifacts cannot depend on which path produced a value.
    """

    def __init__(self, path: str | Path, *, experiment: str, fingerprint: str) -> None:
        self.path = Path(path)
        self.experiment = experiment
        self.fingerprint = fingerprint
        self._entries: dict[str, object] = {}
        self._fh = None
        self.recovered_from: Path | None = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._load()

    # -- reading ---------------------------------------------------------

    def _header_line(self) -> str:
        return _canonical(
            {
                "kind": "ledger",
                "v": LEDGER_FORMAT,
                "experiment": self.experiment,
                "fingerprint": self.fingerprint,
            }
        )

    def _load(self) -> None:
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if not raw.strip():
            return  # empty file: treat as a fresh ledger, not corruption
        # Drop the final split element uniformly: it is b"" when the file
        # ends on a newline, and an unterminated tail (the signature of
        # dying mid-append, before the newline was durable) otherwise —
        # either way it is not a complete journaled record.
        lines = raw.split(b"\n")[:-1]
        header_ok = False
        good_bytes = 0
        entries: dict[str, object] = {}
        for lineno, line in enumerate(lines):
            if not line:
                break  # blank line mid-file: corruption, keep the good prefix
            try:
                doc = json.loads(line)
            except ValueError:
                break  # truncated/corrupt from here on; keep the good prefix
            if lineno == 0:
                if line.decode(errors="replace") != self._header_line():
                    break  # different experiment/config/format: start over
                header_ok = True
            else:
                if (
                    not isinstance(doc, dict)
                    or "cell" not in doc
                    or "result" not in doc
                    or doc.get("sha256")
                    != hashlib.sha256(_canonical(doc["result"]).encode()).hexdigest()
                ):
                    break  # damaged entry poisons everything after it
                entries[str(doc["cell"])] = doc["result"]
            good_bytes += len(line) + 1
        if not header_ok:
            self.recovered_from = quarantine(self.path)
            return
        if good_bytes < len(raw):
            # Heal in place: drop the partial/corrupt tail so the next
            # append starts on a clean line boundary.
            with open(self.path, "r+b") as fh:
                fh.truncate(good_bytes)
        self._entries = entries

    # -- writing ---------------------------------------------------------

    def _ensure_open(self):
        if self._fh is None:
            new = not self.path.exists() or self.path.stat().st_size == 0
            self._fh = open(self.path, "a")
            if new:
                self._fh.write(self._header_line() + "\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
        return self._fh

    def record(self, cell_key: str, result) -> object:
        """Journal one completed cell; returns the canonical result."""
        cell_key = str(cell_key)
        safe = json.loads(_canonical(json_safe(result)))
        fh = self._ensure_open()
        fh.write(
            _canonical(
                {
                    "cell": cell_key,
                    "sha256": hashlib.sha256(_canonical(safe).encode()).hexdigest(),
                    "result": safe,
                }
            )
            + "\n"
        )
        fh.flush()
        os.fsync(fh.fileno())
        self._entries[cell_key] = safe
        return safe

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries ---------------------------------------------------------

    def __contains__(self, cell_key: str) -> bool:
        return str(cell_key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cell_key: str):
        return self._entries[str(cell_key)]


# ----------------------------------------------------------------------
# Retry backoff
# ----------------------------------------------------------------------

#: Default capped exponential backoff: base 0.05s doubling to a 2s cap.
DEFAULT_BACKOFF = (0.05, 2.0)


def resolve_backoff(backoff=None) -> tuple[float, float]:
    """Normalise a backoff knob to ``(base_seconds, cap_seconds)``.

    ``None`` falls back to the ``REPRO_RETRY_BACKOFF`` environment
    variable (``"base"`` or ``"base:cap"``; ``"0"`` disables), then to
    :data:`DEFAULT_BACKOFF`.  A bare float is a base with the default
    cap.
    """
    if backoff is None:
        raw = os.environ.get("REPRO_RETRY_BACKOFF", "")
        if raw:
            parts = raw.split(":")
            try:
                base = float(parts[0])
                cap = float(parts[1]) if len(parts) > 1 else max(base, DEFAULT_BACKOFF[1])
            except ValueError:
                raise ValueError(
                    f"REPRO_RETRY_BACKOFF must be 'base' or 'base:cap', got {raw!r}"
                ) from None
            backoff = (base, cap)
        else:
            backoff = DEFAULT_BACKOFF
    if isinstance(backoff, (int, float)):
        backoff = (float(backoff), max(float(backoff), DEFAULT_BACKOFF[1]))
    base, cap = float(backoff[0]), float(backoff[1])
    if base < 0 or cap < base:
        raise ValueError(f"backoff must satisfy 0 <= base <= cap, got {(base, cap)}")
    return base, cap


def backoff_delays(index: int, attempt: int, backoff: tuple[float, float]) -> float:
    """Delay before retry ``attempt`` (1-based) of cell ``index``.

    Capped exponential with deterministic jitter: the raw delay
    ``base * 2**(attempt-1)`` is clamped to ``cap`` and scaled by a
    factor in ``[0.5, 1.0)`` derived from ``stable_seed`` — the same
    (cell, attempt) always waits the same time, but concurrent cells
    never thunder in lockstep.
    """
    base, cap = backoff
    if base <= 0:
        return 0.0
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    jitter = (stable_seed("backoff", index, attempt) % 10**6) / 10**6
    return raw * (0.5 + 0.5 * jitter)
