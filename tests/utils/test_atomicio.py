"""Tests of atomic artifact writes, checksum sidecars and quarantine."""

from __future__ import annotations

import pytest

from repro.utils.atomicio import (
    atomic_open,
    atomic_write_text,
    checksum_path,
    quarantine,
    sha256_of,
    verify_checksum,
)


class TestAtomicIO:
    def test_atomic_write_and_checksum(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_text(path, '{"x": 1}\n', checksum=True)
        assert path.read_text() == '{"x": 1}\n'
        assert verify_checksum(path) is True
        sidecar = checksum_path(path)
        assert sidecar.read_text() == f"{sha256_of(path)}  a.json\n"

    def test_failed_write_leaves_original_untouched(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("partial garbage")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "original"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_verify_detects_corruption(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "good bytes", checksum=True)
        path.write_text("evil bytes")
        assert verify_checksum(path) is False
        assert verify_checksum(tmp_path / "missing.txt") is None

    def test_quarantine_moves_file_and_sidecar(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "damaged", checksum=True)
        target = quarantine(path)
        assert target == tmp_path / "a.txt.corrupt"
        assert target.exists() and not path.exists()
        assert not checksum_path(path).exists()
        assert (tmp_path / "a.txt.corrupt.sha256").exists()
