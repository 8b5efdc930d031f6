"""The one atomic-write path (``repro.diskio.durable``)."""

import os

import pytest

from repro.cluster import plan_manifest
from repro.core.manifest import MANIFEST_NAME, Manifest, load_manifest, save_manifest
from repro.diskio import durable


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "doc.json"
    durable.atomic_write(str(path), "one")
    durable.atomic_write(str(path), "two")
    assert path.read_text() == "two"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_replace_keeps_old_file_and_removes_temp(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    durable.atomic_write(str(path), "old")

    def broken_replace(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="injected"):
        durable.atomic_write(str(path), "new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_publishers_go_through_atomic_write(tmp_path, monkeypatch):
    """Engine and cluster manifests both publish via ``atomic_write``
    (so both fsync the temp and remove it on failure)."""
    written = []
    real = durable.atomic_write

    def spy(path, text, **kwargs):
        written.append(os.path.basename(path))
        real(path, text, **kwargs)

    monkeypatch.setattr("repro.core.manifest.atomic_write", spy)
    monkeypatch.setattr("repro.cluster.manifest.atomic_write", spy)
    save_manifest(str(tmp_path), Manifest(checkpoint_blk=3))
    plan_manifest(1, 1).save(str(tmp_path / "cluster.json"))
    assert written == [MANIFEST_NAME, "cluster.json"]
    assert load_manifest(str(tmp_path)).checkpoint_blk == 3
    assert sorted(os.listdir(tmp_path)) == ["MANIFEST.json", "cluster.json"]
