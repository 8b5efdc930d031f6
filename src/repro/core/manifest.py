"""The on-disk manifest: COLE's commit record (Section 4.3).

``root_hash_list`` must survive crashes: a level merge only becomes
visible when the manifest naming the new run is atomically replaced
(write-to-temp + rename).  On recovery, any file not named by the manifest
belongs to an unfinished merge and is deleted; the in-memory level is
rebuilt by replaying transactions after ``checkpoint_blk``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List

from repro.diskio.durable import atomic_write

MANIFEST_NAME = "MANIFEST.json"


@dataclass(frozen=True)
class RunRecord:
    """Manifest entry describing one committed run."""

    name: str
    level: int
    num_entries: int
    merkle_root_hex: str


@dataclass
class Manifest:
    """Serializable snapshot of the committed on-disk structure."""

    checkpoint_blk: int = -1
    checkpoint_puts: int = 0
    next_run_seq: int = 0
    async_merge: bool = False
    # Compaction policy the store was committed under ("" on manifests
    # predating the policy layer, which were all leveling), plus the
    # cumulative write-amplification counters it accrued — persisted so
    # a cold `repro query compaction` answers without replaying history.
    compaction: str = ""
    bytes_flushed: int = 0
    bytes_rewritten: int = 0
    # output paper-level -> cumulative merge bytes written onto it
    level_bytes_rewritten: Dict[int, int] = field(default_factory=dict)
    # level index -> {"writing": [RunRecord...], "merging": [RunRecord...]}
    levels: Dict[int, Dict[str, List[RunRecord]]] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "checkpoint_blk": self.checkpoint_blk,
            "checkpoint_puts": self.checkpoint_puts,
            "next_run_seq": self.next_run_seq,
            "async_merge": self.async_merge,
            "compaction": self.compaction,
            "bytes_flushed": self.bytes_flushed,
            "bytes_rewritten": self.bytes_rewritten,
            "level_bytes_rewritten": {
                str(level): total
                for level, total in self.level_bytes_rewritten.items()
            },
            "levels": {
                str(level): {
                    role: [vars(record) for record in records]
                    for role, records in groups.items()
                }
                for level, groups in self.levels.items()
            },
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        payload = json.loads(text)
        levels: Dict[int, Dict[str, List[RunRecord]]] = {}
        for level_str, groups in payload["levels"].items():
            levels[int(level_str)] = {
                role: [RunRecord(**record) for record in records]
                for role, records in groups.items()
            }
        return cls(
            checkpoint_blk=payload["checkpoint_blk"],
            checkpoint_puts=payload.get("checkpoint_puts", 0),
            next_run_seq=payload["next_run_seq"],
            async_merge=payload["async_merge"],
            compaction=payload.get("compaction", ""),
            bytes_flushed=payload.get("bytes_flushed", 0),
            bytes_rewritten=payload.get("bytes_rewritten", 0),
            level_bytes_rewritten={
                int(level): total
                for level, total in payload.get("level_bytes_rewritten", {}).items()
            },
            levels=levels,
        )


def save_manifest(root: str, manifest: Manifest) -> None:
    """Atomically replace the manifest (its contents fsynced).

    No directory fsync: this runs on the block-commit path of every
    cascade, where one cost up to ~8 ms (p90) on ext4 and moved the
    chain-smallbank block p90 by more than its 25% bound.  On a file
    system that journals metadata in order (ext4), the rename is durable
    no later than the obsolete-run unlinks and WAL truncation after it.
    """
    atomic_write(
        os.path.join(root, MANIFEST_NAME), manifest.to_json(), sync_dir=False
    )


def load_manifest(root: str) -> Manifest:
    """Load the manifest, or an empty one if none was ever committed."""
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        return Manifest()
    with open(path, "r", encoding="utf-8") as handle:
        return Manifest.from_json(handle.read())
