"""Orphaned shared-memory segment detection and removal.

A POSIX shared-memory segment whose owner was SIGKILL'd (OOM killer,
``kill -9``, a crashed chaos run) survives until reboot: no finalizer,
``atexit`` hook, or service shutdown path ever ran.  The segment ledger
(:mod:`repro.backends.ledger`) records every create with the owner's
pid, which turns reaping into a simple decision per owner record:

* owner alive (``os.kill(pid, 0)`` succeeds) → leave the segment alone;
* owner dead, segment still present → unlink it and drop the record;
* owner dead, segment already gone → the record is stale; drop it.

Attach sidecar records from dead processes are swept in the same pass.
Unlinking a segment that live processes still have *attached* is safe —
the kernel keeps their mappings until the last one closes; only the
name disappears — and cannot happen for correct owners anyway, because
a live owner blocks the reap.

:func:`reap_orphans` runs at service startup, on the supervisor's
timer, and behind ``repro reap``.  It never touches segments without a
ledger record (it cannot know their owner); those are reported as
*unledgered* in the inventory instead.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backends.ledger import LedgerEntry, SegmentLedger, default_ledger
from repro.backends.sharedmem import _attach_untracked

__all__ = ["ReapReport", "SegmentRecord", "reap_orphans", "segment_inventory"]


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-uid process
        return True
    return True


def _segment_exists(name: str) -> Optional[int]:
    """Size of the named segment, or ``None`` when it does not exist."""
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return None
    size = shm.size
    shm.close()
    return size


def _unlink_segment(name: str) -> bool:
    """Remove the named segment; returns whether it was present."""
    try:
        shm = _attach_untracked(name)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - raced another reaper
        pass
    shm.close()
    return True


@dataclass(frozen=True)
class SegmentRecord:
    """One ledger owner record cross-checked against the live system."""

    name: str
    pid: int
    role: str
    owner_alive: bool
    exists: bool
    age_s: float
    nbytes: Optional[int] = None
    fingerprint: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "pid": self.pid,
            "role": self.role,
            "owner_alive": self.owner_alive,
            "exists": self.exists,
            "age_s": round(self.age_s, 3),
            "nbytes": self.nbytes,
            "fingerprint": self.fingerprint,
        }


@dataclass(frozen=True)
class ReapReport:
    """Outcome of one reap sweep (JSON-ready via :meth:`as_dict`)."""

    scanned: int                 #: owner records examined
    live: int                    #: segments whose owner is alive (kept)
    reaped: List[str] = field(default_factory=list)    #: unlinked orphans
    stale: List[str] = field(default_factory=list)     #: records w/o segment
    skipped: List[str] = field(default_factory=list)   #: younger than min age
    attach_swept: int = 0        #: dead-pid attach sidecars removed
    snapshot_tmp_swept: int = 0  #: stray ``*.tmp`` snapshot files removed
    quarantined_snapshots: int = 0       #: ``.corrupt`` snapshot and log files seen
    quarantined_ledger_records: int = 0  #: ``.corrupt`` ledger files seen
    quarantine_purged: int = 0   #: quarantined files deleted (purge mode)
    dry_run: bool = False

    @property
    def orphans(self) -> int:
        """Orphaned segments found (reaped, or reported under dry-run)."""
        return len(self.reaped)

    def as_dict(self) -> Dict[str, object]:
        return {
            "scanned": self.scanned,
            "live": self.live,
            "reaped": list(self.reaped),
            "stale": list(self.stale),
            "skipped": list(self.skipped),
            "attach_swept": self.attach_swept,
            "snapshot_tmp_swept": self.snapshot_tmp_swept,
            "quarantined_snapshots": self.quarantined_snapshots,
            "quarantined_ledger_records": self.quarantined_ledger_records,
            "quarantine_purged": self.quarantine_purged,
            "dry_run": self.dry_run,
        }

    def format(self) -> str:
        """Human-readable one-sweep summary."""
        verb = "would reap" if self.dry_run else "reaped"
        lines = [
            "scanned:".ljust(15) + f"{self.scanned} owner record(s), "
            f"{self.live} live",
            f"{verb}:".ljust(15) + f"{len(self.reaped)} orphaned segment(s)",
        ]
        for name in self.reaped:
            lines.append(f"  - {name}")
        if self.stale:
            lines.append(f"stale records: {len(self.stale)} dropped")
        if self.skipped:
            lines.append(f"skipped:      {len(self.skipped)} (younger than min age)")
        if self.attach_swept:
            lines.append(f"attach sweeps: {self.attach_swept} dead-pid sidecar(s)")
        if self.snapshot_tmp_swept:
            lines.append(
                f"tmp sweeps:    {self.snapshot_tmp_swept} stray snapshot "
                f"temp file(s)"
            )
        quarantined = self.quarantined_snapshots + self.quarantined_ledger_records
        if quarantined or self.quarantine_purged:
            verb = "purged" if self.quarantine_purged else "held"
            lines.append(
                f"quarantine:    {quarantined} corrupt file(s) "
                f"({self.quarantined_snapshots} snapshot, "
                f"{self.quarantined_ledger_records} ledger), "
                f"{self.quarantine_purged} {verb}"
            )
        return "\n".join(lines)


def segment_inventory(
    ledger: Optional[SegmentLedger] = None,
) -> List[SegmentRecord]:
    """Every ledgered owner record, cross-checked against pids and /dev/shm."""
    ledger = ledger or default_ledger()
    now = time.time()
    out: List[SegmentRecord] = []
    for entry in ledger.owners():
        size = _segment_exists(entry.name)
        out.append(SegmentRecord(
            name=entry.name,
            pid=entry.pid,
            role=entry.role,
            owner_alive=_pid_alive(entry.pid),
            exists=size is not None,
            age_s=max(now - entry.created, 0.0),
            nbytes=size if size is not None else entry.nbytes,
            fingerprint=entry.fingerprint,
        ))
    return out


def reap_orphans(
    ledger: Optional[SegmentLedger] = None,
    *,
    min_age_s: float = 0.0,
    dry_run: bool = False,
    snapshot_dir: Optional[str] = None,
    purge_quarantine: bool = False,
) -> ReapReport:
    """One reap sweep over the ledger; returns what was (or would be) done.

    *min_age_s* skips records younger than the threshold — a guard
    against racing a segment whose owner record and process are still
    being set up (pid reuse in the window between fork and record is the
    only way a dead-pid young record can be wrong).  ``dry_run=True``
    reports orphans without unlinking anything.

    With *snapshot_dir* the sweep also covers session-snapshot debris:
    stray ``*.tmp`` files (a writer killed between ``mkstemp`` and
    ``os.replace``) are removed and counted, and quarantined
    ``.corrupt`` files — session snapshot and log, and ledger — are
    counted.  Quarantine
    is *held* for inspection (``repro recover``) unless
    ``purge_quarantine=True`` explicitly deletes it.
    """
    ledger = ledger or default_ledger()
    snapshot_tmp_swept = quarantined_snapshots = 0
    quarantine_purged = 0
    if snapshot_dir is not None and not dry_run:
        from repro.dynamic.store import SnapshotStore

        store = SnapshotStore(snapshot_dir)  # construction sweeps *.tmp
        snapshot_tmp_swept = store.tmp_swept
        quarantined_snapshots = len(store.corrupt_files())
        if purge_quarantine:
            quarantine_purged += len(store.sweep_corrupt())
    entries: List[LedgerEntry] = ledger.entries()
    reaped: List[str] = []
    stale: List[str] = []
    skipped: List[str] = []
    scanned = live = attach_swept = 0
    for entry in entries:
        alive = _pid_alive(entry.pid)
        if entry.record == "attach":
            if not alive and not dry_run:
                ledger.forget_attach(entry.name, pid=entry.pid)
                attach_swept += 1
            continue
        scanned += 1
        if alive:
            live += 1
            continue
        if entry.age_s < min_age_s:
            skipped.append(entry.name)
            continue
        if dry_run:
            if _segment_exists(entry.name) is not None:
                reaped.append(entry.name)
            else:
                stale.append(entry.name)
            continue
        if _unlink_segment(entry.name):
            reaped.append(entry.name)
        else:
            stale.append(entry.name)
        ledger.forget(entry.name)
    # Counted after the scan: entries() itself quarantines corrupt records.
    quarantined_ledger = len(ledger.corrupt_files())
    if purge_quarantine and not dry_run:
        quarantine_purged += len(ledger.sweep_corrupt())
    return ReapReport(
        scanned=scanned,
        live=live,
        reaped=sorted(reaped),
        stale=sorted(stale),
        skipped=sorted(skipped),
        attach_swept=attach_swept,
        snapshot_tmp_swept=snapshot_tmp_swept,
        quarantined_snapshots=quarantined_snapshots,
        quarantined_ledger_records=quarantined_ledger,
        quarantine_purged=quarantine_purged,
        dry_run=dry_run,
    )
