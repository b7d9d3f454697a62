"""Shard leases: one ``flock`` per shard, held while a worker runs it.

A worker owns shard ``key`` while it holds an exclusive, non-blocking
``fcntl.flock`` on ``leases/<key>.lock``.  Closing the descriptor drops
the lock, and so does the holder's death, ``kill -9`` included, so a
dead worker's shard is free at once: no clock, renewal or timeout.

* **Claim** opens the file and tries the lock; a live holder makes it
  fail.  The winner writes ``{"worker": id, "pid": pid}`` into the
  file, for display only: not fsynced, never trusted for ownership.
* **Release** closes the descriptor.
* **Probe** (:meth:`LeaseStore.holders`) tries the lock from a fresh
  descriptor: taking it means free (unlock at once), failing means
  held.  ``flock`` locks belong to the open file description, so this
  is right inside the holder's own process too.  A probe may make a
  claimer skip that shard for one scan; the idle back-off retries it.

Lock files are never unlinked: unlinking a locked path races a
concurrent ``open``, which could then lock a second inode under the
same name, and a leftover unlocked file is free by definition.
``flock`` is local to one host: the fabric is single-host and POSIX.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union


@dataclass
class Lease:
    """One claimed shard: the descriptor holding its lock."""

    key: str
    fd: Optional[int]


def _try_lock(path: Path) -> Optional[int]:
    """A descriptor holding ``path``'s lock, or None if someone has it."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fd
    except OSError as exc:
        os.close(fd)
        if isinstance(exc, BlockingIOError):
            return None
        raise


class LeaseStore:
    """Claim, release and probe the shard locks under one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def claim(self, key: str, worker_id: str) -> Optional[Lease]:
        """Lock shard ``key``; None means a live holder has it."""
        fd = _try_lock(self.directory / f"{key}.lock")
        if fd is None:
            return None
        try:
            os.ftruncate(fd, 0)
            os.write(fd, json.dumps({"worker": worker_id,
                                     "pid": os.getpid()}).encode())
        except OSError:
            os.close(fd)
            raise
        return Lease(key=key, fd=fd)

    def release(self, lease: Lease) -> None:
        """Close the lease's descriptor, dropping the lock (idempotent)."""
        if lease.fd is not None:
            os.close(lease.fd)
            lease.fd = None

    def holders(self) -> Dict[str, Dict[str, Any]]:
        """Held shard key → its record (worker ``?`` if unreadable)."""
        held: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.directory.glob("*.lock")):
            fd = _try_lock(path)
            if fd is not None:
                os.close(fd)        # Free: the probe's lock goes too.
                continue
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                record = None
            if not isinstance(record, dict) or "worker" not in record:
                record = {"worker": "?"}
            held[path.stem] = record
        return held
