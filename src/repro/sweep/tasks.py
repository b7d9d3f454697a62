"""Deterministic demo tasks for the sweep fabric's tests.

The fabric's ``callable`` manifest source rebuilds tasks from
``"pkg.mod:name"`` strings, so worker *subprocesses* need an importable
module holding the poison, flaky and slow functions the fabric's tests
sweep over.  Everything here is a pure function of its JSON-able
kwargs — equal kwargs produce byte-identical results, which is what
lets a killed-and-resumed sweep merge to the same document as an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict


def checksum(label: str, seed: int, rounds: int = 1000) -> Dict[str, Any]:
    """Deterministic busywork: iterated SHA-256 over the kwargs.

    ``rounds`` tunes wall time (about 1ms per 1000 rounds), so kill
    tests can widen the window in which a kill lands mid-task without
    touching the result, which depends only on ``label``/``seed``/
    ``rounds``.
    """
    digest = f"{label}:{seed}:{rounds}".encode("utf-8")
    for _ in range(rounds):
        digest = hashlib.sha256(digest).digest()
    return {"label": label, "seed": seed, "rounds": rounds,
            "digest": digest.hex()}


def slow_checksum(label: str, seed: int, rounds: int = 1000,
                  wall_s: float = 0.5) -> Dict[str, Any]:
    """:func:`checksum` padded to at least ``wall_s`` wall seconds.

    The sleep is host-side pacing only — it widens the kill window for
    kill tests and never reaches the result payload, so resumed
    sweeps still merge byte-identically.
    """
    started = time.monotonic()  # simlint: allow[D103] chaos-drill pacing
    result = checksum(label, seed, rounds)
    remaining = wall_s - (time.monotonic() - started)  # simlint: allow[D103] chaos-drill pacing
    if remaining > 0:
        time.sleep(remaining)
    return result


def always_fails(label: str, message: str = "synthetic failure"
                 ) -> Dict[str, Any]:
    """Deterministic casualty: raises on every attempt.

    Exercises the retry-then-quarantine path; the sweep should park it
    and keep going rather than wedge the sweep.
    """
    raise ValueError(f"{label}: {message}")


def flaky(label: str, counter: str, fail_first: int = 1
          ) -> Dict[str, Any]:
    """Transient casualty: fails its first ``fail_first`` attempts.

    ``counter`` is a scratch file tracking the attempt count across
    calls, so tests can assert the worker's in-process retry/backoff
    loop (not the fabric) healed the task.  Deliberately impure —
    never use it where byte-identical resumption is being asserted.
    """
    import os
    count = 0
    if os.path.exists(counter):
        with open(counter, "r", encoding="utf-8") as handle:
            count = int(handle.read().strip() or 0)
    count += 1
    with open(counter, "w", encoding="utf-8") as handle:
        handle.write(str(count))
    if count <= fail_first:
        raise RuntimeError(f"{label}: transient failure #{count}")
    return {"label": label, "attempts": count}
