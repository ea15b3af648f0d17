"""Content-addressed certificate store (memory LRU over a journal).

Certificates are keyed by the runner's salted task fingerprints
(:func:`repro.runner.task_fingerprint`): the key is a SHA-256 over the
exact request data — the SHA-256 of the matrix's little-endian float64
bytes with its dtype and shape, method, backend, validator, rounding
level — plus :data:`repro.runner.JOURNAL_SALT`. That makes the store
*content-addressed*: two requests hit the same entry iff their specs
are identical, with float64 entries compared bit for bit (so ``-0.0``
and ``0.0`` differ), and a salt bump (result semantics changed)
silently invalidates every old entry because all fingerprints move.
Entries written when the matrix was keyed by its entries as
tagged-JSON values still load, but no request matches them any more.

Two tiers:

* an in-memory LRU (``capacity`` entries, ``None`` = unbounded) serving
  repeat requests without touching disk, with hit/miss/eviction
  counters;
* an optional on-disk tier in the journal's own format — an
  append-only fsync'd JSONL file written through
  :class:`repro.runner.Journal`, so a store file is literally a task
  journal (torn-tail repair, last-wins duplicate resolution, exact
  tagged-JSON round-trip) and can be inspected or replayed with the
  same tooling.
"""

from __future__ import annotations

import pathlib
import threading
from collections import OrderedDict
from typing import Any

from ..runner import Journal

__all__ = ["CertificateStore"]


class CertificateStore:
    """LRU + journal-backed store of certificates by fingerprint.

    ``path=None`` keeps the store memory-only (useful for tests and
    fuzz workers). With a path, existing entries are loaded on open
    (``resume`` semantics: last-wins) and every :meth:`put` appends one
    fsync'd JSONL record. Thread-safe: the service's single-flight
    dedup calls into the store from multiple threads.
    """

    def __init__(
        self,
        path: str | pathlib.Path | None = None,
        capacity: int | None = 1024,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None)")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._journal: Journal | None = None
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0
        if path is not None:
            self._journal = Journal(path, resume=True)

    # -- reading -------------------------------------------------------

    def get(self, fingerprint: str):
        """The stored certificate for ``fingerprint``, or ``None``.

        A memory hit refreshes LRU recency; a disk hit promotes the
        entry into the memory tier.
        """
        with self._lock:
            if fingerprint in self._memory:
                self._memory.move_to_end(fingerprint)
                self.memory_hits += 1
                return self._memory[fingerprint]
            if self._journal is not None:
                entry = self._journal.get(fingerprint)
                if entry is not None and entry.status == "ok":
                    self.disk_hits += 1
                    self._admit(fingerprint, entry.result)
                    return entry.result
            self.misses += 1
            return None

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
            return (
                self._journal is not None and fingerprint in self._journal
            )

    def __len__(self) -> int:
        with self._lock:
            if self._journal is not None:
                return len(self._journal)
            return len(self._memory)

    # -- writing -------------------------------------------------------

    def put(self, fingerprint: str, certificate, kind: str = "CertifyTask"):
        """Store ``certificate`` under ``fingerprint`` (last-wins)."""
        with self._lock:
            if self._journal is not None:
                self._journal.record(fingerprint, kind, "ok", certificate)
            self._admit(fingerprint, certificate)
            self.writes += 1
        return certificate

    def _admit(self, fingerprint: str, certificate) -> None:
        """Insert into the memory tier, evicting the LRU entry if full.

        Caller holds the lock.
        """
        self._memory[fingerprint] = certificate
        self._memory.move_to_end(fingerprint)
        if self.capacity is not None:
            while len(self._memory) > self.capacity:
                self._memory.popitem(last=False)
                self.evictions += 1

    # -- instrumentation -----------------------------------------------

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """A snapshot of every counter (for the bench artifact)."""
        with self._lock:
            return {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "writes": self.writes,
                "memory_entries": len(self._memory),
                "capacity": self.capacity,
            }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "CertificateStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
