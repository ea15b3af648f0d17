"""Crash-safe result journal for resumable experiment campaigns.

The paper's grids are hours-long campaigns of hundreds of independent
synthesis+validation tasks; a killed process must not cost the whole
run. This module persists every completed task verdict to an
append-only JSONL file so an interrupted campaign can be resumed with
``--resume`` and replay everything already decided:

* **Fingerprints** — each task is keyed by :func:`task_fingerprint`, a
  SHA-256 over the task kind, its identifying fields
  (case/mode/method/backend/sigfigs/...), and a code-version salt
  (:data:`JOURNAL_SALT`). The digest is content-derived (no ``hash()``
  randomization), so the same task spec produces the same fingerprint
  in any process on any run; any field change — or a salt bump when
  result semantics change — produces a new fingerprint and therefore a
  clean re-run.
* **Durability** — every record is one JSON line written in a single
  ``write`` call, flushed and ``fsync``'d before :meth:`Journal.record`
  returns. A crash mid-write leaves at most one truncated trailing
  line, which replay tolerates (skipped, so that task simply re-runs);
  corrupt interior lines are skipped the same way, and duplicate
  fingerprints resolve last-wins.
* **Replay** — ``run_tasks(..., journal=...)`` consults
  :meth:`Journal.get` per task: a hit short-circuits execution and
  returns the recorded result (timing status ``"replayed"``), a miss
  runs the task and appends its outcome. Results round-trip exactly
  (floats via JSON shortest-repr, ``Fraction``/NumPy/record dataclasses
  via tagged encoding), so a fully-replayed campaign renders
  byte-identically to the run that produced the journal.
* **Digests** — records carry no worker or wall-clock identity, only
  content: the same task completed by any worker produces the same line
  bytes (for deterministic result payloads). So the sorted-line digest
  (:func:`journal_digest`) is invariant to the job count and the order
  tasks finished in; ``python -m repro.fuzz --journal PATH`` prints it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pathlib
import pickle
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any

import numpy as np

__all__ = [
    "JOURNAL_SALT",
    "Journal",
    "JournalEntry",
    "task_fingerprint",
    "encode_value",
    "decode_value",
    "register_record_type",
    "journal_digest",
]

#: Code-version salt folded into every fingerprint. Bump the suffix
#: whenever task or result semantics change incompatibly: every old
#: journal entry then misses and the campaign re-runs from scratch
#: instead of replaying stale verdicts.
JOURNAL_SALT = "repro-journal/1"


# ----------------------------------------------------------------------
# Tagged JSON encoding (exact round-trip for result payloads)
# ----------------------------------------------------------------------

#: Dataclass types allowed to cross the journal boundary, by name.
#: Populated lazily (the records live in packages that import the
#: runner back); anything unregistered falls back to pickle+base64.
_RECORD_TYPES: dict[str, type] = {}
_DEFAULTS_LOADED = False


def register_record_type(cls: type) -> type:
    """Register a dataclass for first-class (inspectable) encoding."""
    _RECORD_TYPES[cls.__name__] = cls
    return cls


def _load_default_record_types() -> None:
    global _DEFAULTS_LOADED
    if _DEFAULTS_LOADED:
        return
    _DEFAULTS_LOADED = True
    from ..experiments.records import (
        CegisRecord,
        Figure3Record,
        PiecewiseRecord,
        Table1Record,
        Table2Record,
    )
    from ..lyapunov import LyapunovCandidate
    from ..oracle.records import FuzzRecord

    for cls in (
        Table1Record, Table2Record, Figure3Record, PiecewiseRecord,
        CegisRecord, LyapunovCandidate, FuzzRecord,
    ):
        register_record_type(cls)


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-safe data with exact round-trip.

    Handles the closed set of types runner results are made of —
    scalars, lists/tuples/dicts, ``Fraction``, NumPy arrays and the
    registered record dataclasses — and falls back to pickle+base64 for
    anything else (still exact, just not human-readable).
    """
    _load_default_record_types()
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Fraction):
        return {"__frac__": [str(value.numerator), str(value.denominator)]}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {"__map__": {k: encode_value(v) for k, v in value.items()}}
        return {
            "__items__": [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ]
        }
    if isinstance(value, np.ndarray):
        return {
            "__nd__": {
                "dtype": str(value.dtype),
                "data": value.tolist(),
            }
        }
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return encode_value(value.item())
    if is_dataclass(value) and type(value).__name__ in _RECORD_TYPES:
        return {
            "__rec__": type(value).__name__,
            "f": {
                f.name: encode_value(getattr(value, f.name))
                for f in fields(value)
            },
        }
    return {
        "__pkl__": base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    }


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    _load_default_record_types()
    if payload is None or isinstance(payload, (bool, int, str, float)):
        return payload
    if isinstance(payload, list):
        return [decode_value(v) for v in payload]
    if not isinstance(payload, dict):
        raise ValueError(f"unknown journal payload {type(payload).__name__}")
    if "__frac__" in payload:
        num, den = payload["__frac__"]
        return Fraction(int(num), int(den))
    if "__tuple__" in payload:
        return tuple(decode_value(v) for v in payload["__tuple__"])
    if "__map__" in payload:
        return {k: decode_value(v) for k, v in payload["__map__"].items()}
    if "__items__" in payload:
        return {
            decode_value(k): decode_value(v) for k, v in payload["__items__"]
        }
    if "__nd__" in payload:
        spec = payload["__nd__"]
        return np.array(spec["data"], dtype=np.dtype(spec["dtype"]))
    if "__rec__" in payload:
        cls = _RECORD_TYPES.get(payload["__rec__"])
        if cls is None:
            raise ValueError(f"unknown record type {payload['__rec__']!r}")
        return cls(**{k: decode_value(v) for k, v in payload["f"].items()})
    if "__pkl__" in payload:
        value = pickle.loads(base64.b64decode(payload["__pkl__"]))
        # A record pickled under an older field layout would load
        # half-stale; reject it as "__rec__" does, so its task re-runs.
        if is_dataclass(value) and set(vars(value)) != {
            f.name for f in fields(value)
        }:
            raise ValueError(f"stale {type(value).__name__} field layout")
        return value
    raise ValueError(f"unknown journal payload keys {sorted(payload)}")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def task_fingerprint(task) -> str:
    """Stable content hash identifying a task across processes and runs.

    Uses the task's :meth:`~repro.runner.Task.fingerprint_spec` (kind +
    identifying fields), canonically JSON-encoded with sorted keys, plus
    :data:`JOURNAL_SALT`. Two processes building the same task spec get
    the same hex digest; any differing field (or a salt bump) yields a
    different one.

    The digest is memoized on the task instance (``_fingerprint``):
    task specs are immutable once built, and campaign hot loops — the
    journal replay scan, the service cache, retry bookkeeping — look up
    the same task repeatedly, so the tagged-JSON encode runs at most
    once per instance. Underscore-prefixed attributes are excluded from
    the default :meth:`~repro.runner.Task.fingerprint_spec`, so the
    cache itself never feeds back into the digest.
    """
    cached = getattr(task, "_fingerprint", None)
    if cached is not None:
        return cached
    kind, spec = task.fingerprint_spec()
    canonical = json.dumps(
        {"salt": JOURNAL_SALT, "kind": kind, "spec": encode_value(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    try:
        task._fingerprint = digest
    except (AttributeError, TypeError):  # __slots__ or frozen tasks
        pass
    return digest


# ----------------------------------------------------------------------
# The journal itself
# ----------------------------------------------------------------------

@dataclass
class JournalEntry:
    """One replayable task outcome."""

    fingerprint: str
    kind: str
    status: str  # "ok" | "error" | "timeout" | "fallback"
    result: Any
    attempts: int = 1
    error: dict | None = None


class Journal:
    """Append-only fsync'd JSONL journal of completed task outcomes.

    ``resume=True`` loads every intact entry from an existing file and
    keeps appending to it; ``resume=False`` truncates and starts a fresh
    campaign. Use as a context manager (or call :meth:`close`).
    """

    def __init__(self, path: str | pathlib.Path, resume: bool = False) -> None:
        self.path = pathlib.Path(path)
        self._entries: dict[str, JournalEntry] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._entries = _load_entries(self.path)
            _trim_torn_tail(self.path)
        self._handle = open(self.path, "ab" if resume else "wb")

    # -- reading -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def fingerprint(self, task) -> str:
        return task_fingerprint(task)

    def get(self, fingerprint: str) -> JournalEntry | None:
        """The recorded outcome for ``fingerprint``, or ``None``."""
        return self._entries.get(fingerprint)

    # -- writing -------------------------------------------------------

    def record(
        self,
        fingerprint: str,
        kind: str,
        status: str,
        result: Any,
        attempts: int = 1,
        error: dict | None = None,
    ) -> JournalEntry:
        """Append one completed outcome and fsync it to disk."""
        entry = JournalEntry(
            fingerprint=fingerprint, kind=kind, status=status,
            result=result, attempts=attempts, error=error,
        )
        line = json.dumps(
            {
                "v": 1,
                "fp": fingerprint,
                "kind": kind,
                "status": status,
                "attempts": attempts,
                "error": error,
                "result": encode_value(result),
            },
            separators=(",", ":"),
        )
        self._write((line + "\n").encode("utf-8"))
        self._entries[fingerprint] = entry
        return entry

    def record_corrupt(self, fingerprint: str, kind: str) -> None:
        """Deliberately write a corrupt record (chaos harness only).

        Emits the truncated prefix of a real entry — what a crash in the
        middle of :meth:`record` leaves behind — so tests can prove that
        replay skips it and the task re-runs. The fragment is newline-
        terminated (unlike a genuine crash, the process lives on and
        must not splice the *next* record into the garbage line).
        """
        line = json.dumps(
            {"v": 1, "fp": fingerprint, "kind": kind, "status": "ok"}
        )
        self._write(
            line[: max(4, len(line) // 2)].encode("utf-8") + b"\n"
        )

    def _write(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _trim_torn_tail(path: pathlib.Path) -> None:
    """Drop a torn (newline-less) trailing line before appending.

    A crash mid-``record`` leaves a truncated final line; appending new
    records straight after it would splice the first of them into the
    garbage, losing a *good* entry on the next resume. The torn tail
    carries no recoverable data, so it is truncated away.
    """
    size = path.stat().st_size
    if size == 0:
        return
    with open(path, "rb+") as handle:
        handle.seek(max(0, size - 1))
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        content = handle.read()
        keep = content.rfind(b"\n") + 1  # 0 when no newline at all
        handle.truncate(keep)


#: Keys an intact journal line must hold.
_FIELDS = frozenset({"fp", "result", "status"})


def _raw_entries(path: pathlib.Path):
    """Yield ``(record, raw_line)`` for every intact journal line.

    A torn trailing line (no newline — a crash mid-write) ends the scan;
    corrupt interior lines are skipped, for replay and
    :func:`journal_digest` alike.
    """
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break
            try:
                obj = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                continue
            if isinstance(obj, dict) and _FIELDS <= obj.keys():
                yield obj, raw


def _load_entries(path: pathlib.Path) -> dict[str, JournalEntry]:
    """Decode every intact line; skip undecodable ones (they re-run)."""
    entries: dict[str, JournalEntry] = {}
    for obj, _raw in _raw_entries(path):
        try:
            result = decode_value(obj["result"])
        except Exception:
            continue
        entries[obj["fp"]] = JournalEntry(
            fingerprint=obj["fp"],
            kind=obj.get("kind", "?"),
            status=obj["status"],
            result=result,
            attempts=int(obj.get("attempts", 1)),
            error=obj.get("error"),
        )
    return entries


def journal_digest(path: str | pathlib.Path) -> str:
    """SHA-256 over the *sorted* intact journal lines.

    Workers complete in nondeterministic order, so the file's byte
    order varies with scheduling — but the set of lines does not.
    Sorting before hashing gives a digest invariant across job counts
    (for deterministic result payloads), which is what the determinism
    checks compare. Duplicate lines are deduplicated first, and
    torn/corrupt lines are excluded just as replay excludes them.
    """
    lines = sorted({raw for _obj, raw in _raw_entries(pathlib.Path(path))})
    return hashlib.sha256(b"".join(lines)).hexdigest()
