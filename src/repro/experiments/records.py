"""Result records and text rendering shared by the experiment drivers.

Every experiment produces a list of flat records; renderers turn them
into the paper's table/figure layout (plain text, printed by the CLI in
``repro.experiments.__main__`` and by the benchmark harness).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable

__all__ = [
    "Table1Record",
    "Figure3Record",
    "Table2Record",
    "PiecewiseRecord",
    "CegisRecord",
    "MethodKey",
    "method_rows",
    "render_grid",
    "dump_records",
]


@dataclass(frozen=True)
class MethodKey:
    """A Table-I/II row identity: method plus (optional) LMI backend."""

    method: str
    backend: str | None = None

    def __str__(self) -> str:
        return f"{self.method}[{self.backend}]" if self.backend else self.method


def method_rows(include_eq_smt: bool = True) -> list[MethodKey]:
    """The paper's row order: eq-smt, eq-num, modal, then the LMI family
    by backend (our ipm/shift/proj stand in for cvxopt/mosek/smcp)."""
    rows = []
    if include_eq_smt:
        rows.append(MethodKey("eq-smt"))
    rows.append(MethodKey("eq-num"))
    rows.append(MethodKey("modal"))
    for method in ("lmi", "lmi-alpha", "lmi-alpha+"):
        for backend in ("ipm", "shift", "proj"):
            rows.append(MethodKey(method, backend))
    return rows


@dataclass
class Table1Record:
    """One (case, mode, method) cell of Table I."""
    case: str  # benchmark name, e.g. "size10i"
    size: int
    mode: int
    method: str
    backend: str | None
    synth_time: float | None  # None = timeout / failure
    synth_status: str  # "ok" | "timeout" | "infeasible" | "error"
    valid: bool | None
    validation_time: float | None
    sigfigs: int = 10
    #: Validator fallback/escalation hops (ValidationReport.degraded);
    #: empty for a clean run. Renderers ignore it — tables stay
    #: byte-identical — but the JSON dump and the journal keep it.
    degraded: list = field(default_factory=list)


@dataclass
class Figure3Record:
    """One validator timing sample of Figure 3."""
    case: str
    size: int
    mode: int
    method: str
    backend: str | None
    validator: str
    valid: bool | None
    time: float
    #: Validator fallback/escalation hops (empty for a clean run).
    degraded: list = field(default_factory=list)


@dataclass
class Table2Record:
    """One robust-region cell of Table II."""
    case: str
    size: int
    mode: int
    method: str
    backend: str | None
    time: float | None  # robust-level synthesis time (None = skipped)
    volume: float | None
    log10_volume: float | None
    epsilon: float | None
    k: float | None
    region_case: str | None
    skipped_reason: str | None = None


@dataclass
class PiecewiseRecord:
    """One piecewise synthesis+validation attempt (Sec. VI-B.2)."""
    case: str
    size: int
    encoding: str
    lmi_feasible: bool
    proved_infeasible: bool
    iterations: int
    synth_time: float
    validation_valid: bool | None
    failed_conditions: list = field(default_factory=list)
    validation_time: float = 0.0
    #: Synthesis engine ("hybrid" | "ellipsoid" | "barrier"); defaulted
    #: so pre-existing journals decode into the extended record.
    solver: str = "hybrid"


@dataclass
class CegisRecord:
    """One CEGIS campaign (case, regime, synthesis mode) — the loop
    that closes the paper's open Section VI-B.2 refinement step."""
    case: str
    size: int
    #: "nominal" (the paper's bistable references) or "attracting".
    regime: str
    #: synthesizer block set: "sampled" (true CEGIS) or "full".
    synthesis: str
    #: rounding protocol: "structured" (exact continuity) or
    #: "independent" (the paper's — pinned to fail).
    snap: str
    #: "validated" | "infeasible" | "inconclusive" | "stalled" |
    #: "exhausted" (see :class:`repro.lyapunov.CegisOutcome`):
    #: "infeasible" is only ever the exact bistability witness, and an
    #: ellipsoid emptiness claim that survives a cold re-solve is
    #: "inconclusive".
    status: str
    rounds: int
    cuts: int
    validated: bool
    proved_infeasible: bool
    synth_time: float
    verify_time: float
    total_time: float
    #: SHA-256 of the deterministic structural provenance (statuses,
    #: per-round verdicts, cut fingerprints — no wall times).
    digest: str
    #: verification conditions still failing at the final round.
    failed_checks: list = field(default_factory=list)


def render_grid(
    headers: list[str],
    rows: Iterable[list[str]],
    title: str | None = None,
) -> str:
    """Monospace grid rendering (the library's 'tables')."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def dump_records(records: list, path: str) -> None:
    """Write records as JSON (floats kept as-is, None preserved)."""
    with open(path, "w") as handle:
        json.dump([asdict(r) for r in records], handle, indent=2, default=str)
