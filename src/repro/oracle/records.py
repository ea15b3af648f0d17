"""Plain result dataclasses for the oracle fuzzer.

Kept free of heavy imports so :mod:`repro.runner.journal` can register
them for first-class (inspectable, replayable) JSONL encoding without
pulling the whole oracle package into every journal load.

Determinism contract: a :class:`FuzzRecord` must contain **no wall-clock
times** (and nothing else nondeterministic) — two fuzz runs with the
same seed must journal byte-identical records, which is how the CLI's
journal digest proves reproducibility. Per-task wall times go to a
:class:`~repro.runner.TimingCollector` instead, when the caller passes
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FuzzRecord"]


@dataclass
class FuzzRecord:
    """Outcome of pushing one generated system through the full matrix.

    ``disagreements`` holds one dict per broken invariant (see
    :mod:`repro.oracle.differential` for the ``check`` vocabulary);
    ``harness_errors`` holds stringified exceptions out of the harness
    itself (a crashing validator is a failure too, just a different
    kind). ``synth`` maps ``method/backend`` labels to their synthesis
    status (``"ok"``/``"infeasible"``/``"timeout"``/``"error"``) —
    synthesis failures are legitimate outcomes, never disagreements.
    ``checks`` counts the individual verdict comparisons performed.
    """

    kind: str
    n: int
    seed: int
    stable: bool
    provenance: str
    checks: int = 0
    synth: dict = field(default_factory=dict)
    disagreements: list = field(default_factory=list)
    harness_errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Did this system expose a disagreement or a harness crash?"""
        return bool(self.disagreements or self.harness_errors)

    def spec(self) -> dict:
        """The regeneration key: enough to rebuild the exact system."""
        return {"kind": self.kind, "n": self.n, "seed": self.seed}
