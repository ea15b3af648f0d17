"""Piecewise-affine (PWA) switched systems (Section III-C, Equation 4).

A :class:`PwaSystem` is a finite set of modes, each an affine flow
``w' = A_i w + b_i`` active on a convex polyhedral region ``R_i``. The
switching law is state-dependent, autonomous and continuous (no state
jumps), exactly the class the paper verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .regions import PolyhedralRegion
from .statespace import AffineSystem

__all__ = ["PwaMode", "PwaSystem"]


@dataclass(frozen=True)
class PwaMode:
    """One operating mode: flow + region + optional name."""

    flow: AffineSystem
    region: PolyhedralRegion
    name: str = ""

    def __post_init__(self):
        if self.flow.dimension != self.region.dimension:
            raise ValueError("flow/region dimension mismatch")

    @property
    def dimension(self) -> int:
        """State-space dimension shared by all modes."""
        return self.flow.dimension

    def equilibrium(self) -> np.ndarray:
        """The mode's affine-flow equilibrium ``-A^{-1} b``."""
        return self.flow.equilibrium()

    def equilibrium_in_region(self) -> bool:
        """Does this mode's equilibrium lie in its own region?"""
        return self.region.contains(list(self.equilibrium()))


@dataclass(frozen=True)
class PwaSystem:
    """An autonomous switched system over polyhedral regions."""

    modes: tuple

    def __init__(self, modes: Sequence[PwaMode]):
        modes = tuple(modes)
        if not modes:
            raise ValueError("need at least one mode")
        dims = {m.dimension for m in modes}
        if len(dims) != 1:
            raise ValueError("mode dimension mismatch")
        object.__setattr__(self, "modes", modes)

    @property
    def dimension(self) -> int:
        """State-space dimension shared by all modes."""
        return self.modes[0].dimension

    @property
    def n_modes(self) -> int:
        """Number of modes."""
        return len(self.modes)

    def mode_of(self, w: np.ndarray) -> int:
        """Index of the first mode whose region contains ``w``."""
        point = list(np.asarray(w, dtype=float))
        for index, mode in enumerate(self.modes):
            if mode.region.contains(point):
                return index
        raise ValueError(f"no region contains {w}: regions do not cover")

    def derivative(self, w: np.ndarray) -> np.ndarray:
        """Flow of the active mode at ``w``."""
        return self.modes[self.mode_of(w)].flow.derivative(w)

    def equilibria(self) -> list[np.ndarray]:
        """Per-mode equilibrium points."""
        return [mode.equilibrium() for mode in self.modes]

