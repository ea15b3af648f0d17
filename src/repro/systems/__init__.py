"""Dynamical-systems substrate: plants, PI control, PWA systems, simulation."""

from .closedloop import (
    build_closed_loop,
    closed_loop_matrices,
    fixed_mode_closed_loop,
    lift_guard,
)
from .frequency import LoopMargins, loop_margins, transfer_function
from .pi import OutputGuard, PIGains, SwitchedPIController
from .pwa import PwaMode, PwaSystem
from .regions import HalfSpace, PolyhedralRegion
from .simulate import (
    Trajectory,
    rk45_step,
    simulate_affine,
    simulate_pwa,
)
from .statespace import AffineSystem, StateSpace

__all__ = [
    "StateSpace",
    "AffineSystem",
    "PIGains",
    "OutputGuard",
    "SwitchedPIController",
    "HalfSpace",
    "PolyhedralRegion",
    "PwaMode",
    "PwaSystem",
    "closed_loop_matrices",
    "fixed_mode_closed_loop",
    "build_closed_loop",
    "lift_guard",
    "Trajectory",
    "rk45_step",
    "simulate_affine",
    "simulate_pwa",
    "transfer_function",
    "LoopMargins",
    "loop_margins",
]
