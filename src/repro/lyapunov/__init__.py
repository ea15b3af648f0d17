"""Lyapunov-function synthesis: the paper's six single-mode methods and
the piecewise-quadratic switched-system attempt."""

from .cegis import (
    CegisOutcome,
    CegisRound,
    CegisWitness,
    CenteredLmi,
    CertificateCheck,
    CertificateVerification,
    PiecewiseCertificate,
    assemble_centered_lmi,
    bistability_witness,
    cegis_piecewise,
    definiteness_conditions,
    refute_certificate,
    seed_directions,
    snap_certificate,
    verify_certificate,
)
from .equation import (
    SynthesisTimeout,
    solve_lyapunov_exact,
    solve_lyapunov_numeric,
)
from .modal import modal_lyapunov
from .piecewise import ENCODINGS, SOLVERS, PiecewiseCandidate, synthesize_piecewise
from .quadratic import LyapunovCandidate
from .synthesis import DEFAULT_NU, LMI_METHODS, METHODS, default_alpha, synthesize

__all__ = [
    "LyapunovCandidate",
    "METHODS",
    "LMI_METHODS",
    "DEFAULT_NU",
    "default_alpha",
    "synthesize",
    "SynthesisTimeout",
    "solve_lyapunov_exact",
    "solve_lyapunov_numeric",
    "modal_lyapunov",
    "PiecewiseCandidate",
    "synthesize_piecewise",
    "ENCODINGS",
    "SOLVERS",
    "CenteredLmi",
    "assemble_centered_lmi",
    "seed_directions",
    "PiecewiseCertificate",
    "snap_certificate",
    "CertificateCheck",
    "CertificateVerification",
    "definiteness_conditions",
    "verify_certificate",
    "CegisWitness",
    "refute_certificate",
    "bistability_witness",
    "CegisRound",
    "CegisOutcome",
    "cegis_piecewise",
]
