"""Streaming solvers for online covering LPs and SDPs with untrusted advice.

Core pieces: instance and advice containers with JSON round-trips, a shared
exponential-growth engine, the four online solvers (LP / boxed LP / SDP /
boxed SDP), offline and switching baselines, application adapters (set cover,
s-t cuts, group Steiner on trees), and an experiment harness with a CLI.
"""

from .errors import PdlaError
from .instances import (AdviceVector, CoveringLpInstance, CoveringSdpInstance,
                        SolverParams)

__all__ = [
    "PdlaError", "AdviceVector", "CoveringLpInstance", "CoveringSdpInstance",
    "SolverParams",
]

__version__ = "0.1.0"
