"""Relational entropic dynamics on periodic grids."""

__version__ = "0.1.0"

from .model import (
    Ensemble,
    EpistemicState,
    ScalarField,
    ShiftVelocity,
    SystemSpec,
    quadrature,
)

__all__ = [
    "Ensemble",
    "EpistemicState",
    "ScalarField",
    "ShiftVelocity",
    "SystemSpec",
    "quadrature",
    "__version__",
]
