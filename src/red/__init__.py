"""Relational entropic dynamics on periodic grids."""

import os

# RED_THREADS caps the OpenMP/BLAS thread pools (where their variables are
# unset); it must be set before numpy loads its BLAS.  0 or unset leaves
# library defaults.
_threads = os.environ.get("RED_THREADS", "0")
if _threads not in ("", "0"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .model import (  # noqa: E402
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
