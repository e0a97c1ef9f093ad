"""Quantum multipole noise at desk scale.

Operator representation of creation/annihilation families whose commutator is
the n-th derivative of a delta function, built on Gaussian-Hermite test
functions, truncated indefinite-metric Fock sectors, a Wick pair-partition
engine, the weak-coupling coefficients with an energy-shell oracle, and a
numerical certification of the small-coupling expansion of reservoir
correlation functions.

Importing the package sets OPENBLAS_NUM_THREADS=1 unless it is already set,
and loads nothing else: each re-exported name imports its module on first
use, so a command pays only for the modules it runs.
"""

import importlib
import os

# numpy's OpenBLAS starts its worker pool as numpy loads, and no array here is
# big enough for threaded BLAS to pay for it; this must run before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# re-exported name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("atoms", "Atom TestFunction gaussian hermite_fn linear_combination"),
    ("dispersion", "Dispersion LinearDispersion QuadraticDispersion"),
    ("errors", "CapacityExceeded ConfigError DegenerateRoot "
               "FloatingPointFault IllConditionedBasis MultinoiseError "
               "OracleMismatch QuadratureFailure SectorMismatch SlowDecay "
               "SupportConditionFailed ZeroGamma"),
    ("expansion", "ExpansionPoint correlation_error fit_rate"),
    ("fock", "FockVector Sector annihilate build_sector create fock_inner "
             "vacuum_expectation"),
    ("forms", "frequency_grid grid_weighted_inner indefinite_inner "
              "indefinite_inner_frequency metric_sign weighted_inner"),
    ("gamma", "GammaRow GammaTable check_support gamma_osc gamma_shell "
              "gamma_table"),
    ("wick", "correlation enumerate_matchings reservoir_pair"),
) for name in names.split()}


def __getattr__(name: str):
    """A re-exported name, imported from its module (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
