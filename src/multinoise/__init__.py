"""Quantum multipole noise at desk scale.

Operator representation of creation/annihilation families whose commutator is
the n-th derivative of a delta function, built on Gaussian-Hermite test
functions, truncated indefinite-metric Fock sectors, a Wick pair-partition
engine, the weak-coupling coefficients with an energy-shell oracle, and a
numerical certification of the small-coupling expansion of reservoir
correlation functions.

Importing the package sets OPENBLAS_NUM_THREADS=1 unless it is already set.
"""

import os

# numpy's OpenBLAS starts its worker pool as numpy loads, and no array here is
# big enough for threaded BLAS to pay for it; this must run before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .atoms import Atom, TestFunction, gaussian, hermite_fn, linear_combination
from .dispersion import Dispersion, LinearDispersion, QuadraticDispersion
from .errors import (CapacityExceeded, ConfigError, DegenerateRoot,
                     FloatingPointFault, IllConditionedBasis, MultinoiseError,
                     OracleMismatch, QuadratureFailure, SectorMismatch,
                     SlowDecay, SupportConditionFailed, ZeroGamma)
from .expansion import ExpansionPoint, correlation_error, fit_rate
from .fock import (FockVector, Sector, annihilate, build_sector, create,
                   fock_inner, vacuum_expectation)
from .forms import (frequency_grid, grid_weighted_inner, indefinite_inner,
                    indefinite_inner_frequency, metric_sign, weighted_inner)
from .gamma import (GammaRow, GammaTable, check_support, gamma_osc,
                    gamma_shell, gamma_table)
from .wick import correlation, enumerate_matchings, reservoir_pair

__version__ = "0.1.0"
