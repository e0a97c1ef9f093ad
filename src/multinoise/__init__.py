"""Quantum multipole noise at desk scale.

Operator representation of creation/annihilation families whose commutator is
the n-th derivative of a delta function, built on Gaussian-Hermite test
functions, truncated indefinite-metric Fock sectors, a Wick pair-partition
engine, the weak-coupling coefficients with an energy-shell oracle, and a
numerical certification of the small-coupling expansion of reservoir
correlation functions.
"""

from .atoms import Atom, TestFunction, gaussian, hermite_fn, linear_combination, zero
from .dispersion import Dispersion, LinearDispersion, QuadraticDispersion
from .errors import (BelowFloor, CapacityExceeded, ConfigError, DegenerateRoot,
                     IllConditionedBasis, ImaginaryResidue, MultinoiseError,
                     NotInSpan, OracleMismatch, QuadratureFailure,
                     SectorMismatch, SlowDecay, SupportConditionFailed,
                     ZeroGamma)
from .expansion import ExpansionPoint, RateReport, correlation_error, fit_rate
from .fock import (FockVector, Sector, annihilate, apply_sector_metric,
                   build_sector, create, fock_inner, project_coefficients,
                   sector_metric_matrix, vacuum_expectation)
from .forms import (GridFunction, frequency_grid, grid_weighted_inner,
                    indefinite_inner, indefinite_inner_frequency, l2_inner,
                    metric_apply, to_grid, weighted_inner)
from .gamma import (GammaRow, GammaTable, SupportReport, check_support,
                    effective_support, gamma_osc, gamma_shell, gamma_table,
                    shell_density)
from .wick import Letter, correlation, enumerate_matchings, reservoir_pair

__version__ = "0.1.0"
