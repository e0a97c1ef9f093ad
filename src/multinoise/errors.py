"""Exception hierarchy shared across the package."""


class MultinoiseError(Exception):
    """Base class for all package-specific errors."""


class ZeroGamma(MultinoiseError):
    """A noise channel was given a vanishing coupling constant."""


class IllConditionedBasis(MultinoiseError):
    """Sector basis is numerically linearly dependent."""


class CapacityExceeded(MultinoiseError):
    """A creation operator would push a vector past the particle cap."""


class NotInSpan(MultinoiseError):
    """A smearing function is not representable in the sector basis."""


class SectorMismatch(MultinoiseError):
    """Two Fock vectors belong to different sectors."""


class QuadratureFailure(MultinoiseError):
    """A panel sum did not converge, a panel rule passed its panel cap, an
    odd-order weighted form's recurrence passed its error bound, or an atom
    overlap was not finite."""


class SlowDecay(MultinoiseError):
    """The oscillatory integrand does not decay below the truncation bound."""


class DegenerateRoot(MultinoiseError):
    """The dispersion has a near-critical root on the energy shell."""


class SupportConditionFailed(MultinoiseError):
    """A stationary point of the dispersion lies inside the form-factor support."""


class ConfigError(MultinoiseError):
    """A study configuration file is missing fields or inconsistent."""


class OracleMismatch(MultinoiseError):
    """Two independent computation routes disagree beyond tolerance."""


class FloatingPointFault(MultinoiseError):
    """A numpy operation overflowed, divided by zero or was invalid."""
