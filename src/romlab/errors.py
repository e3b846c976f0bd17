"""Exception types shared across the package."""


class RomlabError(Exception):
    """Base class for all romlab errors."""


class LengthMismatch(RomlabError):
    """A per-cell array does not match the grid's cell count."""


class NonPositiveSigmaT(RomlabError):
    """A cell's sigma_t * h is not positive and finite: sigma_t is zero, negative
    or NaN, or the product underflows to 0 or overflows."""


class LambdaAtLeastOne(RomlabError):
    """The scattering ratio sigma_s/sigma_t reaches the admissibility cap."""


class OddN(RomlabError):
    """Velocity partitions need an even cell count."""


class DeltaOutOfRange(RomlabError):
    """The velocity truncation must lie strictly inside (0, 1)."""


class AlphaUnbounded(RomlabError):
    """A graded partition violates the rescaled-weight cap."""


class ZeroMu(RomlabError):
    """Transport sweeps are undefined at mu = 0."""


class PureAbsorber(RomlabError):
    """The operation needs a scattering medium (lambda > 0)."""


class NoConvergence(RomlabError):
    """A computation missed its tolerance: a solve's error bound, or a Newton iteration's cap."""


class TooFewPoints(RomlabError):
    """A slope fit needs at least three unflagged rows, all with positive estimates."""


class ReferenceNotConverged(RomlabError):
    """Reference-quadrature refinement hit its node cap before certifying."""


class ConfigError(RomlabError):
    """A configuration document failed validation.

    ``path`` is a JSON-pointer-style location of the offending field.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
