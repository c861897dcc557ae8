"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes (config 2, geometry 3,
numerical 4); library code raises them directly.
"""


class CmadofError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CmadofError):
    """Bad run configuration: unknown keys, unparseable or out-of-range values."""


class CheckpointError(ConfigError, ValueError):
    """A GA checkpoint that cannot be resumed: unreadable or malformed, or
    written for another problem or other GA parameters."""


class GeometryError(CmadofError):
    """Geometry that cannot be meshed or analyzed (degenerate faces,
    non-manifold edges, empty plates)."""


class NumericalError(CmadofError):
    """Numerical failure in the analysis chain."""


class RankDeficiencyError(NumericalError):
    """A matrix that the pipeline must invert or pseudo-invert does not have
    the required rank (for example V_R with fewer independent columns than
    receive ports)."""


class DegenerateStructureError(NumericalError):
    """The structure has no usable radiating modes (radiated-power matrix
    numerically zero or empty)."""


class SingularityError(NumericalError):
    """Field evaluation at a singular point of the kernel (coincident or
    overlapping transmit/receive locations)."""


class ReductionError(NumericalError):
    """The conventional-array reduction was asked for on elements that are
    not identical within tolerance."""
