"""Exception types shared across the package."""


class FuzzylocError(Exception):
    """Base class for package-specific errors."""


class DegenerateGeometryError(FuzzylocError):
    """Robot and landmark coincide; range-bearing geometry is singular."""


class SingularInnovationError(FuzzylocError):
    """Innovation covariance is numerically singular."""


class SingularCovarianceError(FuzzylocError):
    """State covariance is numerically singular."""


class UnknownLandmarkError(FuzzylocError, KeyError):
    """A measurement references a landmark id that is not in the map."""


class ZeroFiringError(FuzzylocError):
    """Total rule firing strength underflowed to zero."""


class ScenarioError(FuzzylocError):
    """Scenario configuration is invalid or unreadable."""
