"""Exception types shared across the package."""


class DrapefitError(Exception):
    """Base class for all package errors."""


class DegenerateTriangle(DrapefitError):
    """UV triangle with |signed area| at or below the degeneracy threshold."""


class InvalidUvPoint(DrapefitError):
    """Query point lies outside every UV triangle of the garment."""


class InvalidStructure(DrapefitError):
    """Sampling structure has a vertex outside the valid UV region."""


class InconsistentDims(DrapefitError):
    """Model configuration dimensions do not line up."""


class OutOfDomain(DrapefitError):
    """Encoder query outside the [0, 1]^2 domain beyond tolerance."""


class ShapeMismatch(DrapefitError):
    """Array or buffer shapes disagree with the target structure."""


class IoFailure(DrapefitError):
    """File could not be read or written."""


class FormatVersionMismatch(DrapefitError):
    """Checkpoint header missing, truncated, or from an unknown version."""


class ZeroRestLength(DrapefitError):
    """Strain ratio undefined: an edge has zero rest length."""


class EmptyCollider(DrapefitError):
    """Collider has no vertices to match against."""


class UnreachablePoint(DrapefitError):
    """Finite query point whose squared distance to every collider vertex overflows."""


class DegenerateMesh(DrapefitError):
    """Mesh has no usable (non-degenerate) faces."""


class DegenerateVoronoiCell(DrapefitError):
    """Lloyd relaxation met an unbounded or sub-triangular Voronoi cell."""


class AllPointsInvalid(DrapefitError):
    """Every sampled point failed structure construction after resampling."""


class NonFiniteLoss(DrapefitError):
    """Training produced a non-finite loss or gradient."""


class BudgetMismatch(DrapefitError):
    """Benchmark variants do not share a parameter budget."""


class ConfigError(DrapefitError):
    """Run configuration failed validation; message lists every violation."""
