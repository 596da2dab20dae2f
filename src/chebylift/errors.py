"""Exception hierarchy shared by all chebylift modules."""


class ChebyliftError(Exception):
    """Base class for all library errors."""


# --- input / data validation

class BadInput(ChebyliftError):
    """Operation preconditions on plain vector inputs are violated."""


class BadData(ChebyliftError):
    """Structured input data (curves, distributions) violates its invariants."""


class BadGrid(ChebyliftError):
    """Grid or sampled-curve geometry is invalid (spacing, node count)."""


class BadSphereCurve(ChebyliftError):
    """A curve that must lie on the unit sphere of E leaves it."""


class NotLightlike(ChebyliftError):
    """A vector required to be lightlike is not, within tolerance."""


class ZeroTimeComponent(ChebyliftError):
    """Sphere projection of a lightlike vector with vanishing x0."""


class NotRegular(ChebyliftError):
    """A curve required to be regular has a vanishing derivative."""


# --- geometric degeneracies

class DisjointnessViolated(ChebyliftError):
    """Generator curves meet (or meet antipodally) on the parameter product."""

    def __init__(self, message, u=None, v=None):
        super().__init__(message)
        self.u = u
        self.v = v


class DegenerateMetric(ChebyliftError):
    """EG - F^2 is not bounded away from zero."""


class DegenerateAngle(ChebyliftError):
    """The net angle is too close to 0 or pi for the requested quantity."""


class DegenerateFrenet(ChebyliftError):
    """Curvature vanishes where the Frenet apparatus is required."""


class DivisionDegenerate(ChebyliftError):
    """kappa or the torsion vanishes where the Cauchy system divides by it."""


class NotChebyshev(ChebyliftError):
    """A surface required to be a Chebyshev net fails the E=G=1 test."""


class NotMinimal(ChebyliftError):
    """A lift required to be minimal has nonvanishing mean curvature."""


class EmptyOverlap(ChebyliftError):
    """Coordinate change leaves no rectangle to resample on."""


class MissingSource(ChebyliftError):
    """Operation needs the source net of a lift, which is absent."""


# --- Cauchy problem

class InconsistentSeed(ChebyliftError):
    """Extension seed value disagrees with the curve-level data."""


class NecessaryConditionFailed(ChebyliftError):
    """The lightlike-tangent condition fails for both orientations."""


class IncompatibleData(ChebyliftError):
    """The second null generator varies along the initial curve."""

    def __init__(self, message, sup_dn3=None):
        super().__init__(message)
        self.sup_dn3 = sup_dn3


class ExtensionMismatch(ChebyliftError):
    """Supplied extension does not match the curve-level data at v=0."""
