"""Exception hierarchy and check records shared by all chebylift modules.

A ``Check`` is one measured quantity held to a tolerance, and a ``Report``
groups the checks of one call with its results that are not measurements.
An error raised because a check failed carries that check as ``.check``.
"""

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Check:
    """A measured ``value`` held to ``tol``, which every check states; NaN
    and inf fail every check.  ``where`` is (index, parameters) of the
    worst node, its index into the caller's full grid or curve and the
    parameter values there, or None when the value is not a sup over
    nodes.  ``masked`` counts the nodes a keep-mask left out."""

    name: str
    value: float
    tol: float
    where: Optional[tuple] = None
    masked: int = 0

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.tol

    def __str__(self) -> str:
        s = f"{self.name} = {self.value:.3e} (tolerance {self.tol:.3g})"
        if self.where is not None:
            at = ", ".join(f"{p:.6g}" for p in self.where[1])
            s += f", worst at node {self.where[0]}" + (at and f" = ({at})")
        return s + (f", {self.masked} nodes masked" if self.masked else "")


@dataclass(frozen=True)
class Report:
    """The checks of one call and its ``info``, results that are not
    measurements.  ``rep.name`` is the value of the check called ``name``
    (else the info entry), ``rep["name"]`` the check itself."""

    checks: tuple
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        return {c.name: c for c in self.checks}[name]

    def __getattr__(self, name: str):
        # reached only when normal lookup fails; dunder names (copy, pickle,
        # hasattr probes) and a half-built instance never reach the checks
        d = self.__dict__
        if name[:2] != "__" and "checks" in d:
            found = {**d["info"], **{c.name: c.value for c in d["checks"]}}
            if name in found:
                return found[name]
        raise AttributeError(f"report has no check or info {name!r}")


class ChebyliftError(Exception):
    """Base class for all library errors; ``check`` is the failed check
    behind the error, if any, and ends its message."""

    def __init__(self, message: str = "", check: Optional[Check] = None):
        super().__init__(message if check is None else f"{message}: {check}")
        self.check = check


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
    """Generator curves meet (or meet antipodally) on the parameter product;
    ``check`` is the failed uncertified_cells check of ``check_disjointness``,
    whose ``where`` locates the meeting (none from ``default_extension``)."""


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

class NecessaryConditionFailed(ChebyliftError):
    """The lightlike-tangent condition fails for both orientations."""


class IncompatibleData(ChebyliftError):
    """The second null generator varies along the initial curve."""


class ExtensionMismatch(ChebyliftError):
    """Supplied extension does not match the curve-level data at v=0."""
