"""Power-law rheology: the fluid model, its apparent viscosity, and the
prefactor of the master pressure integral.

Every conductance uses the prefactor.  It is here, with the quadrature
oracle's tolerances and its result type, because a closed-form solve
imports this module but not :mod:`cdtube.quadrature`, which re-exports
them.  The straight-capillary relations live in :mod:`cdtube.flow`, where
a constant radius is a :class:`~cdtube.geometry.TubeSpec` with equal
radii.
"""

import math
import warnings

from ._frozen import slot_setters, value_type
from .errors import DomainError

__all__ = [
    "PowerLawFluid",
    "QuadratureResult",
    "apparent_viscosity",
    "master_prefactor",
]

# Flow behavior indices outside this range still compute, but K is checked
# against mpmath only inside it.  Outside it some closed forms raise and
# the quadrature fallback takes over, and from about n = 120 the prefactor
# (3n+1)^n / (pi n)^n leaves the float range.
SUPPORTED_INDEX_RANGE = (0.2, 2.0)

# The quadrature oracle's panel cap and tolerances.
MAX_PANELS = 10000
REL_TOL_RANGE = (1e-14, 1e-2)
DEFAULT_REL_TOL = 1e-10
# Interactive fallback solves trade two digits for speed.
FALLBACK_REL_TOL = 1e-8


@value_type
class PowerLawFluid:
    """Two-parameter shear-thinning/thickening fluid model.

    Parameters
    ----------
    consistency : float
        Consistency factor C in Pa*s^n, strictly positive.
    index : float
        Flow behavior index n (dimensionless, strictly positive).
        n < 1 thins, n = 1 is Newtonian, n > 1 thickens.
    """

    consistency: float
    index: float

    def __init__(self, consistency: float, index: float):
        if not (consistency > 0.0 and math.isfinite(consistency)):
            raise DomainError(f"consistency must be positive, got {consistency}")
        if not (index > 0.0 and math.isfinite(index)):
            raise DomainError(f"index must be positive, got {index}")
        lo, hi = SUPPORTED_INDEX_RANGE
        if not lo <= index <= hi:
            warnings.warn(
                f"flow index n={index} is outside the guaranteed-accuracy "
                f"range [{lo}, {hi}]; results are computed but unvalidated",
                stacklevel=2,
            )
        _set_consistency(self, consistency)
        _set_index(self, index)


_set_consistency, _set_index = slot_setters(PowerLawFluid)


@value_type
class QuadratureResult:
    """Outcome of one adaptive integration of :mod:`cdtube.quadrature`."""

    value: float
    error_estimate: float
    subdivisions: int


def apparent_viscosity(fluid: PowerLawFluid, strain_rate: float) -> float:
    """Apparent viscosity ``C * rate^(n-1)`` in Pa*s.

    The model has no low-shear plateau, so a zero or negative strain rate
    is a domain error (the n < 1 viscosity diverges at rest), and so is a
    viscosity past the float range.
    """
    if not strain_rate > 0.0:
        raise DomainError(f"strain_rate must be positive, got {strain_rate}")
    try:
        viscosity = fluid.consistency * strain_rate ** (fluid.index - 1.0)
    except OverflowError:
        viscosity = math.inf
    if viscosity == math.inf:
        raise DomainError(f"apparent viscosity at strain rate {strain_rate!r} "
                          f"is outside the float range (n={fluid.index!r})")
    return viscosity


def master_prefactor(fluid: PowerLawFluid, flow_rate: float) -> float:
    """Prefactor ``2 C Q^n (3n+1)^n / (pi^n n^n)`` of the master integral.

    Raises :class:`DomainError` when ``(3n+1)^n`` or ``pi^n n^n`` leaves
    the float range, from about n = 120 on.
    """
    n = fluid.index
    try:
        rise = (3.0 * n + 1.0) ** n
        fall = math.pi**n * n**n
    except OverflowError:
        rise = fall = math.inf
    if max(rise, fall) == math.inf:
        raise DomainError(f"flow index n={n!r} is too large: the prefactor "
                          "(3n+1)^n / (pi n)^n is outside the float range")
    return 2.0 * fluid.consistency * flow_rate**n * rise / fall


def _require_rel_tol(rel_tol: float) -> None:
    """Raise :class:`DomainError` unless ``rel_tol`` is in REL_TOL_RANGE."""
    lo_tol, hi_tol = REL_TOL_RANGE
    if not lo_tol <= rel_tol <= hi_tol:
        raise DomainError(
            f"rel_tol must be within [{lo_tol}, {hi_tol}], got {rel_tol}"
        )
