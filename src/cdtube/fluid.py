"""Power-law rheology and the constant-radius capillary solutions.

The straight-tube relations anchor every limit check in the package: all
five corrugated geometries collapse onto them when the radius contrast
goes to one.
"""

import math
import warnings

from ._frozen import slot_setters, value_type
from .errors import DomainError, require_finite_non_negative

__all__ = [
    "PowerLawFluid",
    "apparent_viscosity",
    "straight_tube_conductance",
    "straight_tube_flow_rate",
    "straight_tube_pressure_drop",
]

# Flow behavior indices outside this range still compute, but K is checked
# against mpmath only inside it.  Outside it some closed forms raise and
# the quadrature fallback takes over, and from about n = 120 the prefactor
# (3n+1)^n / (pi n)^n leaves the float range.
SUPPORTED_INDEX_RANGE = (0.2, 2.0)


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


def straight_tube_conductance(fluid: PowerLawFluid, radius: float,
                              length: float) -> float:
    """Coefficient K with P = K * Q^n for a constant-radius capillary.

    Raises :class:`DomainError` for a radius or length that is not
    positive and finite, and for a K outside the positive float range.
    """
    if not 0.0 < radius < math.inf:
        raise DomainError(f"radius must be positive, got {radius}")
    if not 0.0 < length < math.inf:
        raise DomainError(f"length must be positive, got {length}")
    n = fluid.index
    try:
        k = (2.0 * fluid.consistency * (3.0 * n + 1.0) ** n * length
             / (math.pi**n * n**n * radius ** (3.0 * n + 1.0)))
    except (OverflowError, ZeroDivisionError):
        # A power past the float range, or one underflowing to 0.
        k = math.inf
    if not 0.0 < k < math.inf:
        raise DomainError("conductance K is outside the float range "
                          f"(radius={radius!r}, n={n!r})")
    return k


def _overflow(solved: str, given: float, k: float) -> DomainError:
    return DomainError(f"{solved} at {given!r} overflows the float range "
                       f"(K={k!r})")


def straight_tube_pressure_drop(fluid: PowerLawFluid, radius: float,
                                length: float, flow_rate: float) -> float:
    """Pressure drop in Pa across a straight capillary at ``flow_rate``.

    Zero flow returns exactly zero pressure drop.  A pressure drop past
    the float range raises :class:`DomainError`.
    """
    require_finite_non_negative("flow_rate", flow_rate)
    k = straight_tube_conductance(fluid, radius, length)
    try:
        p = k * flow_rate**fluid.index
    except OverflowError:
        p = math.inf
    if p == math.inf:
        raise _overflow("pressure drop", flow_rate, k)
    return p


def straight_tube_flow_rate(fluid: PowerLawFluid, radius: float,
                            length: float, pressure_drop: float) -> float:
    """Flow rate in m^3/s through a straight capillary; exact inverse of
    :func:`straight_tube_pressure_drop`.  A flow rate past the float range
    raises :class:`DomainError`."""
    require_finite_non_negative("pressure_drop", pressure_drop)
    k = straight_tube_conductance(fluid, radius, length)
    try:
        q = (pressure_drop / k) ** (1.0 / fluid.index)
    except OverflowError:
        q = math.inf
    if q == math.inf:
        raise _overflow("flow rate", pressure_drop, k)
    return q
