"""The five converging-diverging tube profiles.

Every profile lives on the symmetric frame ``x in [-L/2, L/2]`` with the
throat (minimum radius) at ``x = 0`` and the maximum radius at both ends.
:func:`coefficients` maps ``(r_min, r_max, length)`` to each profile's
internal parameters; :func:`radius_at` and :func:`radius_profile` evaluate
the radius itself and are the only profile knowledge the quadrature oracle
is allowed to use.  They, and :func:`sample_profile`, import numpy on
first use, and raise :class:`DomainError` for a profile that leaves the
float range.
"""

import math
import sys
from enum import Enum

from . import _kernels
from ._frozen import slot_setters, value_type
from .errors import DomainError

__all__ = [
    "ProfileCoefficients",
    "TubeShape",
    "TubeSpec",
    "coefficients",
    "radius_at",
    "radius_profile",
    "sample_profile",
]

# Relative slack on the |x| <= L/2 domain check, to absorb endpoint
# rounding from node generation.
_EDGE_SLACK = 1e-12

_SMALLEST_NORMAL = sys.float_info.min


class TubeShape(Enum):
    """Closed enumeration of the supported converging-diverging profiles."""

    CONIC = "conic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    COSH = "cosh"
    SINUSOIDAL = "sinusoidal"


# The members, bound once as module globals for the shape dispatch here and
# in :mod:`cdtube.flow`.  On Python 3.11 each ``TubeShape.COSH`` read goes
# through ``EnumType.__getattr__``, about 110 ns, where a global takes
# about 8 ns; a solve makes up to nine such reads.
_CONIC, _PARABOLIC, _HYPERBOLIC, _COSH, _SINUSOIDAL = TubeShape


@value_type
class TubeSpec:
    """Geometry of one converging-diverging unit.

    Parameters
    ----------
    shape : TubeShape
        Or its value string, such as ``"cosh"``.
    r_min : float
        Throat radius in m, at the tube midpoint.
    r_max : float
        Entry/exit radius in m; must satisfy ``r_min <= r_max``.
    length : float
        Axial length of the unit in m.

    Equal radii are accepted for every shape and flag the spec as a
    straight-tube degenerate, which downstream solvers dispatch to the
    constant-radius formula.
    """

    shape: TubeShape
    r_min: float
    r_max: float
    length: float

    def __init__(self, shape: TubeShape, r_min: float, r_max: float,
                 length: float):
        if shape.__class__ is not TubeShape:
            shape = _coerce_shape(shape)
        if not (r_min > 0.0 and math.isfinite(r_min)):
            raise DomainError(f"r_min must be positive, got {r_min}")
        if not (r_max >= r_min and math.isfinite(r_max)):
            raise DomainError(
                f"r_max must satisfy r_max >= r_min > 0, got r_min={r_min}, "
                f"r_max={r_max}"
            )
        if not (length > 0.0 and math.isfinite(length)):
            raise DomainError(f"length must be positive, got {length}")
        _set_shape(self, shape)
        _set_r_min(self, r_min)
        _set_r_max(self, r_max)
        _set_length(self, length)

    @property
    def is_straight(self) -> bool:
        """True when r_min equals r_max and the profile is a constant radius."""
        return self.r_min == self.r_max


_set_shape, _set_r_min, _set_r_max, _set_length = slot_setters(TubeSpec)


def _coerce_shape(value) -> TubeShape:
    """The :class:`TubeShape` named by ``value``, such as ``"cosh"``."""
    try:
        return TubeShape(value)
    except ValueError:
        raise DomainError(
            f"shape must be a TubeShape or one of "
            f"{', '.join(s.value for s in TubeShape)}, got {value!r}"
        ) from None


@value_type
class ProfileCoefficients:
    """Per-shape internal parameters (a, b, and k for the sinusoid).

    ``b = 0`` marks the straight-tube degenerate; ``k`` is None except for
    the sinusoidal profile where it is the angular wavenumber 2*pi/L.
    """

    a: float
    b: float
    k: float | None = None


def coefficients(spec: TubeSpec) -> ProfileCoefficients:
    """Map (r_min, r_max, length) to the profile's internal coefficients;
    one past the float range is inf or nan, not an OverflowError, and a
    square below the normal range is 0."""
    dr = spec.r_max - spec.r_min
    length = spec.length
    shape = spec.shape
    if shape is _CONIC:
        # Scaling by 2 is exact: 2 * dr could overflow where b does not.
        return ProfileCoefficients(spec.r_min, 2.0 * (dr / length))
    if shape is _PARABOLIC:
        return ProfileCoefficients(spec.r_min, _square(2.0 / length) * dr)
    if shape is _HYPERBOLIC:
        a = _square(spec.r_min)
        return ProfileCoefficients(
            a, _square(2.0 / length) * (_square(spec.r_max) - a))
    if shape is _COSH:
        return ProfileCoefficients(
            spec.r_min, 2.0 / length * math.acosh(spec.r_max / spec.r_min)
        )
    return ProfileCoefficients(  # sinusoidal
        0.5 * (spec.r_max + spec.r_min),
        0.5 * dr,
        2.0 * math.pi / length,
    )


def _square(v: float) -> float:
    """``v ** 2``; inf where ``**`` raises :class:`OverflowError`, and 0
    where the square is subnormal, as the digits it lost would be lost
    from a coefficient scaled back into the normal range."""
    try:
        square = v**2
    except OverflowError:
        return math.inf
    return square if square >= _SMALLEST_NORMAL else 0.0


def _throat_power(r_min: float, exponent: float, factor: float):
    """``factor * r_min ** exponent``, or None where the power or the
    product leaves the normal float range.

    The one test of whether a closed form, or the oracle's integrand at
    the throat, can take its power of ``r_min`` directly.  Where it says
    None the caller takes the tube with its radii divided by ``r_min``
    (:func:`cdtube.flow._conductance`, ``quadrature._unit_throat``) and
    applies ``r_min ** exponent`` in two halves; the result need not leave
    the range where the power does, at a nanometre throat or a wide tube.
    """
    try:
        power = r_min**exponent
    except OverflowError:
        return None
    product = factor * power
    if _SMALLEST_NORMAL <= power and _SMALLEST_NORMAL <= product < math.inf:
        return product
    return None


def _kernel_args(spec: TubeSpec):
    """``(shape, a, b, k)`` for :mod:`cdtube._kernels`: the shape's value,
    and for a straight tube of any shape the conic with zero slope, ``r =
    r_min``.  The one check of a profile's float range:
    ``b``, and ``a`` where it is not ``r_min`` itself, must be normal
    floats, and ``k`` finite, or :class:`DomainError` is raised.  A
    subnormal coefficient has lost digits: at 1e-320 a relative 1e-4."""
    if spec.is_straight:
        # All shapes collapse to r(x) = r_min; avoids 0/0 in shape formulas.
        return _CONIC._value_, spec.r_min, 0.0, 0.0
    coef = coefficients(spec)
    # The sinusoid kernel starts from the throat, not the mean radius.
    a, b, k = ((spec.r_min, coef.b, coef.k)
               if spec.shape is _SINUSOIDAL
               else (coef.a, coef.b, 0.0))
    if not (_SMALLEST_NORMAL <= b < math.inf and math.isfinite(k)
            and (a == spec.r_min or _SMALLEST_NORMAL <= a < math.inf)):
        raise DomainError(f"the {spec.shape.value} profile is outside the "
                          f"float range (r_min={spec.r_min!r}, "
                          f"r_max={spec.r_max!r}, length={spec.length!r})")
    # ``_value_`` holds what ``.value``, a Python-level property, returns.
    return spec.shape._value_, a, b, k


def radius_at(spec: TubeSpec, x: float) -> float:
    """Tube radius at axial position ``x`` (m), ``|x| <= length/2``."""
    half = 0.5 * spec.length
    if not abs(x) <= half * (1.0 + _EDGE_SLACK):  # NaN fails it too
        raise DomainError(
            f"x={x} outside the tube domain [-{half}, {half}]"
        )
    return float(radius_profile(spec, x))


def radius_profile(spec: TubeSpec, x):
    """Vectorized :func:`radius_at` over an array of axial positions.

    Every profile is even in x, so the kernel is given ``|x|``, clipped
    to ``L/2``; the quadrature oracle, whose nodes are never negative,
    calls the kernel directly and skips both steps.
    """
    import numpy as np

    half = 0.5 * spec.length
    x = np.abs(np.asarray(x, dtype=np.float64))
    if not np.all(x <= half * (1.0 + _EDGE_SLACK)):
        raise DomainError("profile positions outside the tube domain")
    return _kernels.profile_radius(*_kernel_args(spec), np.minimum(x, half))


def sample_profile(spec: TubeSpec, samples: int):
    """Evenly spaced ``(x, r)`` samples spanning the full tube length."""
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}")
    import numpy as np

    x = np.linspace(-0.5 * spec.length, 0.5 * spec.length, samples)
    return x, radius_profile(spec, x)
