"""Closed-form pressure-drop/flow-rate relations for the five profiles.

Every relation factors as ``P = K * Q^n`` with a geometry- and
fluid-dependent conductance coefficient K, so the inverse problem
``Q(P)`` is a single root-free power.  K is elementary for the conic
profile.  For the parabolic, hyperbolic and cosh profiles it is one
incomplete beta function, taken by its continued fraction (DLMF
8.17.22) in a bounded number of steps.  For the sinusoid it is a
Legendre function, summed by the series kernel of :mod:`cdtube.special`:
one Pfaff series of positive terms up to ratio ``17 + 12 sqrt 2``, and
the two series of its ring-function expansion above.  Should a closed form
raise :class:`DegenerateParameterError` or :class:`ConvergenceError`,
the quadrature oracle takes over and the result records the fallback.
The quadrature's functions are bound here from
:mod:`cdtube.quadrature` on first use by the module ``__getattr__``,
through which the solvers and the CLI alike reach them, so a
closed-form solve does not import it.  A straight capillary is a
:class:`TubeSpec` with equal radii, of any shape, and K is the
Hagen-Poiseuille form of the power-law fluid; the ``straight_tube_*``
helpers solve ``TubeSpec(TubeShape.CONIC, radius, radius, length)``.
Where a closed form's power of ``r_min`` leaves the normal float range,
at a nanometre throat or a wide tube, while K need not, the closed form
returns None, and K is the same closed form's on the unit-throat tube,
its radii divided by ``r_min`` and its length 1, times ``L
r_min^-(3n+1)`` applied in two halves.  One test,
:func:`cdtube.geometry._throat_power`, decides it for the conic, the beta
forms, the straight tube and the quadrature oracle.  Every route ends in
one check: a K that is not a positive normal float raises
:class:`DomainError`, since one below the normal range has lost digits.
"""

import functools
import math
import sys

from . import special
from ._frozen import value_type
from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    EvaluationError,
    require_finite_non_negative,
)
from .fluid import (
    DEFAULT_REL_TOL,
    FALLBACK_REL_TOL,
    MAX_PANELS,
    PowerLawFluid,
    master_prefactor,
)
from .geometry import (
    _CONIC,
    _HYPERBOLIC,
    _PARABOLIC,
    _SINUSOIDAL,
    TubeSpec,
    _throat_power,
)

__all__ = [
    "FlowResult",
    "conductance_coefficient",
    "flow_rate",
    "pressure_drop",
    "straight_tube_conductance",
    "straight_tube_flow_rate",
    "straight_tube_pressure_drop",
]

METHOD_ANALYTIC = "analytic"
METHOD_FALLBACK = "quadrature_fallback"

_BETA_NOTE = ("%s closed form: beta continued fraction converged after %s "
              "steps")
_SINUSOID_NOTE = "sinusoid closed form: Legendre 2F1 " + special.SERIES_NOTE

# The beta continued fraction's step cap, and the largest move of its last
# step: one unit in the last place of 1.  The beta forms were measured to
# take at most 20 steps over n in [0.2, 2], and 67 up to n = 120, where
# the prefactor leaves the float range.
MAX_FRACTION_STEPS = 100
_FRACTION_RTOL = 2.220446049250313e-16

_ROOT_PI = math.sqrt(math.pi)
_NORMAL_MIN = sys.float_info.min

# Above this ratio, (3 + 2 sqrt 2)^2, the sinusoid takes the ring-function
# expansion; up to it the Pfaff variable tanh^2(xi/2) is at most 1/2.
_RING_RATIO = 17.0 + 12.0 * math.sqrt(2.0)


@value_type
class FlowResult:
    """One solved operating point.

    Exactly one of ``pressure_drop`` / ``flow_rate`` is set, matching the
    direction of the solve.  ``method`` records whether the closed form or
    the quadrature fallback produced the value, and ``oracle_value`` /
    ``rel_error`` are filled when validation was requested.
    """

    pressure_drop: float | None
    flow_rate: float | None
    method: str
    diagnostics: str
    oracle_value: float | None = None
    rel_error: float | None = None


def _beta_fraction(a: float, b: float, x: float):
    """The continued fraction of ``a B_x(a, b) / (x^a (1-x)^b)`` (DLMF
    8.17.22) and the steps taken, by the modified Lentz method (Thompson
    and Barnett, J. Comput. Phys. 64, 1986) without its guards against a
    zero denominator.

    Each step applies the fraction's even and odd partial numerators, and
    the fraction ends when a step moves it by at most ``_FRACTION_RTOL``.
    It converges fast below ``x = (a+1)/(a+b+2)``.  A zero denominator,
    which raises ``ZeroDivisionError`` in the loop, and
    ``MAX_FRACTION_STEPS`` steps raise :class:`ConvergenceError`.
    """
    apb = a + b
    m, cap, rtol = 0.0, float(MAX_FRACTION_STEPS), _FRACTION_RTOL
    try:
        c, d = 1.0, 1.0 / (1.0 - apb * x / (a + 1.0))
        value = d
        while m < cap:
            m += 1.0
            a2m = a + 2.0 * m
            num = m * (b - m) * x / ((a2m - 1.0) * a2m)
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            value *= d * c
            num = -(a + m) * (apb + m) * x / (a2m * (a2m + 1.0))
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            step = d * c
            value *= step
            if abs(step - 1.0) <= rtol:
                return value, int(m)
    except ZeroDivisionError:
        # Outside the loop, a try costs nothing per step.
        raise ConvergenceError(
            f"beta continued fraction for (a={a}, b={b}) at x={x}: a zero "
            f"denominator at step {int(m)}") from None
    raise ConvergenceError(
        f"beta continued fraction for (a={a}, b={b}) at x={x} did not "
        f"converge within {MAX_FRACTION_STEPS} steps", best_estimate=value)


def _beta(q: float, t2: float, w: float):
    """``int_0^sqrt(t2) (1 - u^2)^(q/2 - 1) du`` and the fraction's steps.

    This is ``(1/2) B_t2(1/2, q/2)``, an incomplete beta function (DLMF
    8.17); ``w = 1 - t2`` comes formed by the caller, without
    cancellation.  Below ``t2 = 3/(q + 5)`` it is ``sqrt(t2) w^(q/2)``
    times the continued fraction at ``t2``; from there, by the symmetry
    of DLMF 8.17.4, the complete integral less ``w^(q/2) sqrt(t2)/q``
    times the fraction with its parameters swapped, at ``w``.  Either way
    the fraction runs at or below its own ``(a+1)/(a+b+2)``.
    """
    half = 0.5 * q
    if t2 < 3.0 / (q + 5.0):
        h, steps = _beta_fraction(0.5, half, t2)
        return math.sqrt(t2) * w**half * h, steps
    if w == 0.0:  # ratio^-2 underflows from ratio ~1.3e154: no step taken
        tail, steps = 0.0, 0
    else:
        h, steps = _beta_fraction(half, 0.5, w)
        tail = w**half * math.sqrt(t2) / q * h
    if half < 170.0:
        gamma_ratio = math.gamma(half) / math.gamma(half + 0.5)
    else:  # Gamma(half + 1/2) past the float range
        gamma_ratio = math.exp(math.lgamma(half) - math.lgamma(half + 0.5))
    return 0.5 * _ROOT_PI * gamma_ratio - tail, steps


def _legendre(r_min: float, r_max: float, nu: float):
    """``(r_min r_max)^(-(nu+1)/2) P_nu(z)`` of the sinusoid, ``z = (r_min +
    r_max) / (2 sqrt(r_min r_max))``, and the series terms summed.

    With ``e^xi = sqrt(r_max/r_min)``, ``z = cosh xi``.  Neither form
    builds ``P_nu(z)`` or a power of the mean radius, which leave the float
    range at high ratio while K does not.

    * Up to ratio ``17 + 12 sqrt 2`` it is the Pfaff form (DLMF 15.8.1)
      ``s^(2 nu) / sqrt(r_min r_max) 2F1(-nu, -nu; 1; w)``, with ``s =
      (r_min^-1/2 + r_max^-1/2)/2`` and ``w = tanh^2(xi/2) <= 1/2``.  Its
      terms are never negative.
    * Above, the expansion of the ring functions (DLMF 14.19, through the
      connection formulas of DLMF 15.8) in ``y = r_min/r_max``:
      ``(Gamma(nu+1/2)/Gamma(nu+1) r_min^-(nu+1/2) r_max^-1/2 2F1(1/2,
      -nu; 1/2-nu; y) + Gamma(-nu-1/2)/Gamma(-nu) r_max^-(nu+1) 2F1(1/2,
      nu+1; nu+3/2; y)) / sqrt(pi)``.  Near a half-odd ``nu`` its two
      halves cancel.  The Pfaff series, at ``w`` above 1/2 there, serves
      instead when they cancel to more than ``_CANCELLATION_LIMIT`` times
      their sum, when the sum is not finite, and when a coefficient
      cannot be formed: at an exact half-odd ``nu``, ``1/2 - nu`` is a
      pole of the first series.
    """
    root_min, root_max = math.sqrt(r_min), math.sqrt(r_max)
    spent = 0
    if r_max > _RING_RATIO * r_min:
        y = r_min / r_max
        # Gamma(-nu-1/2)/Gamma(-nu) = tan(pi nu) Gamma(nu+1)/Gamma(nu+3/2)
        # (reflection, DLMF 5.5.3).  tan(pi nu) is taken from the distance
        # of nu to the nearest integer, where it is 0, or past 1/4 from it
        # to the nearest half-odd value, its pole.  Both distances are
        # exact, as is 1/2 - nu + k of the first series: near a half-odd nu
        # the two halves carry the same pole.
        frac = math.remainder(nu, 1.0)
        try:
            if abs(frac) <= 0.25:
                tan = math.tan(math.pi * frac)
            else:  # ZeroDivisionError at a half-odd nu
                tan = -1.0 / math.tan(
                    math.pi * (frac - math.copysign(0.5, frac)))
            if nu < 170.0:
                gamma_ratio = math.gamma(nu + 0.5) / math.gamma(nu + 1.0)
            else:  # Gamma(nu + 1) past the float range
                gamma_ratio = math.exp(math.lgamma(nu + 0.5)
                                       - math.lgamma(nu + 1.0))
            h1, t1 = special._series_checked(0.5, -nu, 0.5 - nu, y,
                                             "gauss_2f1 (ring)")
            h2, t2 = special._series_checked(0.5, nu + 1.0, nu + 1.5, y,
                                             "gauss_2f1 (ring)")
            # r_min^-(nu+1/2) r_max^-1/2 in two halves: at a nanometre
            # throat and high ratio r_min^-(nu+1/2) alone overflows first.
            # Each half takes its 1/sqrt(pi) as it is formed, so that
            # neither overflows where K is near the top of the float range.
            half_power = r_min ** (-0.5 * nu - 0.25)
            first = (gamma_ratio / _ROOT_PI * half_power
                     * (half_power / root_max) * h1)
            second = (tan / ((nu + 0.5) * gamma_ratio * _ROOT_PI)
                      * r_max ** -(nu + 1.0) * h2)
        except (ZeroDivisionError, OverflowError, ConvergenceError):
            pass
        else:
            value = first + second
            if (abs(value) < math.inf and abs(first) + abs(second)
                    <= special._CANCELLATION_LIMIT * abs(value)):
                return value, t1 + t2
            spent = t1 + t2
    # tanh(xi/2) = (sqrt r_max - sqrt r_min) / (sqrt r_max + sqrt r_min),
    # its numerator formed without cancellation
    roots = root_min + root_max
    w = ((r_max - r_min) / roots / roots) ** 2
    h, terms = special._series_checked(-nu, -nu, 1.0, w, "gauss_2f1 (Pfaff)")
    s = 0.5 * (1.0 / root_min + 1.0 / root_max)
    return s ** (2.0 * nu) / (root_min * root_max) * h, spent + terms


def _geometric_integral(spec: TubeSpec, n: float):
    """Closed form of ``integral r(x)^-(3n+1) dx`` over the tube; returns
    ``(value, diagnostics)``, or ``(None, None)`` where a power of
    ``r_min`` leaves the normal float range.

    The contrast ``d = r_max/r_min - 1`` is formed from the radius
    difference: a small contrast keeps its digits.  The conic's ``head *
    r_min^-3n`` and the beta forms' ``scale * r_min^(3n+1)`` are taken by
    :func:`cdtube.geometry._throat_power`; the sinusoid's ``K/L`` and ``L``
    times it must be normal floats, and its closed form must not overflow.
    Where one is not, at a nanometre throat or a wide tube,
    :func:`_conductance` takes the closed form again on the unit-throat
    tube.
    """
    length = spec.length
    r_min, r_max = spec.r_min, spec.r_max
    three_n = 3.0 * n
    shape = spec.shape

    if shape is _SINUSOIDAL:
        # r = A - B cos(2 pi x / L) with A^2 - B^2 = r_min r_max.  Laplace's
        # integral for the Legendre function (DLMF 14.12, with P_nu =
        # P_{-nu-1}) gives L (r_min r_max)^(-m/2) P_{3n}(z), m = 3n + 1,
        # z = A / sqrt(r_min r_max).
        try:
            h, terms = _legendre(r_min, r_max, three_n)
        except OverflowError:
            return None, None
        value = length * h
        if not (_NORMAL_MIN <= h and _NORMAL_MIN <= value < math.inf):
            return None, None
        return value, _SINUSOID_NOTE % terms

    d = (r_max - r_min) / r_min
    if shape is _CONIC:
        # 1 - ratio^-3n without cancellation at small contrast
        head = length * -math.expm1(-three_n * math.log1p(d))
        numerator = _throat_power(r_min, -three_n, head)
        if numerator is None:
            return None, None
        return numerator / (three_n * (r_max - r_min)), "conic closed form"

    # The beta forms: K = L * _beta(q, t2, w) / (scale * r_min^m).
    ratio = r_max / r_min
    m = three_n + 1.0
    if shape is _PARABOLIC:
        # r = r_min (1 + d y^2), y = 2x/L; u = sin(atan(sqrt(d) y))
        q, t2, w, scale = 6.0 * n + 1.0, d / ratio, 1.0 / ratio, math.sqrt(d)
    else:
        # Hyperbolic and cosh: sinh eta and tanh^2 eta of cosh eta = ratio.
        sinh2 = d * (d + 2.0)  # ratio^2 - 1 without cancellation
        if sinh2 < math.inf:
            sinh, t2 = math.sqrt(sinh2), sinh2 / ratio**2
        else:  # ratio^2 past the float range, from about 1.3e154
            sinh = math.sqrt(d) * math.sqrt(d + 2.0)
            t2 = (d / ratio) * ((d + 2.0) / ratio)
        w = ratio**-2
        if shape is _HYPERBOLIC:
            # r^2 = r_min^2 (1 + sinh^2 y^2); u = sin(atan(sinh y))
            q, scale = three_n, sinh
        else:
            # Cosh: r = r_min cosh(eta y); u = tanh(eta y)
            q, scale = m, math.log1p(d + sinh)  # eta = acosh(ratio)
    h, steps = _beta(q, t2, w)
    denominator = _throat_power(r_min, m, scale)
    if denominator is None:
        return None, None
    # ``_value_`` holds what ``.value``, a Python-level property, returns.
    return length * h / denominator, _BETA_NOTE % (shape._value_, steps)


def _conductance(fluid: PowerLawFluid, spec: TubeSpec,
                 max_panels: int = MAX_PANELS):
    """``(K, method, diagnostics)`` for the fluid and tube; ``method`` is
    ``METHOD_ANALYTIC`` or ``METHOD_FALLBACK``.

    The one rescue: where the closed form's power of ``r_min`` leaves the
    normal float range (it returns None), K is the closed form's K on the
    unit-throat tube ``TubeSpec(shape, 1, r_max/r_min, 1)`` times ``(L *
    half) * half``, ``half = r_min^(-(3n+1)/2)``, since K scales as ``L
    r_min^-(3n+1)``.  That order keeps every factor normal at a nanometre
    throat and at a wide tube alike.  A closed form that fails on the
    unit-throat tube, or a ratio or ``half`` past the float range, leaves K
    outside the float range, and sends no tube to the quadrature fallback.

    Raises :class:`DomainError` from the prefactor, before any route, for
    a flow index past about 120, and if K is not a positive normal float.
    """
    n = fluid.index
    prefactor = master_prefactor(fluid, 1.0)
    try:
        if spec.is_straight:
            # As written: prefactor * L / r_min^(3n+1) rounds differently.
            m = 3.0 * n + 1.0
            denominator = _throat_power(spec.r_min, m, math.pi**n * n**n)
            k = (None if denominator is None else
                 2.0 * fluid.consistency * m**n * spec.length / denominator)
            diag = "degenerate: straight tube"
        else:
            geom, diag = _geometric_integral(spec, n)
            k = None if geom is None else prefactor * geom
        if k is None:
            ratio = spec.r_max / spec.r_min
            if not ratio < math.inf:
                raise OverflowError("r_max / r_min")
            half = spec.r_min ** (-0.5 * (3.0 * n + 1.0))
            unit = TubeSpec(spec.shape, 1.0, ratio, 1.0)
            # The straight unit tube's K, as written, is the prefactor.
            k, diag = prefactor, "degenerate: straight tube"
            if not unit.is_straight:
                try:
                    geom, diag = _geometric_integral(unit, n)
                except ConvergenceError:
                    geom = None
                if geom is None:
                    raise OverflowError("the unit-throat tube's K")
                k = prefactor * geom
            k = k * (spec.length * half) * half
        method = METHOD_ANALYTIC
    except (OverflowError, ZeroDivisionError):
        # A power past the float range, or one of r_min underflowing to 0.
        k = math.inf
    except (DegenerateParameterError, ConvergenceError) as exc:
        try:
            base = __getattr__("integrate_inverse_radius_power")(
                spec, 3.0 * n + 1.0, FALLBACK_REL_TOL, max_panels=max_panels)
        except ConvergenceError as quad_exc:
            raise EvaluationError(
                f"analytic route failed ({exc}) and the quadrature fallback "
                f"did not converge ({quad_exc})"
            ) from quad_exc
        k = prefactor * base.value
        method = METHOD_FALLBACK
        diag = (f"fallback to quadrature ({base.subdivisions} panels, "
                f"rel_tol={FALLBACK_REL_TOL}): {exc}")
    if not _NORMAL_MIN <= k < math.inf:
        raise DomainError("conductance K is outside the float range "
                          f"(r_min={spec.r_min!r}, n={n!r})")
    return k, method, diag


def conductance_coefficient(fluid: PowerLawFluid, spec: TubeSpec) -> float:
    """Coefficient K in ``P = K * Q^n`` for the given fluid and geometry."""
    return _conductance(fluid, spec)[0]


def _oracle(fluid: PowerLawFluid, spec: TubeSpec, rel_tol: float,
            max_panels: int):
    """The validating oracle: ``pressure_drop_numeric`` of the fluid and
    tube, as a function of Q."""
    return functools.partial(__getattr__("pressure_drop_numeric"), fluid,
                             spec, rel_tol=rel_tol, max_panels=max_panels)


def _operating_point(fluid: PowerLawFluid, cond, given: float,
                     pressure_given: bool, oracle=None) -> FlowResult:
    """Apply ``P = K * Q^n`` at one operating point.

    ``cond`` is the ``(K, method, diagnostics)`` of :func:`_conductance`.
    ``given`` is Q, or P when ``pressure_given``.  ``oracle`` maps Q to the
    quadrature oracle's :class:`QuadratureResult`; with it the result
    carries the oracle's P and the relative deviation of P from it.
    :func:`pressure_drop`, :func:`flow_rate` and the CLI sweep, which
    computes K once for all its rows, share this step.

    Raises :class:`DomainError` if P or Q overflows, before the oracle
    runs, if the oracle's P does, or if the oracle's P is 0 or subnormal
    beside a P that is not 0: a relative error against it would say
    nothing.
    """
    k, method, diagnostics = cond
    oracle_value = rel_error = None
    try:
        if pressure_given:
            p, q = given, (given / k) ** (1.0 / fluid.index)
        else:
            p, q = k * given**fluid.index, given
        in_range = math.isfinite(p) and math.isfinite(q)
        if in_range and oracle is not None:
            oracle_value = oracle(q).value
            in_range = math.isfinite(oracle_value)
            if oracle_value < _NORMAL_MIN and p != 0.0:
                raise DomainError(
                    f"the oracle's pressure drop {oracle_value!r} is below "
                    f"the normal float range, beside P={p!r}")
            rel_error = (abs(p - oracle_value) / abs(oracle_value)
                         if oracle_value != 0.0 else 0.0)
    except OverflowError:
        in_range = False
    if not in_range:
        solved = "flow rate" if pressure_given else "pressure drop"
        raise DomainError(f"{solved} at {given!r} overflows the float range "
                          f"(K={k!r})")
    return FlowResult(None if pressure_given else p,
                      q if pressure_given else None,
                      method, diagnostics, oracle_value, rel_error)


def pressure_drop(fluid: PowerLawFluid, spec: TubeSpec, flow_rate: float,
                  validate: bool = False,
                  oracle_rel_tol: float = DEFAULT_REL_TOL,
                  max_panels: int = MAX_PANELS) -> FlowResult:
    """Pressure drop in Pa driving ``flow_rate`` through the tube.

    With ``validate=True`` the quadrature oracle is co-evaluated and the
    relative deviation embedded in the result.  A pressure drop beyond the
    float range raises :class:`DomainError`.
    """
    require_finite_non_negative("flow_rate", flow_rate)
    cond = _conductance(fluid, spec, max_panels=max_panels)
    oracle = (_oracle(fluid, spec, oracle_rel_tol, max_panels) if validate
              else None)
    return _operating_point(fluid, cond, flow_rate, False, oracle)


def flow_rate(fluid: PowerLawFluid, spec: TubeSpec, pressure_drop: float,
              validate: bool = False,
              oracle_rel_tol: float = DEFAULT_REL_TOL,
              max_panels: int = MAX_PANELS) -> FlowResult:
    """Flow rate in m^3/s produced by ``pressure_drop``; exact inversion
    of ``P = K * Q^n``.  A flow rate beyond the float range raises
    :class:`DomainError`."""
    require_finite_non_negative("pressure_drop", pressure_drop)
    cond = _conductance(fluid, spec, max_panels=max_panels)
    oracle = (_oracle(fluid, spec, oracle_rel_tol, max_panels) if validate
              else None)
    return _operating_point(fluid, cond, pressure_drop, True, oracle)


def straight_tube_conductance(fluid: PowerLawFluid, radius: float,
                              length: float) -> float:
    """K of a constant-radius capillary: :func:`conductance_coefficient`
    of the straight ``TubeSpec(TubeShape.CONIC, radius, radius, length)``."""
    return conductance_coefficient(
        fluid, TubeSpec(_CONIC, radius, radius, length))


def straight_tube_pressure_drop(fluid: PowerLawFluid, radius: float,
                                length: float, flow_rate: float) -> float:
    """Pressure drop in Pa across a constant-radius capillary: the
    :func:`pressure_drop` of the straight :class:`TubeSpec`."""
    return pressure_drop(fluid, TubeSpec(_CONIC, radius, radius,
                                         length), flow_rate).pressure_drop


def straight_tube_flow_rate(fluid: PowerLawFluid, radius: float,
                            length: float, pressure_drop: float) -> float:
    """Flow rate in m^3/s through a constant-radius capillary: the
    :func:`flow_rate` of the straight :class:`TubeSpec`."""
    return flow_rate(fluid, TubeSpec(_CONIC, radius, radius,
                                     length), pressure_drop).flow_rate


def __getattr__(name):
    """The module's binding of ``integrate_inverse_radius_power``,
    ``pressure_drop_numeric`` or ``pressure_drop_oracle``, made from
    :mod:`cdtube.quadrature` if there is none yet.  This module's own
    fallback and oracle read their name through it too, so a function
    assigned to one of these names is the one they call."""
    if name not in ("integrate_inverse_radius_power",
                    "pressure_drop_numeric", "pressure_drop_oracle"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    bound = globals()
    if name not in bound:
        from . import quadrature
        bound[name] = getattr(quadrature, name)
    return bound[name]
