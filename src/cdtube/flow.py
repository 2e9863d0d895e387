"""Closed-form pressure-drop/flow-rate relations for the five profiles.

Every relation factors as ``P = K * Q^n`` with a geometry- and
fluid-dependent conductance coefficient K, so the inverse problem
``Q(P)`` is a single root-free power.  The analytic route is tried
first; degenerate hypergeometric parameters or non-convergence trigger a
silent fallback to the quadrature oracle, recorded in the result.
"""

import functools
import math
from dataclasses import dataclass

from . import special
from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    EvaluationError,
    require_finite_non_negative,
)
from .fluid import PowerLawFluid, straight_tube_conductance
from .geometry import TubeShape, TubeSpec
from .quadrature import (
    DEFAULT_REL_TOL,
    FALLBACK_REL_TOL,
    MAX_PANELS,
    integrate_inverse_radius_power,
    master_prefactor,
    pressure_drop_numeric,
)

__all__ = [
    "FlowResult",
    "conductance_coefficient",
    "flow_rate",
    "pressure_drop",
]

METHOD_ANALYTIC = "analytic"
METHOD_FALLBACK = "quadrature_fallback"


@dataclass(frozen=True)
class FlowResult:
    """One solved operating point.

    Exactly one of ``pressure_drop`` / ``flow_rate`` is set, matching the
    direction of the solve.  ``method`` records whether the closed form or
    the quadrature fallback produced the value, ``branch`` which side of
    the branch cut the continued hypergeometric was taken on (None when no
    continuation was involved), and ``oracle_value`` / ``rel_error`` are
    filled when validation was requested.
    """

    pressure_drop: float | None
    flow_rate: float | None
    method: str
    branch: str | None
    diagnostics: str
    oracle_value: float | None = None
    rel_error: float | None = None


@dataclass(frozen=True)
class _Conductance:
    value: float
    method: str
    branch: str | None
    diagnostics: str


def _degenerate_index(shape: TubeShape, n: float) -> str | None:
    """Reason string when the closed form cannot be evaluated at this n."""
    three_n = 3.0 * n
    if shape is TubeShape.COSH and special._is_int(three_n):
        return f"cosh closed form degenerates at integer 3n (3n={three_n})"
    if shape is TubeShape.SINUSOIDAL:
        if special._is_int(three_n):
            return f"sinusoid closed form degenerates at integer 3n (3n={three_n})"
        if special._is_int(three_n + 0.5):
            return ("sinusoid boundary reduction degenerates at half-odd 3n "
                    f"(3n={three_n})")
    return None


def _signed_imaginary(value: special.ComplexValue) -> tuple[float, str]:
    """Positive imaginary magnitude and the branch that produces it.

    The evaluation is done on the 'above' side; conjugate symmetry makes
    the other side's value free, and positivity of the physical pressure
    drop picks between them.
    """
    if value.im > 0.0:
        return value.im, special.BRANCH_ABOVE
    if value.im < 0.0:
        return -value.im, special.BRANCH_BELOW
    raise ConvergenceError(
        "continued hypergeometric evaluation returned a vanishing "
        "imaginary part; no physical branch"
    )


def _geometric_integral(spec: TubeSpec, n: float):
    """Closed form of ``integral r(x)^-(3n+1) dx`` divided into the master
    prefactor; returns ``(value, branch, diagnostics)``."""
    length = spec.length
    r_min, r_max = spec.r_min, spec.r_max
    ratio = r_max / r_min
    three_n = 3.0 * n

    reason = _degenerate_index(spec.shape, n)
    if reason is not None:
        raise DegenerateParameterError(reason)

    if spec.shape is TubeShape.CONIC:
        value = (length * (r_min**-three_n - r_max**-three_n)
                 / (3.0 * n * (r_max - r_min)))
        return value, None, "conic closed form"

    if spec.shape is TubeShape.PARABOLIC:
        h, rep = special.gauss_2f1(0.5, three_n + 1.0, 1.5, 1.0 - ratio,
                                   full_output=True)
        value = length * h / r_min ** (three_n + 1.0)
        return value, None, f"parabolic closed form: 2F1 {rep.summary()}"

    if spec.shape is TubeShape.HYPERBOLIC:
        h, rep = special.gauss_2f1(0.5, (three_n + 1.0) / 2.0, 1.5,
                                   1.0 - ratio**2, full_output=True)
        value = length * h / r_min ** (three_n + 1.0)
        return value, None, f"hyperbolic closed form: 2F1 {rep.summary()}"

    if spec.shape is TubeShape.COSH:
        h, rep = special.gauss_2f1_continued(
            0.5, -three_n / 2.0, (2.0 - three_n) / 2.0, ratio**2,
            special.BRANCH_ABOVE, full_output=True,
        )
        magnitude, branch = _signed_imaginary(h)
        value = (length * magnitude
                 / (3.0 * n * r_min * r_max**three_n * math.acosh(ratio)))
        return value, branch, f"cosh closed form: Im 2F1 {rep.summary()}"

    if spec.shape is TubeShape.SINUSOIDAL:
        h, rep = special.appell_f1(
            -three_n, 0.5, 0.5, 1.0 - three_n, 1.0, ratio,
            special.BRANCH_ABOVE, full_output=True,
        )
        magnitude, branch = _signed_imaginary(h)
        value = (length * magnitude
                 / (3.0 * math.pi * n * r_max**three_n
                    * math.sqrt(r_max * r_min)))
        return value, branch, f"sinusoid closed form: Im F1 {rep.summary()}"

    raise DomainError(f"unknown shape {spec.shape!r}")


def _conductance(fluid: PowerLawFluid, spec: TubeSpec,
                 fallback_rel_tol: float = FALLBACK_REL_TOL,
                 max_panels: int = MAX_PANELS) -> _Conductance:
    n = fluid.index
    try:
        if spec.is_straight:
            k = straight_tube_conductance(fluid, spec.r_min, spec.length)
            return _Conductance(k, METHOD_ANALYTIC, None,
                                "degenerate: straight tube")
        geom, branch, diag = _geometric_integral(spec, n)
    except (OverflowError, ZeroDivisionError) as exc:
        # A power of r_min past the float range, or one underflowing to 0.
        raise DomainError(
            "conductance K is outside the float range "
            f"(r_min={spec.r_min!r}, n={n!r})"
        ) from exc
    except (DegenerateParameterError, ConvergenceError) as exc:
        try:
            base = integrate_inverse_radius_power(
                spec, 3.0 * n + 1.0, fallback_rel_tol, max_panels=max_panels
            )
        except ConvergenceError as quad_exc:
            raise EvaluationError(
                f"analytic route failed ({exc}) and the quadrature fallback "
                f"did not converge ({quad_exc})"
            ) from quad_exc
        geom = base.value
        k = master_prefactor(fluid, 1.0) * geom
        return _Conductance(
            k, METHOD_FALLBACK, None,
            f"fallback to quadrature ({base.subdivisions} panels, "
            f"rel_tol={fallback_rel_tol}): {exc}",
        )
    k = master_prefactor(fluid, 1.0) * geom
    return _Conductance(k, METHOD_ANALYTIC, branch, diag)


def conductance_coefficient(fluid: PowerLawFluid, spec: TubeSpec) -> float:
    """Coefficient K in ``P = K * Q^n`` for the given fluid and geometry."""
    return _conductance(fluid, spec).value


def _operating_point(fluid: PowerLawFluid, cond: _Conductance, given: float,
                     pressure_given: bool, oracle=None) -> FlowResult:
    """Apply ``P = K * Q^n`` at one operating point.

    ``given`` is Q, or P when ``pressure_given``.  ``oracle`` maps Q to the
    quadrature oracle's :class:`QuadratureResult`; with it the result
    carries the oracle's P and the relative deviation of P from it.
    :func:`pressure_drop`, :func:`flow_rate` and the CLI sweep, which
    computes K once for all its rows, share this step.

    Raises :class:`DomainError` if K is not a positive finite float, or if
    the result or the oracle's P overflows.
    """
    k = cond.value
    if not 0.0 < k < math.inf:
        raise DomainError(f"conductance K={k!r} is outside the float range")
    try:
        if pressure_given:
            p, q = given, (given / k) ** (1.0 / fluid.index)
        else:
            p, q = k * given**fluid.index, given
        oracle_value = None if oracle is None else oracle(q).value
        in_range = (math.isfinite(p) and math.isfinite(q)
                    and (oracle is None or math.isfinite(oracle_value)))
    except OverflowError:
        in_range = False
    if not in_range:
        solved = "flow rate" if pressure_given else "pressure drop"
        raise DomainError(f"{solved} at {given!r} overflows the float range "
                          f"(K={k!r})")
    rel_error = None
    if oracle is not None:
        rel_error = (abs(p - oracle_value) / abs(oracle_value)
                     if oracle_value != 0.0 else 0.0)
    return FlowResult(None if pressure_given else p,
                      q if pressure_given else None,
                      cond.method, cond.branch, cond.diagnostics,
                      oracle_value, rel_error)


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
    oracle = (functools.partial(pressure_drop_numeric, fluid, spec,
                                rel_tol=oracle_rel_tol, max_panels=max_panels)
              if validate else None)
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
    oracle = (functools.partial(pressure_drop_numeric, fluid, spec,
                                rel_tol=oracle_rel_tol, max_panels=max_panels)
              if validate else None)
    return _operating_point(fluid, cond, pressure_drop, True, oracle)
