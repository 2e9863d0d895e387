"""Adaptive quadrature of the master pressure integral.

This module is the independent ground truth for every analytic result:
it evaluates ``integral of r(x)^-(3n+1) dx`` over the tube using only the
package-wide radius evaluation (the same code path as
:func:`cdtube.geometry.radius_at`), never the per-shape antiderivatives.

The scheme is adaptive bisection with a nested Clenshaw-Curtis pair
(65-point high rule, embedded 33-point low rule) per panel; the panel
error is the difference of the two estimates and the worst panel is
always split next.  Both estimates come from one product of the values
with the two rules' weights stacked in a 2x65 matrix.  Clenshaw-Curtis
converges geometrically on these analytic integrands, so most integrals
settle in the first panel, which is then returned as it is, with no
heap.  The first panel ``[0, L/2]`` forms its nodes in one product,
``halfwidth * (1 + c)``; any other panel's nodes are ``mid + halfwidth *
c``.  Either is clipped to the panel's ends only where its extreme nodes
can miss them; elsewhere rounding, being monotone, keeps every node
inside.  Where ``r_min ** -exponent``, the integrand at the throat,
overflows or falls below the normal float range, by the test of
``geometry._throat_power`` that the closed forms take too, the tube is
integrated with its radii divided by ``r_min``, and the power applied to
the result in two halves.  The split order is fixed and the returned
sums are exactly rounded, so identical inputs give bit-identical results
within one build.  numpy is imported, and the rule built, by the first
integration.

A closed-form solve does not import this module.  :mod:`cdtube.flow`
binds its names on the first oracle or fallback, for the solvers and the
CLI alike, and the package's ``integrate_inverse_radius_power`` and
``pressure_drop_numeric`` import it on their first call.  What every
solve needs without it, ``QuadratureResult``, ``master_prefactor`` and
the oracle's tolerances and panel cap, lives in :mod:`cdtube.fluid`.
"""

import functools
import heapq
import itertools
import math

from . import _kernels, geometry
from .errors import ConvergenceError, DomainError, require_finite_non_negative
from .fluid import (
    DEFAULT_REL_TOL,
    MAX_PANELS,
    PowerLawFluid,
    QuadratureResult,
    _require_rel_tol,
    master_prefactor,
)
from .geometry import TubeSpec

__all__ = [
    "QuadratureResult",
    "integrate_inverse_radius_power",
    "master_prefactor",
    "pressure_drop_numeric",
]


def _chebyshev_rule(npts: int):
    """Clenshaw-Curtis nodes and weights on [-1, 1].

    Weights solve the Chebyshev moment system sum_j w_j T_k(x_j) = m_k,
    where m_k = 2/(1-k^2) for even k and 0 for odd k.
    """
    import numpy as np

    order = npts - 1
    angles = np.arange(npts) * np.pi / order
    nodes = np.cos(angles)
    vander = np.cos(np.outer(np.arange(npts), angles))
    moments = np.zeros(npts)
    even = np.arange(0, npts, 2)
    moments[even] = 2.0 / (1.0 - even.astype(np.float64) ** 2)
    weights = np.linalg.solve(vander, moments)
    return nodes, weights


@functools.cache
def _rules():
    """65-point nodes with the 65- and 33-point weights.

    The 33-point nodes are the even-index subset of the 65-point nodes, so
    one batch of function values feeds both rules.
    """
    nodes_hi, weights_hi = _chebyshev_rule(65)
    _, weights_lo = _chebyshev_rule(33)
    return nodes_hi, weights_hi, weights_lo


@functools.cache
def _panel_rule():
    """The panel driver's form of :func:`_rules`: the nodes ``c``, ``1 +
    c``, and both rules' weights stacked in a 2x65 matrix.

    Row 0 holds the 65-point weights; row 1 the 33-point weights at the
    even nodes and 0 at the odd ones, so one product of the matrix with
    the values at the 65 nodes gives both estimates.
    """
    import numpy as np

    nodes, weights_hi, weights_lo = _rules()
    weights = np.zeros((2, nodes.size))
    weights[0] = weights_hi
    weights[1, ::2] = weights_lo
    return nodes, 1.0 + nodes, weights


def _integrate_adaptive(f, lo: float, hi: float, rel_tol: float,
                        max_panels: int, half: float = 1.0):
    """Adaptive bisection driver; ``f`` maps node arrays to value arrays.

    Returns ``(value, err, panels, converged)``.  The first panel is
    estimated outside the heap: if it meets ``rel_tol``, or the cap is one
    panel, it is returned as it is, since ``fsum`` of one value is that
    value.  Otherwise the heap holds every live panel as ``(-err, seq, a,
    b, est, err)``, so the panel with the largest error is split next and
    ``seq`` breaks ties in creation order.

    A panel's nodes are ``mid + halfwidth * c`` with ``|c| <= 1``.  When
    ``mid - halfwidth`` and ``mid + halfwidth`` round to the panel's ends,
    every node lies between them, since rounding is monotone; only a
    panel whose ends they miss has its nodes clipped to ``[a, b]``.  A
    panel whose left end is 0, as the first panel ``[0, L/2]`` of every
    integral, has ``mid == halfwidth``: its nodes are ``halfwidth * (1 +
    c)``, one product, and lie in ``[0, 2 * halfwidth]``, so they are
    clipped only where ``2 * halfwidth`` is not ``b``.  Both rules'
    estimates come from one product with the stacked weights of
    :func:`_panel_rule`.

    The caller multiplies the result by ``half`` twice; a panel whose
    estimate so multiplied is not finite raises :class:`DomainError`.
    """
    nodes_hi, shifted, weights = _panel_rule()

    def estimate(a, b):
        halfwidth = 0.5 * (b - a)
        if a == 0.0:
            nodes = halfwidth * shifted
            if halfwidth + halfwidth != b:
                # The method np.clip dispatches to, without its Python
                # wrapper.
                nodes.clip(a, b, out=nodes)
        else:
            mid = 0.5 * (a + b)
            nodes = mid + halfwidth * nodes_hi
            if mid - halfwidth != a or mid + halfwidth != b:
                nodes.clip(a, b, out=nodes)
        # ndarray.dot calls the BLAS product that @ does, for less.
        est_hi, est_lo = weights.dot(f(nodes)).tolist()
        est_hi *= halfwidth
        if not math.isfinite(est_hi * half * half):
            # The integrand overflowed at a node.  For r^-exponent that
            # includes the throat x = 0, a node of every panel holding it,
            # so no split converges: stop now, not at max_panels.
            raise DomainError("the integrand leaves the float range: "
                              f"panel [{a!r}, {b!r}] estimates "
                              f"{est_hi * half * half!r}")
        return est_hi, max(abs(est_hi - halfwidth * est_lo),
                           2e-16 * abs(est_hi))

    total_v, total_e = estimate(lo, hi)
    converged = total_e <= rel_tol * abs(total_v)
    if converged or max_panels <= 1:
        return total_v, total_e, 1, converged
    heap = [(-total_e, 0, lo, hi, total_v, total_e)]
    seq = itertools.count(1)
    while True:
        _, _, a, b, v, e = heapq.heappop(heap)
        total_v -= v
        total_e -= e
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            v, e = estimate(aa, bb)
            heapq.heappush(heap, (-e, next(seq), aa, bb, v, e))
            total_v += v
            total_e += e
        capped = len(heap) >= max_panels
        if capped or total_e <= rel_tol * abs(total_v):
            # The running totals drift; the exactly rounded sums decide.
            value = math.fsum(panel[4] for panel in heap)
            err = math.fsum(panel[5] for panel in heap)
            converged = err <= rel_tol * abs(value)
            if converged or capped:
                return value, err, len(heap), converged
            total_v, total_e = value, err


def integrate_inverse_radius_power(spec: TubeSpec, exponent: float,
                                   rel_tol: float = DEFAULT_REL_TOL,
                                   *, max_panels: int = MAX_PANELS) -> QuadratureResult:
    """Integrate ``r(x) ** -exponent`` over the tube axis.

    Every profile is even in x, so [0, L/2] is integrated and the result
    doubled; the conic kink at x = 0 then sits on an endpoint.

    Raises
    ------
    ConvergenceError
        If the panel cap is reached first; the best estimate rides along
        on the exception.
    DomainError
        If ``max_panels`` is below 1, if the profile leaves the float
        range, or at the first panel whose estimate is not finite, because
        ``r ** -exponent`` overflows.  Where ``r_min ** -exponent`` is
        past the float range or below its normal range, the tube with its
        radii divided by ``r_min`` is integrated instead, and a panel whose
        estimate times ``r_min ** -exponent`` overflows raises the same;
        so does a tube whose ``r_min ** (-exponent / 2)`` or ``r_max /
        r_min`` overflows.
    """
    if not exponent > 0.0:
        raise DomainError(f"exponent must be positive, got {exponent}")
    _require_rel_tol(rel_tol)
    if not max_panels >= 1:
        raise DomainError(f"max_panels must be at least 1, got {max_panels!r}")

    # The integrand is largest at the throat, where it is r_min^-exponent.
    half = 1.0
    if geometry._throat_power(spec.r_min, -exponent, 1.0) is not None:
        shape, a, b, k = geometry._kernel_args(spec)
    else:
        # Past the float range, or below its normal range, where the
        # integral need not be: integrate the tube with its radii divided
        # by r_min, and apply r_min^-exponent to the result in two halves.
        half, (shape, a, b, k) = _unit_throat(spec, exponent)

    def integrand(x):
        return _kernels.inverse_radius_power(shape, a, b, k, exponent, x)

    value, err, npanels, ok = _integrate_adaptive(
        integrand, 0.0, 0.5 * spec.length, rel_tol, max_panels, half
    )
    result = QuadratureResult(2.0 * value * half * half,
                              2.0 * err * half * half, npanels)
    if not ok:
        raise ConvergenceError(
            f"quadrature did not reach rel_tol={rel_tol} within "
            f"{max_panels} panels (best estimate {result.value!r})",
            best_estimate=result,
        )
    return result


def _unit_throat(spec: TubeSpec, exponent: float):
    """``r_min ** (-exponent / 2)``, and the kernel arguments of the tube
    with its radii divided by ``r_min``; :class:`DomainError` where either
    leaves the float range, naming the tube as given."""
    try:
        half = spec.r_min ** (-0.5 * exponent)
    except OverflowError:
        half = math.inf
    ratio = spec.r_max / spec.r_min
    if not (half < math.inf and ratio < math.inf):
        raise DomainError(
            "the integrand leaves the float range: r_min ** -exponent "
            f"cannot be scaled out (r_min={spec.r_min!r}, "
            f"r_max={spec.r_max!r}, exponent={exponent!r})")
    try:
        return half, geometry._kernel_args(
            TubeSpec(spec.shape, 1.0, ratio, spec.length))
    except DomainError:
        raise DomainError(
            f"the {spec.shape.value} profile, its radii divided by r_min, "
            f"is outside the float range (r_min={spec.r_min!r}, "
            f"r_max={spec.r_max!r}, length={spec.length!r})") from None


def _scaled(fluid: PowerLawFluid, flow_rate: float,
            base: QuadratureResult) -> QuadratureResult:
    """The pressure drop at a non-zero ``flow_rate`` from ``base``, the
    master integral: value and error times the prefactor."""
    scale = master_prefactor(fluid, flow_rate)
    return QuadratureResult(scale * base.value, scale * base.error_estimate,
                            base.subdivisions)


def pressure_drop_numeric(fluid: PowerLawFluid, spec: TubeSpec,
                          flow_rate: float,
                          rel_tol: float = DEFAULT_REL_TOL,
                          *, max_panels: int = MAX_PANELS) -> QuadratureResult:
    """Pressure drop by direct numerical integration of the master integral.

    A zero flow rate gives ``QuadratureResult(0.0, 0.0, 0)`` without
    integrating.
    """
    require_finite_non_negative("flow_rate", flow_rate)
    if flow_rate == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    return _scaled(fluid, flow_rate, integrate_inverse_radius_power(
        spec, 3.0 * fluid.index + 1.0, rel_tol, max_panels=max_panels))


def pressure_drop_oracle(fluid: PowerLawFluid, spec: TubeSpec,
                         rel_tol: float = DEFAULT_REL_TOL,
                         *, max_panels: int = MAX_PANELS):
    """Quadrature pressure drop of one fluid and tube as a function of the
    flow rate, returning what :func:`pressure_drop_numeric` does.

    The integral does not depend on the flow rate, so it runs once, at the
    first non-zero flow rate, and every call scales it.
    """
    base = None

    def at(flow_rate: float) -> QuadratureResult:
        nonlocal base
        require_finite_non_negative("flow_rate", flow_rate)
        if flow_rate == 0.0:
            return QuadratureResult(0.0, 0.0, 0)
        if base is None:
            base = integrate_inverse_radius_power(
                spec, 3.0 * fluid.index + 1.0, rel_tol, max_panels=max_panels
            )
        return _scaled(fluid, flow_rate, base)

    return at
