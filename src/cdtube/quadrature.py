"""Adaptive quadrature of the master pressure integral.

This module is the independent ground truth for every analytic result:
it evaluates ``integral of r(x)^-(3n+1) dx`` over the tube using only the
package-wide radius evaluation (the same code path as
:func:`cdtube.geometry.radius_at`), never the per-shape antiderivatives.

The scheme is adaptive bisection with a nested Clenshaw-Curtis pair
(65-point high rule, embedded 33-point low rule) per panel; the panel
error is the difference of the two estimates and the worst panel is
always split next.  Clenshaw-Curtis converges geometrically on these
analytic integrands, so most integrals settle in the first panel, which
is then returned as it is, with no heap.  A panel's nodes are clipped to
its ends only where ``mid - halfwidth`` or ``mid + halfwidth`` does not
round to them; elsewhere rounding, being monotone, keeps every node
inside, and the first panel ``[0, L/2]`` is such a panel.  The split order
is fixed and the returned sums are exactly rounded, so identical inputs
give bit-identical results within one build.  numpy is imported, and the
rule built, by the first integration.

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


def _integrate_adaptive(f, lo: float, hi: float, rel_tol: float,
                        max_panels: int):
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
    panel whose ends they miss has its nodes clipped to ``[a, b]``.
    """
    nodes_hi, weights_hi, weights_lo = _rules()

    def estimate(a, b):
        mid = 0.5 * (a + b)
        halfwidth = 0.5 * (b - a)
        nodes = mid + halfwidth * nodes_hi
        if mid - halfwidth != a or mid + halfwidth != b:
            # The method np.clip dispatches to, without its Python wrapper.
            nodes.clip(a, b, out=nodes)
        values = f(nodes)
        # ndarray.dot calls the BLAS dot product that @ does, for less.
        est_hi = halfwidth * float(weights_hi.dot(values))
        if not math.isfinite(est_hi):
            # The integrand overflowed at a node.  For r^-exponent that
            # includes the throat x = 0, a node of every panel holding it,
            # so no split converges: stop now, not at max_panels.
            raise DomainError("the integrand leaves the float range: "
                              f"panel [{a!r}, {b!r}] estimates {est_hi!r}")
        est_lo = halfwidth * float(weights_lo.dot(values[::2]))
        return est_hi, max(abs(est_hi - est_lo), 2e-16 * abs(est_hi))

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
        ``r ** -exponent`` overflows.
    """
    if not exponent > 0.0:
        raise DomainError(f"exponent must be positive, got {exponent}")
    _require_rel_tol(rel_tol)
    if not max_panels >= 1:
        raise DomainError(f"max_panels must be at least 1, got {max_panels!r}")

    shape, a, b, k = geometry._kernel_args(spec)

    def integrand(x):
        return _kernels.inverse_radius_power(shape, a, b, k, exponent, x)

    value, err, npanels, ok = _integrate_adaptive(
        integrand, 0.0, 0.5 * spec.length, rel_tol, max_panels
    )
    result = QuadratureResult(2.0 * value, 2.0 * err, npanels)
    if not ok:
        raise ConvergenceError(
            f"quadrature did not reach rel_tol={rel_tol} within "
            f"{max_panels} panels (best estimate {result.value!r})",
            best_estimate=result,
        )
    return result


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
