"""Adaptive quadrature of the master pressure integral.

This module is the independent ground truth for every analytic result:
it evaluates ``integral of r(x)^-(3n+1) dx`` over the tube using only the
package-wide radius evaluation (the same code path as
:func:`cdtube.geometry.radius_at`), never the per-shape antiderivatives.

The scheme is adaptive bisection with a nested Clenshaw-Curtis pair
(17-point high rule, embedded 9-point low rule) per panel; the panel
error is the difference of the two estimates and the worst panel is
always split next.  Summation order is fixed, so identical inputs give
bit-identical results within one build.  numpy is imported, and the rule
built, by the first integration.
"""

import functools
import heapq
import math
from dataclasses import dataclass

from . import _kernels, geometry
from .errors import ConvergenceError, DomainError, require_finite_non_negative
from .fluid import PowerLawFluid
from .geometry import TubeSpec

__all__ = [
    "QuadratureResult",
    "integrate_inverse_radius_power",
    "master_prefactor",
    "pressure_drop_numeric",
]

MAX_PANELS = 10000
REL_TOL_RANGE = (1e-14, 1e-2)
DEFAULT_REL_TOL = 1e-10
# Interactive fallback solves trade two digits for speed.
FALLBACK_REL_TOL = 1e-8


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
    """17-point nodes with the 17- and 9-point weights.

    The 9-point nodes are the even-index subset of the 17-point nodes, so
    one batch of function values feeds both rules.
    """
    nodes_hi, weights_hi = _chebyshev_rule(17)
    _, weights_lo = _chebyshev_rule(9)
    return nodes_hi, weights_hi, weights_lo


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration."""

    value: float
    error_estimate: float
    subdivisions: int
    converged: bool


def _integrate_adaptive(f, lo: float, hi: float, rel_tol: float,
                        max_panels: int, seed_split: float | None):
    """Adaptive bisection driver; ``f`` maps node arrays to value arrays."""
    nodes_hi, weights_hi, weights_lo = _rules()
    heap = []
    panels = {}
    seq = 0

    def add_panel(a, b):
        nonlocal seq
        mid = 0.5 * (a + b)
        halfwidth = 0.5 * (b - a)
        nodes = mid + halfwidth * nodes_hi
        # The method np.clip dispatches to, without its Python wrapper.
        nodes.clip(a, b, out=nodes)
        values = f(nodes)
        est_hi = halfwidth * float(weights_hi @ values)
        est_lo = halfwidth * float(weights_lo @ values[::2])
        err = max(abs(est_hi - est_lo), 2e-16 * abs(est_hi))
        panels[seq] = (a, b, est_hi, err)
        heapq.heappush(heap, (-err, seq))
        seq += 1
        return est_hi, err

    seeds = [(lo, hi)] if seed_split is None else [(lo, seed_split), (seed_split, hi)]
    total_v = 0.0
    total_e = 0.0
    for a, b in seeds:
        v, e = add_panel(a, b)
        total_v += v
        total_e += e

    while True:
        if total_e <= rel_tol * abs(total_v):
            ordered = sorted(panels.values())
            value = math.fsum(p[2] for p in ordered)
            err = math.fsum(p[3] for p in ordered)
            if err <= rel_tol * abs(value):
                return value, err, len(panels), True
            total_v, total_e = value, err
            continue
        if len(panels) >= max_panels:
            break
        while True:
            _, key = heapq.heappop(heap)
            if key in panels:
                break
        a, b, v, e = panels.pop(key)
        total_v -= v
        total_e -= e
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            v, e = add_panel(aa, bb)
            total_v += v
            total_e += e

    ordered = sorted(panels.values())
    value = math.fsum(p[2] for p in ordered)
    err = math.fsum(p[3] for p in ordered)
    return value, err, len(panels), err <= rel_tol * abs(value)


def integrate_inverse_radius_power(spec: TubeSpec, exponent: float,
                                   rel_tol: float = DEFAULT_REL_TOL,
                                   *, full_interval: bool = False,
                                   max_panels: int = MAX_PANELS) -> QuadratureResult:
    """Integrate ``r(x) ** -exponent`` over the tube axis.

    By default the even symmetry of every profile is exploited by
    integrating [0, L/2] and doubling; ``full_interval=True`` integrates
    [-L/2, L/2] directly (with an initial split at the conic kink x = 0)
    and exists to let tests verify the two routes agree.

    Raises
    ------
    ConvergenceError
        If the panel cap is reached first; the best estimate rides along
        on the exception.
    """
    if not exponent > 0.0:
        raise DomainError(f"exponent must be positive, got {exponent}")
    lo_tol, hi_tol = REL_TOL_RANGE
    if not lo_tol <= rel_tol <= hi_tol:
        raise DomainError(
            f"rel_tol must be within [{lo_tol}, {hi_tol}], got {rel_tol}"
        )

    code, a, b, k = geometry._kernel_args(spec)

    def integrand(x):
        return _kernels.inverse_radius_power(code, a, b, k, exponent, x)

    half = 0.5 * spec.length
    if full_interval:
        value, err, npanels, ok = _integrate_adaptive(
            integrand, -half, half, rel_tol, max_panels, seed_split=0.0
        )
    else:
        value, err, npanels, ok = _integrate_adaptive(
            integrand, 0.0, half, rel_tol, max_panels, seed_split=None
        )
        value *= 2.0
        err *= 2.0
    result = QuadratureResult(value, err, npanels, ok)
    if not ok:
        raise ConvergenceError(
            f"quadrature did not reach rel_tol={rel_tol} within "
            f"{max_panels} panels (best estimate {value!r})",
            best_estimate=result,
        )
    return result


def master_prefactor(fluid: PowerLawFluid, flow_rate: float) -> float:
    """Prefactor ``2 C Q^n (3n+1)^n / (pi^n n^n)`` of the master integral."""
    n = fluid.index
    return (2.0 * fluid.consistency * flow_rate**n * (3.0 * n + 1.0) ** n
            / (math.pi**n * n**n))


def _scaled(fluid: PowerLawFluid, flow_rate: float,
            base: QuadratureResult) -> QuadratureResult:
    """Pressure drop at ``flow_rate`` from the master integral ``base``."""
    scale = master_prefactor(fluid, flow_rate)
    return QuadratureResult(
        scale * base.value,
        scale * base.error_estimate,
        base.subdivisions,
        base.converged,
    )


def pressure_drop_numeric(fluid: PowerLawFluid, spec: TubeSpec,
                          flow_rate: float,
                          rel_tol: float = DEFAULT_REL_TOL,
                          *, max_panels: int = MAX_PANELS) -> QuadratureResult:
    """Pressure drop by direct numerical integration of the master integral."""
    require_finite_non_negative("flow_rate", flow_rate)
    if flow_rate == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    exponent = 3.0 * fluid.index + 1.0
    base = integrate_inverse_radius_power(
        spec, exponent, rel_tol, max_panels=max_panels
    )
    return _scaled(fluid, flow_rate, base)


def pressure_drop_oracle(fluid: PowerLawFluid, spec: TubeSpec,
                         rel_tol: float = DEFAULT_REL_TOL,
                         *, max_panels: int = MAX_PANELS):
    """:func:`pressure_drop_numeric` of one fluid and tube as a function of
    the flow rate.

    The integral does not depend on the flow rate, so it runs once, at the
    first non-zero flow rate, and every call scales it.
    """
    base = None

    def at(flow_rate: float) -> QuadratureResult:
        nonlocal base
        require_finite_non_negative("flow_rate", flow_rate)
        if flow_rate == 0.0:
            return QuadratureResult(0.0, 0.0, 0, True)
        if base is None:
            base = integrate_inverse_radius_power(
                spec, 3.0 * fluid.index + 1.0, rel_tol, max_panels=max_panels
            )
        return _scaled(fluid, flow_rate, base)

    return at
