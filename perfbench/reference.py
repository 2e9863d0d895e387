"""Independent reference for the conductance K in ``P = K * Q^n``, and the
checks that compare the program's answers with it.

Nothing here imports cdtube.  K is rebuilt from the profile formulas of
the paper's table (README "Supported profiles") and the master integral

    P = 2 C Q^n (3n+1)^n / (pi^n n^n) * integral r(x)^-(3n+1) dx,

written in the throat-scaled variables ``r = r_min * rho(xi)``,
``x = (L/2) xi``, so that the integral over the unit is
``L * r_min^-(3n+1) * J`` with ``J = integral_0^1 rho(xi)^-(3n+1) dxi``.
``J`` is integrated by ``scipy.integrate.quad`` over pieces that double in
width away from the throat, where the integrand is sharply peaked at
large radius ratio.  The conic and straight tubes have elementary closed
forms for ``J``, used instead of quadrature.
"""

import math

from scipy import integrate

# The acceptance suite's tolerances on K: 1e-8 for the conic, 1e-6 otherwise.
TOL_CONIC = 1e-8
TOL_DEFAULT = 1e-6
# P / Q^n must be the same number on every row of one sweep.
TOL_PROPORTIONAL = 1e-11
# Q -> P -> Q through two CLI processes (P is printed with all its digits).
TOL_ROUND_TRIP = 1e-12
_QUAD_REL = 1e-13


def tolerance(shape):
    return TOL_CONIC if shape == "conic" else TOL_DEFAULT


def _profile(shape, ratio):
    """Scaled radius rho(xi) = r/r_min on xi in [0, 1], and the xi at which
    rho reaches 2 (the width of the throat peak)."""
    if shape == "conic":
        return (lambda t: 1.0 + (ratio - 1.0) * t), 1.0 / (ratio - 1.0)
    if shape == "parabolic":
        return (lambda t: 1.0 + (ratio - 1.0) * t * t), (ratio - 1.0) ** -0.5
    if shape == "hyperbolic":
        c = ratio * ratio - 1.0
        return (lambda t: math.sqrt(1.0 + c * t * t)), math.sqrt(3.0 / c)
    if shape == "cosh":
        beta = math.acosh(ratio)
        return (lambda t: math.cosh(beta * t)), math.acosh(2.0) / beta
    if shape == "sinusoidal":
        mean, amp = 0.5 * (ratio + 1.0), 0.5 * (ratio - 1.0)
        width = (math.acos((ratio - 3.0) / (ratio - 1.0)) / math.pi
                 if ratio > 3.0 else 1.0)
        return (lambda t: mean - amp * math.cos(math.pi * t)), width
    raise ValueError(f"unknown shape {shape!r}")


def scaled_integral(shape, n, ratio):
    """J = integral_0^1 rho(xi)^-(3n+1) dxi for radius ratio r_max/r_min."""
    m = 3.0 * n + 1.0
    if ratio == 1.0:
        return 1.0
    if shape == "conic":
        return (1.0 - ratio ** (-3.0 * n)) / (3.0 * n * (ratio - 1.0))
    rho, width = _profile(shape, ratio)
    edges = [0.0]
    edge = min(width, 1.0) / 16.0
    while edge < 1.0:
        edges.append(edge)
        edge *= 2.0
    edges.append(1.0)
    pieces = [
        integrate.quad(lambda t: rho(t) ** -m, lo, hi, epsabs=0.0,
                       epsrel=_QUAD_REL, limit=200)[0]
        for lo, hi in zip(edges, edges[1:])
    ]
    return math.fsum(pieces)


def prefactor(n, consistency):
    """``2 C (3n+1)^n / (pi^n n^n)``: K of a unit integral."""
    return 2.0 * consistency * (3.0 * n + 1.0) ** n / (math.pi**n * n**n)


def conductance(shape, n, consistency, r_min, r_max, length):
    """Reference K (Pa / (m^3/s)^n) for one corrugation unit."""
    return (prefactor(n, consistency) * length * r_min ** -(3.0 * n + 1.0)
            * scaled_integral(shape, n, r_max / r_min))


class ReferenceCache:
    """Reference K per geometry and fluid, computed once per distinct key."""

    def __init__(self):
        self._k = {}

    def k(self, shape, n, consistency, r_min, r_max, length):
        key = (shape, n, consistency, r_min, r_max, length)
        if key not in self._k:
            self._k[key] = conductance(*key)
        return self._k[key]

    def for_tube(self, tube):
        return self.k(tube.shape, tube.n, tube.consistency, tube.r_min,
                      tube.r_max, tube.length)


def rel_diff(got, want):
    return abs(got - want) / abs(want)


def _positive_finite(x):
    return isinstance(x, float) and math.isfinite(x) and x > 0.0


def check_k(shape, n, p, q, k_ref, periods=1):
    """Reason ``P = periods * K * Q^n`` misses the reference K, or None."""
    if not (_positive_finite(p) and _positive_finite(q)):
        return f"non-finite or non-positive answer P={p!r} Q={q!r}"
    k = p / (periods * q**n)
    err = rel_diff(k, k_ref)
    if not err <= tolerance(shape):
        return f"{shape} n={n}: K={k!r} vs reference {k_ref!r} (rel {err:.2e})"
    return None
