"""Profile evaluation on arrays of axial positions.

These are the only profile formulas the quadrature oracle uses.  numpy is
imported on the first call, not with the package: the closed-form solve
path never evaluates a profile on an array.  Everything here is pure
float math with no exception raising; wrappers in :mod:`cdtube.geometry`
own validation and error reporting.
"""

# Integer codes for the five profiles plus the straight-tube degenerate.
STRAIGHT = 0
CONIC = 1
PARABOLIC = 2
HYPERBOLIC = 3
COSH = 4
SINUSOIDAL = 5

# numpy, bound by the first profile evaluation.  A function-level import
# statement would cost about 0.1 us on each quadrature panel.
np = None


def profile_radius(code: int, a: float, b: float, k: float, x):
    """Radius of profile ``code`` at axial positions ``x`` (array)."""
    global np
    if np is None:
        import numpy as np

    if code == CONIC:
        return a + b * np.abs(x)
    elif code == PARABOLIC:
        return a + b * x * x
    elif code == HYPERBOLIC:
        return np.sqrt(a + b * x * x)
    elif code == COSH:
        return a * np.cosh(b * x)
    elif code == SINUSOIDAL:
        # r_min + 2b sin^2(kx/2) equals (r_max + r_min)/2 - b cos(kx) but
        # keeps full relative accuracy at the throat, where the cosine
        # form cancels.
        s = np.sin(0.5 * k * x)
        return a + 2.0 * b * (s * s)
    return a + 0.0 * x  # STRAIGHT


def inverse_radius_power(code: int, a: float, b: float, k: float,
                         exponent: float, x):
    """Integrand of the master pressure integral: ``r(x) ** -exponent``."""
    r = profile_radius(code, a, b, k, x)
    return r ** (-exponent)
