"""Profile evaluation on arrays of axial positions.

These are the only profile formulas the quadrature oracle uses.  numpy is
imported on the first call, not with the package: the closed-form solve
path never evaluates a profile on an array.  The arguments come from
:func:`cdtube.geometry._kernel_args`, which raises :class:`DomainError`
for a profile whose arguments are not finite, so the kernels only
compute.
"""

# numpy, bound by the first profile evaluation.  A function-level import
# statement would cost about 0.1 us on each quadrature panel.
np = None


def profile_radius(shape, a: float, b: float, k: float, x):
    """Radius at axial positions ``x`` (array, none negative) of the
    profile whose :class:`~cdtube.geometry.TubeShape` value is ``shape``.

    Every profile is even, so the callers pass ``|x|``: the oracle its
    nodes in ``[0, L/2]``, and :func:`cdtube.geometry.radius_profile` the
    absolute value of its positions.  Where ``r_min ** -exponent`` leaves
    the normal float range, the oracle passes the arguments of the tube
    with its radii divided by ``r_min``.
    """
    global np
    if np is None:
        import numpy as np

    if shape == "conic":
        return a + b * x
    elif shape == "parabolic":
        return a + b * x * x
    elif shape == "hyperbolic":
        return np.sqrt(a + b * x * x)
    elif shape == "cosh":
        return a * np.cosh(b * x)
    # Sinusoidal: r_min + 2b sin^2(kx/2) equals (r_max + r_min)/2 - b cos(kx)
    # but keeps full relative accuracy at the throat, where the cosine
    # form cancels.
    s = np.sin(0.5 * k * x)
    return a + 2.0 * b * (s * s)


def inverse_radius_power(shape, a: float, b: float, k: float,
                         exponent: float, x):
    """Integrand of the master pressure integral: ``r(x) ** -exponent``."""
    r = profile_radius(shape, a, b, k, x)
    return r ** (-exponent)
