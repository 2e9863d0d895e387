"""The bodies of the paper's continued kernels,
:func:`cdtube.special.gauss_2f1_continued` on the cut ``z > 1`` and
:func:`cdtube.special.appell_f1`.

They compute no conductance, so the first call of either public function
imports this module, not the package.  The names that a caller may
replace in :mod:`cdtube.special`, ``gauss_2f1``, ``gauss_2f1_continued``,
``_series_checked`` and ``MAX_TERMS``, are read through that module, so a
replacement sees the calls made from here too.
"""

import math

from . import special
from .errors import ConvergenceError, DegenerateParameterError, DomainError
from .special import (
    BRANCH_ABOVE,
    BRANCH_BELOW,
    STAGNATION_RTOL,
    STAGNATION_RUN,
    _finite_or_raise,
    _is_exact_nonpos_int,
    _is_int,
    _is_nonpos_int,
    _rgamma,
    _terminates,
)


def _near_pole(x: float) -> bool:
    """Within INTEGER_WINDOW of a gamma pole but not on it."""
    return _is_nonpos_int(x) and not _is_exact_nonpos_int(x)


def _branch_sign(branch: str) -> float:
    """Sign of the imaginary part of ``log(1 - z)`` on the chosen side.

    Approaching ``z > 1`` from above puts ``1 - z`` just below the negative
    real axis, so ``arg(1 - z) -> -pi``; from below, ``+pi``.
    """
    if branch == BRANCH_ABOVE:
        return -1.0
    if branch == BRANCH_BELOW:
        return 1.0
    raise DomainError(f"branch must be 'above' or 'below', got {branch!r}")


def _continued_arg_1m1z(a, b, c, z, sign):
    """Connection in powers of ``1 - 1/z``; needs ``c - a - b`` non-integer."""
    s = c - a - b
    w = 1.0 - 1.0 / z
    coef1 = math.gamma(c) * math.gamma(s) * _rgamma(c - a) * _rgamma(c - b)
    coef2 = math.gamma(c) * math.gamma(-s) * _rgamma(a) * _rgamma(b)
    v1, _ = special._series_checked(a, a - c + 1.0, 1.0 - s, w,
                                    "continuation (1-1/z)")
    v2, _ = special._series_checked(c - a, 1.0 - a, 1.0 + s, w,
                                    "continuation (1-1/z)")
    # (1 - z)^s = (z - 1)^s * exp(i*pi*s*sign)
    mag = (z - 1.0) ** s * z ** (a - c) * coef2 * v2
    re = coef1 * z ** (-a) * v1 + mag * math.cos(math.pi * s)
    im = mag * math.sin(math.pi * s) * sign
    return re, im


def _continued_arg_1z(a, b, c, z, sign):
    """Connection in powers of ``1/z``; needs ``b - a`` non-integer."""
    u = 1.0 / z
    coef1 = math.gamma(c) * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
    coef2 = math.gamma(c) * math.gamma(a - b) * _rgamma(a) * _rgamma(c - b)
    v1, _ = special._series_checked(a, 1.0 - c + a, 1.0 - b + a, u,
                                    "continuation (1/z)")
    v2, _ = special._series_checked(b, 1.0 - c + b, 1.0 - a + b, u,
                                    "continuation (1/z)")
    # (-z)^(-p) = z^(-p) * exp(-i*pi*p*sign)
    m1 = coef1 * z ** (-a) * v1
    m2 = coef2 * z ** (-b) * v2
    re = m1 * math.cos(math.pi * a) + m2 * math.cos(math.pi * b)
    im = -sign * (m1 * math.sin(math.pi * a) + m2 * math.sin(math.pi * b))
    return re, im


def gauss_2f1_continued(a: float, b: float, c: float, z: float,
                        branch: str) -> complex:
    """The body of :func:`cdtube.special.gauss_2f1_continued`."""
    sign = _branch_sign(branch)
    if z <= 1.0:
        raise DomainError(f"gauss_2f1_continued requires z > 1, got {z}")
    if _terminates(a, b, c):
        value, _ = special._series_checked(a, b, c, z, "gauss_2f1_continued")
        return complex(value)
    if _is_nonpos_int(c):
        raise DegenerateParameterError(
            f"gauss_2f1_continued is undefined for non-positive integer c={c}"
        )

    if any(map(_near_pole, (a, b, c - a, c - b))):
        # Both connections weight a half by 1/Gamma of these parameters.
        # Near such a pole the function can come close to a zero while the
        # halves stay of order one: at (1.6 + 1e-12, 0.4, 0.6, 3) their
        # sum keeps four digits.
        raise DegenerateParameterError(
            "continuation parameters within INTEGER_WINDOW of a gamma pole "
            f"(a={a}, b={b}, c-a={c - a}, c-b={c - b})"
        )

    routes = []
    if not _is_int(c - a - b):
        routes.append(_continued_arg_1m1z)
    if not _is_int(b - a):
        routes.append(_continued_arg_1z)
        if z > 2.0:
            # 1/z is the smaller expansion variable past z = 2.
            routes.reverse()
    if not routes:
        raise DegenerateParameterError(
            "no continuation route: both c-a-b and b-a are integers "
            f"(a={a}, b={b}, c={c})"
        )

    last_error = None
    for route in routes:
        try:
            re, im = route(a, b, c, z, sign)
        except ConvergenceError as exc:
            last_error = exc
            continue
        return complex(
            _finite_or_raise(re, "gauss_2f1_continued"),
            _finite_or_raise(im, "gauss_2f1_continued"),
        )
    raise last_error


def _appell_series(a, b1, b2, c, x, y):
    """Single-index expansion of the double series.

    Sums over the ``x`` index with a fresh Gauss series in ``y`` per term;
    this keeps the implementation distinct from the naive double loop used
    as the independent oracle in the tests.
    """
    coeff = 1.0
    total = 0.0
    consec = 0
    for m in range(special.MAX_TERMS):
        inner, _ = special._series_checked(a + m, b2, c + m, y,
                                           "appell_f1 (inner)")
        term = coeff * inner
        total += term
        if not math.isfinite(total):
            # appell_f1 reports the non-finite value.
            return total
        if abs(term) <= STAGNATION_RTOL * max(abs(total), 1e-300):
            consec += 1
            if consec >= STAGNATION_RUN:
                return total
        else:
            consec = 0
        if a + m == 0.0:
            # (a)_m truncates the outer sum, no later than any pole of (c)_m.
            return total
        coeff *= (a + m) * (b1 + m) / ((c + m) * (m + 1.0)) * x
    raise ConvergenceError(
        f"appell_f1 double series did not converge within {special.MAX_TERMS} "
        "outer terms",
        best_estimate=total,
    )


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float,
              branch: str) -> complex:
    """The body of :func:`cdtube.special.appell_f1`."""
    # (c)_{m+n} vanishing is fatal unless (a)_{m+n} truncates the double
    # series first.
    if _is_nonpos_int(c) and not (_is_exact_nonpos_int(a) and round(c) <= round(a)):
        raise DegenerateParameterError(
            f"appell_f1 is undefined for non-positive integer c={c}"
        )

    if b2 == 0.0 and abs(x) < 1.0:
        return complex(special.gauss_2f1(a, b1, c, x))
    if b1 == 0.0 and abs(y) < 1.0:
        return complex(special.gauss_2f1(a, b2, c, y))

    if x == 1.0:
        s = c - a - b1
        if s <= 0.0:
            raise DomainError(
                f"appell_f1 boundary x=1 requires c - a - b1 > 0, got {s}"
            )
        if _is_nonpos_int(c) or _is_nonpos_int(c - a) or _is_nonpos_int(c - b1):
            raise DegenerateParameterError(
                "appell_f1 boundary reduction hits a gamma pole "
                f"(c-a={c - a}, c-b1={c - b1})"
            )
        coef = (math.gamma(c) * math.gamma(s)
                * _rgamma(c - a) * _rgamma(c - b1))
        if y < 1.0:
            result = complex(coef * special.gauss_2f1(a, b2, c - b1, y))
        elif y == 1.0:
            raise DomainError("appell_f1 corner x = y = 1 is not supported")
        else:
            inner = special.gauss_2f1_continued(a, b2, c - b1, y, branch)
            # Not ``coef * inner``: that subtracts ``0.0 * inner.imag``
            # from the real part, which can flip the sign of a zero.
            result = complex(coef * inner.real, coef * inner.imag)
        _finite_or_raise(result.real, "appell_f1")
        _finite_or_raise(result.imag, "appell_f1")
        return result

    if abs(x) < 1.0 and abs(y) < 1.0:
        value = _appell_series(a, b1, b2, c, x, y)
        return complex(_finite_or_raise(value, "appell_f1"))

    raise DomainError(
        f"appell_f1 arguments (x={x}, y={y}) outside the supported domain: "
        "|x| < 1 and |y| < 1, or x = 1 exactly"
    )
