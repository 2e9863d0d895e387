"""The bodies of the kernels that compute no conductance:
:func:`cdtube.special.gauss_2f1`'s route map for real ``z < 1``,
:func:`cdtube.special.gauss_2f1_continued` on the cut ``z > 1`` and
:func:`cdtube.special.appell_f1`, with the integer-window and gamma-pole
policy they share.

No K calls them, so the first call of any of the three public functions
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
    _CANCELLATION_LIMIT,
    EvaluationReport,
    _finite_or_raise,
)

# Parameters closer than this to an integer are treated as that integer:
# beyond it the connection coefficients lose fewer than ~7 digits to
# cancellation, inside it gauss_2f1 takes a route without them (Pfaff or
# the defining series) and the continued kernels raise
# DegenerateParameterError.
INTEGER_WINDOW = 1e-9

# Direct-series cutoff; above it the 1-z connection converges much faster.
_NEAR_ONE = 0.9

# Route names recorded in EvaluationReport.route.
ROUTE_SERIES = "series"
ROUTE_PFAFF = "pfaff"
ROUTE_INV_ONE_MINUS_Z = "inv_one_minus_z"
ROUTE_ONE_MINUS_Z = "one_minus_z"


def _is_int(x: float) -> bool:
    return abs(x - round(x)) <= INTEGER_WINDOW


def _is_nonpos_int(x: float) -> bool:
    return x <= 0.5 and _is_int(x)


def _rgamma(x: float) -> float:
    """1/Gamma(x); exactly zero at the poles.

    Within INTEGER_WINDOW of a pole ``math.gamma`` keeps full relative
    accuracy, so the small term this weights is kept, not dropped.
    """
    if _is_exact_nonpos_int(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _is_exact_nonpos_int(x: float) -> bool:
    return x <= 0.0 and x == round(x)


def _terminates(a: float, b: float, c: float) -> bool:
    """True when the series is a polynomial despite any pole of ``c``.

    An exactly non-positive-integer ``a`` or ``b`` truncates the series at
    ``k = -a`` (or ``-b``); the truncation must happen before ``(c)_k``
    vanishes.  Exactness matters: a parameter merely close to an integer
    leaves a tiny tail that still diverges for ``|z| > 1``, so the window
    used for pole detection must not be applied here.
    """
    if not (_is_exact_nonpos_int(a) or _is_exact_nonpos_int(b)):
        return False
    k_max = -max(round(p) for p in (a, b) if _is_exact_nonpos_int(p))
    if _is_nonpos_int(c) and -round(c) < k_max:
        return False
    return True


def _near_pole(x: float) -> bool:
    """Within INTEGER_WINDOW of a gamma pole but not on it."""
    return _is_nonpos_int(x) and not _is_exact_nonpos_int(x)


def _negative_argument(a, b, c, z):
    """Route map for ``z < 0``; returns ``(value, terms, route)``."""
    spent = 0
    if z < -1.0 and not _is_int(b - a):
        # 1/(1-z) connection (DLMF 15.8.3); the variable lies in (0, 1/2).
        w = 1.0 / (1.0 - z)
        try:
            v1, t1 = _inv_one_minus_z_term(a, b, c, w)
            v2, t2 = _inv_one_minus_z_term(b, a, c, w)
        except (OverflowError, ConvergenceError):
            # A gamma factor or an inner series past the float range (as
            # for c above ~171); the Pfaff map has no gamma factors.
            v1 = v2 = math.nan
            t1 = t2 = 0
        value = v1 + v2
        # Near-integer b - a gives two large halves of opposite sign unless
        # the poles cancel inside each half (as for c = a + 1); past this
        # cancellation the Pfaff series is the accurate route.
        if (math.isfinite(value)
                and abs(v1) + abs(v2) <= _CANCELLATION_LIMIT * abs(value)):
            return value, t1 + t2, ROUTE_INV_ONE_MINUS_Z
        spent = t1 + t2
    # Pfaff on the larger upper parameter, (1-z)^-lo F(lo, c-hi; c; w):
    # w = z/(z-1) lies in (0, 1/2] for z >= -1 and in (1/2, 1) below it.
    # With c = a + 1, an integer b - a > 0 makes c - b a non-positive
    # integer and the Pfaff series a polynomial.
    w = z / (z - 1.0)
    lo, hi = (a, b) if b > a else (b, a)
    inner, terms = special._series_checked(lo, c - hi, c, w,
                                           "gauss_2f1 (Pfaff)")
    return (1.0 - z) ** (-lo) * inner, spent + terms, ROUTE_PFAFF


def _inv_one_minus_z_term(a, b, c, w):
    """The ``(1-z)^-a`` half of the 1/(1-z) connection, ``w = 1/(1-z)``.

    The other half is the same expression with ``a`` and ``b`` swapped,
    which keeps the sum symmetric in the upper parameters bit for bit.
    """
    coef = math.gamma(c) * math.gamma(b - a) * _rgamma(b) * _rgamma(c - a)
    inner, terms = special._series_checked(a, c - b, a - b + 1.0, w,
                                           "gauss_2f1 (1/(1-z))")
    return coef * w**a * inner, terms


def gauss_2f1(a: float, b: float, c: float, z: float, full_output: bool):
    """The body of :func:`cdtube.special.gauss_2f1`."""
    if z >= 1.0:
        raise DomainError(f"gauss_2f1 requires z < 1, got {z}")
    terminating = _terminates(a, b, c)
    if _is_nonpos_int(c) and not terminating:
        raise DegenerateParameterError(
            f"gauss_2f1 is undefined for non-positive integer c={c}"
        )

    route = ROUTE_SERIES
    if z == 0.0:
        value, terms = 1.0, 0
    elif terminating or 0.0 < z <= _NEAR_ONE:
        value, terms = special._series_checked(a, b, c, z, "gauss_2f1")
    elif z < 0.0:
        value, terms, route = _negative_argument(a, b, c, z)
    else:
        # 0.9 < z < 1
        s = c - a - b
        if _is_int(s):
            # Logarithmic case: no linear connection, push the series.
            value, terms = special._series_checked(a, b, c, z,
                                                   "gauss_2f1 (near 1)")
        else:
            w = 1.0 - z
            coef1 = math.gamma(c) * math.gamma(s) * _rgamma(c - a) * _rgamma(c - b)
            coef2 = math.gamma(c) * math.gamma(-s) * _rgamma(a) * _rgamma(b)
            v1, t1 = special._series_checked(a, b, 1.0 - s, w,
                                             "gauss_2f1 (1-z)")
            v2, t2 = special._series_checked(c - a, c - b, 1.0 + s, w,
                                             "gauss_2f1 (1-z)")
            value = coef1 * v1 + coef2 * w**s * v2
            terms = t1 + t2
            route = ROUTE_ONE_MINUS_Z
    value = _finite_or_raise(value, "gauss_2f1")
    if full_output:
        return value, EvaluationReport(terms, route)
    return value


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
