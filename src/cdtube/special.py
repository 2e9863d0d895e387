"""Gauss and Appell hypergeometric kernels with real-axis continuation.

:func:`gauss_series` is the series kernel that the sinusoid's
closed-form K in :mod:`cdtube.flow` sums.  The module also covers
three evaluation regimes that compute no conductance:

* ``gauss_2f1`` for real argument ``z < 1``, through a route map (DLMF
  15.8): the direct series on ``(0, 0.9]``, the ``1 - z`` connection
  above it (15.8.4), and for ``z < 0`` the Pfaff map on ``[-1, 0)``
  (15.8.1) and the ``1/(1-z)`` connection below -1 (15.8.3), so that
  negative arguments sum a polynomial or a series in a variable of
  magnitude at most 1/2;
* ``gauss_2f1_continued`` for ``z > 1``, where the function is complex and
  the two limits onto the branch cut are conjugates of each other;
* ``appell_f1`` for the two-variable series, including the classical
  boundary reduction at ``x = 1`` to a gamma ratio times a single Gauss
  function of ``y``.

Their bodies, with the integer-window and gamma-pole policy they share,
live in :mod:`cdtube._continued`, which the first call of any of the
three imports, so a closed-form solve does not compile them.  This module
keeps no ``__getattr__`` (PEP 562): in CPython one keeps every attribute
load on the module from being specialized, and :mod:`cdtube.flow` reads
``special._series_checked`` on every sinusoid K.

Degenerate parameter combinations (poles of the gamma factors, vanishing
series denominators) raise :class:`DegenerateParameterError` rather than
return a value that has lost its digits.
"""

import math

from ._frozen import value_type
from .errors import ConvergenceError, DomainError

__all__ = [
    "EvaluationReport",
    "appell_f1",
    "gauss_2f1",
    "gauss_2f1_continued",
]

# Largest (|first half| + |second half|) / |sum| accepted from the
# sinusoid's ring expansion in cdtube.flow and from gauss_2f1's 1/(1-z)
# connection: about one digit lost to cancellation.
_CANCELLATION_LIMIT = 16.0

MAX_TERMS = 10000
STAGNATION_RTOL = 1e-16
STAGNATION_RUN = 3

BRANCH_ABOVE = "above"
BRANCH_BELOW = "below"

# The note of a summed series: EvaluationReport.summary() and the
# sinusoid's diagnostics in cdtube.flow, which sums its series without a
# report.
SERIES_NOTE = "converged after %s series terms"


@value_type
class EvaluationReport:
    """How :func:`gauss_2f1` got the value it returned.

    ``terms_used`` counts the series terms summed.  ``route`` names the
    transformation summed: ``series``, ``pfaff``, ``inv_one_minus_z`` or
    ``one_minus_z``.
    """

    terms_used: int
    route: str

    def summary(self) -> str:
        return SERIES_NOTE % self.terms_used


def gauss_series(a: float, b: float, c: float, z: float):
    """Sum the Gauss hypergeometric series at ``z``.

    Terms follow the ratio recurrence.  The sum ends in one of four ways:

    * it stagnates: the absolute term stays below ``STAGNATION_RTOL``
      times the partial sum for ``STAGNATION_RUN`` consecutive terms.
      Terms count towards this only once ``c + k`` is positive: a negative
      ``c`` near an integer divides a later term by ``c + k`` near zero,
      and a numerator parameter near an integer can make the terms before
      it tiny.  An infinite partial sum stagnates within
      ``STAGNATION_RUN`` terms, as every term is below its infinite floor;
    * a partial sum is NaN, which every later one would be too;
    * it is complete: a polynomial that truncates no later than an exactly
      non-positive integer ``c`` meets ``c + k = 0`` past its last term,
      or at a vanishing numerator (DLMF 15.2.5 for ``a = c``);
    * it reaches ``MAX_TERMS`` terms, and has not converged.

    Returns ``(value, terms_used, converged)``; ``converged`` is False only
    at ``MAX_TERMS``.  A non-finite value is returned as it is, for the
    caller to report.
    """
    # A float counter: ``a + k`` and ``k > -c`` give what an int counter
    # gives (k stays far below 2**53), without an int-to-float conversion.
    rtol, run, cap = STAGNATION_RTOL, STAGNATION_RUN, float(MAX_TERMS)
    neg_c = -c
    term = total = 1.0
    consec = 0
    k = 0.0
    try:
        while k < cap:
            k1 = k + 1.0
            term *= (a + k) * (b + k) / ((c + k) * k1) * z
            total += term
            # rtol * |total|: rounding is symmetric in sign
            floor = rtol * total
            if not floor >= 0.0:
                if floor != floor:
                    # A NaN partial sum stays NaN: the sum ends here.
                    return total, int(k1), True
                floor = -floor
            if floor < 1e-300:
                floor = 1e-300
            if -floor <= term <= floor and k > neg_c:
                consec += 1
                if consec >= run:
                    return total, int(k1), True
            else:
                consec = 0
            k = k1
    except ZeroDivisionError:
        # c + k = 0.  Outside the loop, a try costs nothing per term.
        if term != 0.0 and a + k != 0.0 and b + k != 0.0:
            raise
        return total, int(k), True
    return total, MAX_TERMS, False


def _finite_or_raise(value: float, context: str) -> float:
    if not math.isfinite(value):
        raise ConvergenceError(f"{context} produced a non-finite value")
    return value


def _series_checked(a, b, c, z, context):
    value, terms, ok = gauss_series(a, b, c, z)
    if not ok:
        raise ConvergenceError(
            f"{context}: series for (a={a}, b={b}, c={c}) at z={z} did not "
            f"converge within {MAX_TERMS} terms",
            best_estimate=value,
        )
    return _finite_or_raise(value, context), terms


def _outside_float_range(kernel, **arguments):
    """The :class:`DomainError` of a kernel whose gamma factor or power
    left the float range, as ``OverflowError`` or, for ``1/Gamma`` of an
    underflowed gamma, ``ZeroDivisionError``."""
    listed = ", ".join(f"{name}={value!r}" for name, value in arguments.items())
    return DomainError(f"{kernel}: a gamma factor or a power is outside "
                       f"the float range ({listed})")


def gauss_2f1(a: float, b: float, c: float, z: float, full_output: bool = False):
    """Gauss hypergeometric function for real argument ``z < 1``.

    For ``z < 0`` each route sums a polynomial or a series in a variable
    of magnitude at most 1/2, apart from the Pfaff exceptions named below:

    * ``series``: the defining series on ``0 < z <= 0.9``, or anywhere
      when ``a`` or ``b`` is an exact non-positive integer;
    * ``inv_one_minus_z``: for ``z < -1`` when ``b - a`` is not an
      integer, the connection in powers of ``1/(1-z)`` (DLMF 15.8.3);
    * ``pfaff``: for ``-1 <= z < 0`` the Pfaff map to ``z/(z-1)`` on the
      larger upper parameter (DLMF 15.8.1).  It also serves ``z < -1``
      when ``b - a`` is within ``INTEGER_WINDOW`` of an integer, or when
      the two halves of the ``1/(1-z)`` connection cancel to more than
      ``_CANCELLATION_LIMIT`` times their sum (near-integer ``b - a``
      with ``c`` not ``a + 1`` or ``b + 1``) or overflow.  There the variable
      exceeds 1/2 and the series may reach the term cap;
    * ``one_minus_z``: for ``0.9 < z < 1`` when ``c - a - b`` is not an
      integer, the connection in powers of ``1 - z`` (DLMF 15.8.4);
      otherwise the defining series.

    With ``full_output`` the :class:`EvaluationReport` names the route.

    Raises
    ------
    DomainError
        If ``z >= 1`` (use :func:`gauss_2f1_continued` past the cut).
    DegenerateParameterError
        If ``c`` is a non-positive integer and the series does not
        terminate first.
    ConvergenceError
        If no route converges within the term cap.
    DomainError
        If a gamma factor or a power is outside the float range, as it
        can be with a parameter near 150 or past it.
    """
    from ._continued import gauss_2f1

    try:
        return gauss_2f1(a, b, c, z, full_output)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _outside_float_range("gauss_2f1", a=a, b=b, c=c, z=z) from exc


def gauss_2f1_continued(a: float, b: float, c: float, z: float,
                        branch: str = BRANCH_ABOVE) -> complex:
    """Gauss hypergeometric function continued onto the cut ``z > 1``.

    ``branch`` selects the limit ``z + i0`` ("above") or ``z - i0``
    ("below"); the two results are complex conjugates.  The continuation
    uses the linear connection in ``1 - 1/z`` when ``c - a - b`` is not an
    integer and the ``1/z`` connection when ``b - a`` is not; if both
    differences are integers the parameters are degenerate here and the
    caller must integrate numerically.  So they are when ``a``, ``b``,
    ``c - a`` or ``c - b`` lies within ``INTEGER_WINDOW`` of a
    non-positive integer without being one, since both connections then
    lose digits.  A gamma factor or a power outside the float range
    raises :class:`DomainError`.
    """
    from ._continued import gauss_2f1_continued

    try:
        return gauss_2f1_continued(a, b, c, z, branch)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _outside_float_range("gauss_2f1_continued", a=a, b=b, c=c, z=z,
                                   branch=branch) from exc


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float,
              branch: str = BRANCH_ABOVE) -> complex:
    """Appell hypergeometric function of two real arguments.

    Supported domains:

    * ``|x| < 1`` and ``|y| < 1``: the convergent double series;
    * ``x = 1`` with ``c - a - b1 > 0``: the classical boundary reduction
      to ``Gamma(c)Gamma(c-a-b1) / (Gamma(c-a)Gamma(c-b1)) *
      gauss_2f1(a, b2; c-b1; y)``, with ``y > 1`` handled by continuation
      on the selected ``branch``.

    The value is returned as a ``complex``; inside the polydisc its
    imaginary part is zero.  A gamma factor or a power outside the float
    range raises :class:`DomainError`, which names ``appell_f1`` also when
    the 2F1 of a reduction is the one that left the range.
    """
    from ._continued import appell_f1

    try:
        return appell_f1(a, b1, b2, c, x, y, branch)
    except (OverflowError, ZeroDivisionError, DomainError) as exc:
        # A reduction's gauss_2f1 or gauss_2f1_continued names itself.
        cause = exc.__cause__ if isinstance(exc, DomainError) else exc
        if not isinstance(cause, (OverflowError, ZeroDivisionError)):
            raise
        raise _outside_float_range("appell_f1", a=a, b1=b1, b2=b2, c=c, x=x,
                                   y=y, branch=branch) from cause
