import functools
import itertools
import math
import random
import sys

import mpmath
import pytest
from hypothesis import assume, given, strategies as st

from cdtube import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    PowerLawFluid,
    TubeShape,
    TubeSpec,
    appell_f1,
    conductance_coefficient,
    gauss_2f1,
    gauss_2f1_continued,
    master_prefactor,
    pressure_drop,
)
from cdtube import _continued, flow, special
from cdtube.errors import CdtubeError
from cdtube.special import (
    MAX_TERMS,
    STAGNATION_RTOL,
    STAGNATION_RUN,
    gauss_series,
)

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def naive_appell_double_sum(a, b1, b2, c, x, y, max_index=250):
    """Brute-force double series, summed to machine-precision stagnation.

    Deliberately structured as a plain double loop over (m, n) so that it
    shares nothing with the implementation's single-index expansion.
    """
    total = 0.0
    outer = 1.0  # (a)_m (b1)_m / ((c)_m m!) x^m
    for m in range(max_index):
        inner = outer  # full coefficient of x^m y^n, starting at n = 0
        row = 0.0
        for n in range(max_index):
            row += inner
            inner *= (a + m + n) * (b2 + n) / ((c + m + n) * (n + 1.0)) * y
            if abs(inner) <= 1e-17 * max(abs(row), 1e-300):
                break
        total += row
        outer *= (a + m) * (b1 + m) / ((c + m) * (m + 1.0)) * x
        if abs(outer) <= 1e-17 * max(abs(total), 1e-300):
            break
    return total


def horner_terminating_2f1(a_int, b, c, z):
    """Terminating series evaluated as an explicit Horner polynomial."""
    degree = -int(round(a_int))
    coeffs = [1.0]
    for k in range(degree):
        coeffs.append(
            coeffs[-1] * (a_int + k) * (b + k) / ((c + k) * (k + 1.0))
        )
    acc = 0.0
    for coef in reversed(coeffs):
        acc = acc * z + coef
    return acc


# ---------------------------------------------------------------------------
# gauss_2f1 on the real axis, z < 1
# ---------------------------------------------------------------------------

def test_empty_series_is_one():
    assert gauss_2f1(3.7, -2.2, 0.4, 0.0) == 1.0


def test_log_identity():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-13, abs=0.0
    )


def test_arctan_identity():
    # 2F1(1/2,1;3/2;-z^2) = arctan(z)/z at z = 1
    assert gauss_2f1(0.5, 1.0, 1.5, -1.0) == pytest.approx(
        math.pi / 4.0, rel=1e-13, abs=0.0
    )


def test_gauss_summation_limit():
    # z -> 1- limit against Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))
    for a, b, c in [(0.3, 0.4, 1.45), (0.2, 0.6, 2.3)]:
        expected = (math.gamma(c) * math.gamma(c - a - b)
                    / (math.gamma(c - a) * math.gamma(c - b)))
        got = gauss_2f1(a, b, c, 1.0 - 1e-12)
        assert got == pytest.approx(expected, rel=1e-8, abs=0.0)


@given(
    a=st.floats(min_value=-4.0, max_value=4.0),
    b=st.floats(min_value=-4.0, max_value=4.0),
    c=st.floats(min_value=0.1, max_value=5.0),
    z=st.floats(min_value=-5.0, max_value=0.9),
)
def test_symmetry_in_upper_parameters(a, b, c, z):
    left = gauss_2f1(a, b, c, z)
    right = gauss_2f1(b, a, c, z)
    assert right == pytest.approx(left, rel=1e-13, abs=1e-290)


@given(
    a=st.floats(min_value=0.1, max_value=1.2),
    b=st.floats(min_value=0.1, max_value=1.2),
    c=st.floats(min_value=1.0, max_value=4.0),
    z=st.floats(min_value=-0.9, max_value=-0.01),
)
def test_pfaff_agrees_with_direct_series(a, b, c, z):
    # gauss_2f1 maps z < 0 through the Pfaff transformation; the raw
    # series still converges on (-0.9, 0) and is the independent route.
    # Parameters are kept in the regime where the alternating direct sum
    # is itself accurate to full precision (non-increasing terms).
    direct, _, ok = gauss_series(a, b, c, z)
    assert ok
    assert gauss_2f1(a, b, c, z) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_terminating_series_matches_horner_exactly():
    a, b, c = -5.0, 2.3, 1.7
    for z in (0.3, -2.5):
        expected = horner_terminating_2f1(a, b, c, z)
        assert gauss_2f1(a, b, c, z) == pytest.approx(expected, rel=1e-14,
                                                      abs=0.0)
    # past the cut the polynomial stays real
    val = gauss_2f1_continued(a, b, c, 7.5)
    assert val.imag == 0.0
    assert val.real == pytest.approx(
        horner_terminating_2f1(a, b, c, 7.5), rel=1e-14, abs=0.0
    )


def test_terminating_survives_nonpositive_c():
    # series stops at k = 2 before (c)_k vanishes at k = 4
    assert gauss_2f1(-2.0, 1.0, -3.5, 0.5) == pytest.approx(
        horner_terminating_2f1(-2.0, 1.0, -3.5, 0.5), rel=1e-14, abs=0.0
    )


# The series truncates at k = -a, and c is a non-positive integer past the
# truncation: the loop meets c + k = 0 after its last non-zero term.
POLYNOMIAL_PAST_THE_TRUNCATION = {
    "2f1": (gauss_2f1, mpmath.hyp2f1, (-2.0, 3.84, -3.0, 0.5)),
    "2f1-a-zero": (gauss_2f1, mpmath.hyp2f1, (0.0, 1.5, -3.0, 0.5)),
    "2f1-negative-z": (gauss_2f1, mpmath.hyp2f1, (-2.0, 3.84, -3.0, -5.0)),
    "continued": (gauss_2f1_continued, mpmath.hyp2f1,
                  (-2.0, 3.84, -3.0, 36.5)),
    "appell": (appell_f1, mpmath.appellf1, (-2.0, 0.5, 0.5, -3.0, 0.3, 0.4)),
}


@pytest.mark.parametrize("case", sorted(POLYNOMIAL_PAST_THE_TRUNCATION))
def test_polynomial_with_nonpositive_c_past_the_truncation(case):
    kernel, reference, args = POLYNOMIAL_PAST_THE_TRUNCATION[case]
    expected = complex(reference(*args))
    assert abs(kernel(*args) - expected) <= 1e-15 * abs(expected)


def test_polynomial_whose_truncation_meets_the_pole():
    # a = c = -3: (a)_k / (c)_k is 1 up to k = 3, where the series stops
    # (DLMF 15.2.5), so 2F1 sums (b)_k z^k / k! and F1 the x^j y^k terms
    # with j + k <= 3.
    assert gauss_2f1(-3.0, 7.5, -3.0, 0.5) == 25.3359375
    x, y = -0.5, 0.6
    expected = sum(math.prod(range(2, 2 + j)) * math.prod(range(2, 2 + k))
                   * x**j * y**k / (math.factorial(j) * math.factorial(k))
                   for j in range(4) for k in range(4 - j))
    assert appell_f1(-3.0, 2.0, 2.0, -3.0, x, y) == pytest.approx(
        expected, rel=1e-15, abs=0.0)


def test_polynomial_with_a_pole_before_the_truncation_raises():
    # (c)_k vanishes at k = 3, before the series truncates at k = 5
    with pytest.raises(DegenerateParameterError):
        gauss_2f1(-5.0, 1.0, -3.0, 0.5)


def test_nearly_terminating_parameter_is_not_a_polynomial():
    # b = 2e-16 is inside the pole-detection window but must not take the
    # truncated-series shortcut: the tiny tail diverges for |z| > 1, while
    # the transformed route converges to ~1 + O(b).
    val = gauss_2f1(1.0, 2e-16, 1.0, -2.0)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert gauss_2f1(2e-16, 1.0, 1.0, -2.0) == pytest.approx(val, rel=1e-13,
                                                             abs=0.0)


def test_degenerate_lower_parameter_raises():
    with pytest.raises(DegenerateParameterError):
        gauss_2f1(0.5, 0.5, -2.0, 0.3)


def test_z_at_or_above_one_is_domain_error():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, 1.0)
    with pytest.raises(DomainError):
        gauss_2f1_continued(0.5, 0.5, 1.5, 0.7)


def test_full_output_report():
    value, report = gauss_2f1(0.5, 0.8, 1.9, 0.4, full_output=True)
    assert report.terms_used > 0
    assert value == gauss_2f1(0.5, 0.8, 1.9, 0.4)
    assert report.route == "series"
    _, report = gauss_2f1(0.3, 0.4, 1.45, 0.97, full_output=True)
    assert report.route == "one_minus_z"


# Parabolic 2F1(1/2, 3n+1; 3/2; 1-ratio) and hyperbolic
# 2F1(1/2, (3n+1)/2; 3/2; 1-ratio^2), with the parameters built as
# cdtube.flow builds them.
def _parabolic(n, ratio):
    three_n = 3.0 * n
    return 0.5, three_n + 1.0, 1.5, 1.0 - ratio


def _hyperbolic(n, ratio):
    three_n = 3.0 * n
    return 0.5, (three_n + 1.0) / 2.0, 1.5, 1.0 - ratio**2


# Integer b - a: c - b is an exact non-positive integer at these n, so the
# Pfaff series is a polynomial.
INTEGER_INDICES = {
    "parabolic": (0.5, 5.0 / 6.0, 7.0 / 6.0, 1.5, 11.0 / 6.0),
    "hyperbolic": (2.0 / 3.0, 4.0 / 3.0, 2.0),
}
# b - a = 3n + 1/2 (parabolic) or 3n/2 (hyperbolic) just off an integer,
# outside INTEGER_WINDOW.
NEAR_INTEGER_INDICES = {
    "parabolic": tuple((m - 0.5 + d) / 3.0 for m in range(2, 7)
                       for d in (1e-6, -1e-6, 1e-8, -1e-8)),
    "hyperbolic": tuple(n for m in range(1, 4)
                        for d in (1e-6, -1e-6, 1e-8, -1e-8)
                        for n in [2.0 * (m + d) / 3.0] if n <= 2.0),
}
GENERIC_INDICES = (0.2, 0.27, 0.41, 0.63, 0.77, 1.0, 1.09, 1.42, 1.61, 1.96)
ENVELOPE_RATIOS = (1.0 + 1e-4, 1.01, 1.2, 1.4142, 1.5, 2.0, 2.3, 10.0, 97.0,
                   1e3, 3.1e4, 1e6)


@pytest.mark.parametrize("family", ["parabolic", "hyperbolic"])
@pytest.mark.parametrize("kind", ["generic", "integer", "near_integer"])
def test_shape_arguments_against_mpmath(family, kind):
    build = _parabolic if family == "parabolic" else _hyperbolic
    indices = {"generic": GENERIC_INDICES, "integer": INTEGER_INDICES[family],
               "near_integer": NEAR_INTEGER_INDICES[family]}[kind]
    misses = []
    for n in indices:
        for ratio in ENVELOPE_RATIOS:
            a, b, c, z = build(n, ratio)
            if kind != "integer" and z < -1.0:
                expected_route = "inv_one_minus_z"
            else:
                expected_route = "pfaff"
            value, report = gauss_2f1(a, b, c, z, full_output=True)
            with mpmath.workdps(40):
                ref = mpmath.hyp2f1(a, b, c, z)
                rel_err = float(abs((value - ref) / ref))
            if (report.route != expected_route or rel_err > 1e-13
                    or report.terms_used > 128):
                misses.append((n, ratio, report.route, rel_err,
                               report.terms_used))
    assert not misses


def test_near_integer_b_minus_a_without_pole_cancellation_takes_pfaff():
    # c is neither a + 1 nor b + 1, so near-integer b - a makes the two
    # halves of the 1/(1-z) connection cancel; Pfaff keeps full accuracy.
    for d, z, route in [(1e-6, -1.5, "pfaff"), (1e-8, -50.0, "pfaff"),
                        (1e-1, -50.0, "inv_one_minus_z")]:
        a, b, c = 0.3, 1.3 + d, 2.2
        value, report = gauss_2f1(a, b, c, z, full_output=True)
        assert report.route == route
        assert value == pytest.approx(float(mpmath.hyp2f1(a, b, c, z)),
                                      rel=1e-13, abs=0.0)


@pytest.mark.parametrize("a,b,c", [(0.5, 180.3, 200.7), (0.4, 0.9, 175.0)])
def test_connection_gamma_overflow_takes_pfaff(a, b, c):
    # Gamma(c) overflows a float; the Pfaff map has no gamma factors.
    value, report = gauss_2f1(a, b, c, -5.0, full_output=True)
    assert report.route == "pfaff"
    assert value == pytest.approx(float(mpmath.hyp2f1(a, b, c, -5.0)),
                                  rel=1e-13, abs=0.0)


# Route taken below z = -1 when a parameter sits within INTEGER_WINDOW of
# an integer.
INTEGER_WINDOW_ROUTES = {
    # b - a near 2: the connection's halves carry opposite poles; Pfaff.
    (0.5, 2.5 + 1e-12, 1.5): "pfaff",
    # c - b near -1: 1/Gamma(c - b) is small and kept, and the
    # connection stays accurate with a few terms.
    (0.3, 1.6 + 1e-10, 0.6): "inv_one_minus_z",
}


@pytest.mark.parametrize("a,b,c", list(INTEGER_WINDOW_ROUTES))
def test_integer_window_keeps_pfaff(a, b, c):
    for z in (-3.0, -20.0, -1e3, -1e5):
        value, report = gauss_2f1(a, b, c, z, full_output=True)
        assert report.route == INTEGER_WINDOW_ROUTES[a, b, c]
        assert value == pytest.approx(float(mpmath.hyp2f1(a, b, c, z)),
                                      rel=1e-13, abs=0.0)
        if report.route == "inv_one_minus_z":
            assert report.terms_used <= 64


@pytest.mark.parametrize("offset", [3e-9, 3e-8, 3e-7])
def test_series_keeps_terms_past_a_near_zero_denominator(offset):
    # 2F1(-nu, -nu; -2nu; w) with nu = 3 + offset: (a)_k makes the terms
    # from k = 4 tiny, and (c)_k, near zero at k = 7, makes them large
    # again.  Summation must not stop in between.
    nu = 3.0 + offset
    value, terms, ok = gauss_series(-nu, -nu, -2.0 * nu, 0.5)
    assert ok and terms > 7
    with mpmath.workdps(40):
        ref = mpmath.hyp2f1(-nu, -nu, -2.0 * nu, 0.5)
    assert value == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def reference_gauss_series(a, b, c, z):
    """The summation loop as it stood with an int counter and ``abs``
    calls, ending at the first NaN partial sum; :func:`gauss_series` must
    reproduce it bit for bit."""
    term = 1.0
    total = 1.0
    consec = 0
    k = 0
    while k < MAX_TERMS:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if math.isnan(total):
            return total, k + 1, True
        floor = STAGNATION_RTOL * abs(total)
        if floor < 1e-300:
            floor = 1e-300
        if abs(term) <= floor and k > -c:
            consec += 1
            if consec >= STAGNATION_RUN:
                return total, k + 1, True
        else:
            consec = 0
        k += 1
    return total, MAX_TERMS, False


def _series_parameters(seed, count):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        a, b = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)
        c = rng.choice([rng.uniform(0.5, 9.0), rng.uniform(-6.0, 9.0),
                        rng.randint(-6, 0) + rng.choice([1e-9, -1e-9, 0.5])])
        if rng.random() < 0.2:
            a = float(rng.randint(-12, 0))  # a terminating polynomial
        cases.append((a, b, c, rng.uniform(-0.999, 0.999)))
    return cases


def test_series_loop_matches_the_reference_loop_bit_for_bit():
    cases = _series_parameters(20261018, 400) + [
        (0.5, 7.0, 1.5, -0.5),        # the parabolic route's first call
        (-2.4, 3.4, 1.0, -0.3),       # a Legendre series, P_2.4
        (1.0, 1.0, 2.0, 0.9999999),   # converges slowly past 1e4 terms
        (math.nan, 1.0, 1.0, 0.5),    # a NaN partial sum ends the sum
        (1.0, 1.0, 1.0, 0.0),         # every term is zero
        (-1.0, 2.0, 2.0, 1.0),        # a sum of exactly 0: the 1e-300 floor
    ]
    seen = set()
    for case in cases:
        got, ref = gauss_series(*case), reference_gauss_series(*case)
        assert type(got[1]) is int
        assert (got[0].hex(), *got[1:]) == (ref[0].hex(), *ref[1:]), case
        seen.add((ref[2], ref[0] < 0.0))
    # converged, capped, and a negative sum all occur
    assert {(True, False), (True, True), (False, False)} <= seen


def test_a_series_that_meets_c_plus_k_zero_before_it_ends_raises():
    # c = -2 is met at k = 2, while the terms of a = b = 1 go on.
    with pytest.raises(ZeroDivisionError):
        gauss_series(1.0, 1.0, -2.0, 0.5)


def test_a_nan_partial_sum_ends_the_series(monkeypatch):
    # The Legendre polynomial P_3(z) = 2F1(-3, 4; 1; (1 - z)/2) of a
    # sinusoid at ratio 1e300: its third term overflows to inf, and the
    # fourth, inf * 0, is NaN.
    calls = _recording_gauss_series(monkeypatch)
    with pytest.raises(ConvergenceError,
                       match=r"^gauss_2f1 produced a non-finite value$"):
        gauss_2f1(-3.0, 4.0, 1.0, -2.5e149)
    assert calls and sum(terms for _, terms in calls) <= 5


def test_a_non_finite_sinusoid_series_falls_back_and_says_so(monkeypatch):
    # The n = 1, ratio 1e300 sinusoid is analytic; a series kernel whose
    # sum turns non-finite sends it to the quadrature, which agrees.
    fluid = PowerLawFluid(1.0, 1.0)
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 1e300, 1.0)
    analytic = pressure_drop(fluid, spec, 1.0)
    monkeypatch.setattr(special, "gauss_series",
                        lambda a, b, c, z: (math.inf, 1, True))
    result = pressure_drop(fluid, spec, 1.0)
    assert result.method == flow.METHOD_FALLBACK
    # The oracle's stacked product and first-panel nodes moved its last
    # bits from 0x1.4d6cc19e63bc2p-499, by 3.4e-16 relative.
    assert result.pressure_drop.hex() == "0x1.4d6cc19e63bc0p-499"
    before = float.fromhex("0x1.4d6cc19e63bc2p-499")
    assert abs(result.pressure_drop - before) <= 2e-15 * before
    assert result.diagnostics.endswith(
        ": gauss_2f1 (Pfaff) produced a non-finite value")
    assert analytic.method == flow.METHOD_ANALYTIC
    assert abs(analytic.pressure_drop - result.pressure_drop) <= (
        1e-8 * result.pressure_drop)


# (a, b, c) with one of a, b, c - a, c - b at pole + offset; c - a - b is
# not an integer, so 0.9 < z < 1 takes the 1 - z connection.
NEAR_POLE_PARAMETERS = {
    "a": lambda d: (-1.0 + d, 0.4, 0.6),
    "b": lambda d: (0.4, -2.0 + d, 0.7),
    "c-a": lambda d: (1.6 + d, 0.4, 0.6),
    "c-b": lambda d: (0.3, 1.6 + d, 0.6),
}


@pytest.mark.parametrize("which", sorted(NEAR_POLE_PARAMETERS))
def test_one_minus_z_near_gamma_pole_against_mpmath(which):
    # Within INTEGER_WINDOW of a pole, 1/Gamma is small but not zero; the
    # term it weights must be kept.
    misses = []
    for offset in (1e-10, -1e-10, 1e-12, -1e-12):
        a, b, c = NEAR_POLE_PARAMETERS[which](offset)
        for z in (0.95, 0.99, 0.999):
            value, report = gauss_2f1(a, b, c, z, full_output=True)
            with mpmath.workdps(40):
                ref = mpmath.hyp2f1(a, b, c, z)
                rel_err = float(abs((value - ref) / ref))
            if (report.route != "one_minus_z" or rel_err > 1e-13
                    or report.terms_used > 128):
                misses.append((offset, z, report.route, rel_err,
                               report.terms_used))
    assert not misses


@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (0.4, -2.7, 1.3, 0.6),
        (1.1, 0.3, 2.6, -7.0),
        (0.25, 0.75, 2.0, 0.97),
        (-0.6, 1.9, 0.35, -0.4),
    ],
)
def test_against_reference_implementation(a, b, c, z):
    assert gauss_2f1(a, b, c, z) == pytest.approx(
        float(mpmath.hyp2f1(a, b, c, z)), rel=1e-12, abs=0.0
    )


# ---------------------------------------------------------------------------
# continuation past z = 1
# ---------------------------------------------------------------------------

def test_pinned_continuation_from_elementary_integral():
    # The n = 1 cosh closed form integrates elementarily:
    # integral sech^4 = tanh - tanh^3/3, which forces
    # |Im 2F1(1/2,-3/2;-1/2; rho^2)| = 3 rho^3 (T - T^3/3), T = tanh(arccosh rho).
    rho = 2.0
    t = math.tanh(math.acosh(rho))
    expected_im = 3.0 * rho**3 * (t - t**3 / 3.0)
    assert expected_im == pytest.approx(9.0 * math.sqrt(3.0), rel=1e-14,
                                        abs=0.0)

    above = gauss_2f1_continued(0.5, -1.5, -0.5, 4.0, "above")
    assert above.imag == pytest.approx(-expected_im, rel=1e-13, abs=0.0)
    assert above.real == pytest.approx(0.0, abs=1e-12)


def test_branch_symmetry_is_conjugation():
    for args in [(0.5, -1.5, -0.5, 4.0), (-1.2, 0.5, -0.7, 4.0),
                 (0.3, 1.9, 2.4, 1.7)]:
        above = gauss_2f1_continued(*args, branch="above")
        below = gauss_2f1_continued(*args, branch="below")
        assert above.real == below.real
        assert above.imag == -below.imag


def test_continuity_onto_the_cut():
    # c - a - b = 1/2 > 0, so the function is finite at z = 1 and both
    # sides approach the same (vanishing) real value like sqrt(|1-z|).
    for eps in (1e-6, 1e-10):
        scale = 4.0 * math.sqrt(eps)
        below_cut = gauss_2f1(0.5, -1.5, -0.5, 1.0 - eps)
        on_cut = gauss_2f1_continued(0.5, -1.5, -0.5, 1.0 + eps, "above")
        assert abs(below_cut) <= scale
        assert abs(on_cut.real) <= scale


@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (0.5, -1.8, -0.5, 4.0),     # 1 - 1/z connection
        (0.5, -1.8, -0.5, 1.21),    # same, close to the cut point
        (0.25, 0.75, 2.0, 5.0),     # c-a-b integer: 1/z connection
        (-1.2, 0.5, -0.7, 9.0),     # reduced sinusoid-style parameters
        (0.5, -2.4, -1.9, 100.0),   # large argument
    ],
)
def test_continued_against_reference_implementation(a, b, c, z):
    got = gauss_2f1_continued(a, b, c, z, "above")
    ref = mpmath.hyp2f1(a, b, c, mpmath.mpc(z, 1e-25))
    assert got.real == pytest.approx(float(ref.real), rel=1e-10, abs=1e-12)
    assert got.imag == pytest.approx(float(ref.imag), rel=1e-10, abs=1e-12)


def _failing(message):
    def fail(*_args):
        raise ConvergenceError(message)
    return fail


def test_continuation_retries_on_the_second_route(monkeypatch):
    # c - a - b and b - a are not integers, and z < 2: the 1 - 1/z
    # connection is tried first, then the 1/z one.
    args = (0.3, 1.9, 2.4, 1.7)
    second = complex(*_continued._continued_arg_1z(*args, -1.0))
    assert abs(gauss_2f1_continued(*args) - second) <= 1e-13 * abs(second)
    monkeypatch.setattr(_continued, "_continued_arg_1m1z", _failing("first"))
    assert gauss_2f1_continued(*args) == second


def test_continuation_raises_the_last_routes_error(monkeypatch):
    monkeypatch.setattr(_continued, "_continued_arg_1m1z", _failing("first"))
    monkeypatch.setattr(_continued, "_continued_arg_1z", _failing("second"))
    with pytest.raises(ConvergenceError, match="^second$"):
        gauss_2f1_continued(0.3, 1.9, 2.4, 1.7)


def test_continuation_degenerate_at_a_nonpositive_integer_c():
    with pytest.raises(DegenerateParameterError):
        gauss_2f1_continued(0.5, 0.3, -2.0, 3.0)


def test_continuation_rejects_an_unknown_branch():
    with pytest.raises(DomainError, match="branch must be"):
        gauss_2f1_continued(0.3, 1.9, 2.4, 1.7, branch="left")


def test_continuation_degenerate_when_both_routes_blocked():
    # c - a - b = -1 and b - a = 0 are both integers
    with pytest.raises(DegenerateParameterError):
        gauss_2f1_continued(0.75, 0.75, 0.5, 4.0)


@pytest.mark.parametrize("which", sorted(NEAR_POLE_PARAMETERS))
def test_continued_near_gamma_pole_is_accurate_or_raises(which):
    # Both connections weight a half by 1/Gamma of a, b, c - a or c - b.
    # Near a pole the result must match mpmath or the call must raise; at
    # (1.6 + 1e-12, 0.4, 0.6) the function has a zero near z = 3, where
    # the halves cancel to 1.8e-4.
    misses = []
    for offset in (1e-10, -1e-10, 1e-12, -1e-12):
        a, b, c = NEAR_POLE_PARAMETERS[which](offset)
        for z in (1.3, 1.9, 3.0, 10.0, 1e3):
            try:
                got = gauss_2f1_continued(a, b, c, z)
            except DegenerateParameterError:
                continue
            with mpmath.workdps(40):
                ref = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(z, 1e-35)))
            if abs(got - ref) > 1e-12 * abs(ref):
                misses.append((offset, z, got, ref))
    assert not misses


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------

def test_appell_empty_series():
    assert appell_f1(1.3, 0.4, 0.7, 2.2, 0.0, 0.0) == complex(1.0, 0.0)


def test_appell_b2_zero_reduces_to_gauss():
    got = appell_f1(0.3, 0.7, 0.0, 1.1, 0.5, 0.99)
    assert got.imag == 0.0
    assert got.real == gauss_2f1(0.3, 0.7, 1.1, 0.5)


def test_appell_pinned_value_against_double_sum():
    oracle = naive_appell_double_sum(-1.5, 0.5, 0.5, -0.5, 0.3, 0.4)
    assert oracle == pytest.approx(1.6215014126488505, rel=1e-13, abs=0.0)
    got = appell_f1(-1.5, 0.5, 0.5, -0.5, 0.3, 0.4)
    assert got.imag == 0.0
    assert got.real == pytest.approx(oracle, rel=1e-10, abs=0.0)


@given(
    a=st.floats(min_value=-2.0, max_value=2.5),
    b1=st.floats(min_value=-1.5, max_value=2.0),
    b2=st.floats(min_value=-1.5, max_value=2.0),
    c=st.floats(min_value=0.3, max_value=4.0),
    x=st.floats(min_value=-0.7, max_value=0.7),
    y=st.floats(min_value=-0.7, max_value=0.7),
)
def test_appell_polydisc_against_double_sum(a, b1, b2, c, x, y):
    oracle = naive_appell_double_sum(a, b1, b2, c, x, y)
    got = appell_f1(a, b1, b2, c, x, y)
    assert got.real == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_appell_boundary_reduction_against_reference():
    got = appell_f1(-1.2, 0.5, 0.5, -0.2, 1.0, 0.5)
    ref = float(mpmath.appellf1(-1.2, 0.5, 0.5, -0.2, 1.0, 0.5))
    assert got.real == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert got.imag == 0.0
    assert got.real == pytest.approx(3.0864201798819069, rel=1e-12, abs=0.0)


def test_appell_boundary_with_continued_argument_is_complex():
    got = appell_f1(-1.2, 0.5, 0.5, -0.2, 1.0, 3.0, branch="below")
    flipped = appell_f1(-1.2, 0.5, 0.5, -0.2, 1.0, 3.0, branch="above")
    assert got.imag != 0.0
    assert got.imag == -flipped.imag


def test_appell_outer_sum_ends_at_its_first_non_finite_partial_sum(
        monkeypatch):
    # The partial sum reaches -inf at outer term 223.
    inner_series = []
    checked = special._series_checked

    def count(*args):
        inner_series.append(args)
        return checked(*args)

    monkeypatch.setattr(special, "_series_checked", count)
    with pytest.raises(ConvergenceError,
                       match=r"^appell_f1 produced a non-finite value$"):
        appell_f1(300.0, 300.0, 0.5, 1.0, -0.99, 0.5)
    assert len(inner_series) <= 230


def test_appell_outer_sum_raises_at_the_term_cap(monkeypatch):
    # At x = 0.9 the outer sum needs more than 5 terms; at y = 0 each
    # inner series is its first term.
    monkeypatch.setattr(special, "MAX_TERMS", 5)
    with pytest.raises(ConvergenceError,
                       match=r"^appell_f1 double series did not converge "
                             r"within 5 outer terms$") as caught:
        appell_f1(0.5, 0.5, 0.5, 1.5, 0.9, 0.0)
    assert math.isfinite(caught.value.best_estimate)


def test_appell_degenerate_parameters():
    # integer 3n family: c = 1 - 3n is a non-positive integer
    with pytest.raises(DegenerateParameterError):
        appell_f1(-3.0, 0.5, 0.5, -2.0, 1.0, 2.0)
    # half-odd 3n family: the reduction coefficient hits a gamma pole
    with pytest.raises(DegenerateParameterError):
        appell_f1(-1.5, 0.5, 0.5, -0.5, 1.0, 2.0)


def test_appell_domain_errors():
    with pytest.raises(DomainError):
        appell_f1(0.5, 0.5, 0.5, 1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        appell_f1(0.5, 0.5, 0.5, 1.5, 1.2, 0.3)
    with pytest.raises(DomainError):
        appell_f1(0.5, 0.5, 0.5, 1.5, 0.5, 3.0)
    with pytest.raises(DomainError):
        # boundary reduction needs c - a - b1 > 0
        appell_f1(1.0, 0.5, 0.5, 1.2, 1.0, 0.5)


@pytest.mark.parametrize("args", [
    (185.17, -1.48, -2.999999998, 0.9626),  # 1/Gamma of an underflow
    (147.74, 5.21, 1.69, 0.99914),  # w**s past the float range
])
def test_a_gamma_factor_or_power_past_the_float_range_is_a_domain_error(
        args):
    with pytest.raises(DomainError, match=r"^gauss_2f1: .* outside the "
                       r"float range \(a=.*, z=.*\)$"):
        gauss_2f1(*args)


def test_the_public_kernels_raise_only_cdtube_errors():
    # Every parameter uniform in [-200, 200]: gamma factors and powers
    # leave the float range for many of these calls, and each kernel must
    # report that as a DomainError, not a bare OverflowError or
    # ZeroDivisionError.
    rng = random.Random(5)
    draw = functools.partial(rng.uniform, -200.0, 200.0)
    calls = [
        *((gauss_2f1, (draw(), draw(), draw(),
                       rng.uniform(-50.0, 1.0) if i % 2
                       else rng.uniform(0.9, 0.99999)))
          for i in range(500)),
        *((gauss_2f1_continued, (draw(), draw(), draw(),
                                 rng.uniform(1.0001, 50.0)))
          for _ in range(200)),
        *((appell_f1, (draw(), draw(), draw(), draw(),
                       1.0 if i % 2 else rng.uniform(-0.99, 0.99),
                       rng.uniform(-0.99, 5.0)))
          for i in range(200)),
    ]
    outside = set()
    for kernel, args in calls:
        try:
            kernel(*args)
        except DomainError as exc:
            if "outside the float range" in str(exc):
                outside.add(kernel)
        except CdtubeError:
            pass
    assert outside == {gauss_2f1, gauss_2f1_continued, appell_f1}


@pytest.mark.parametrize("args", [
    # x = 1: the reduction's gauss_2f1_continued at y > 1 overflows ...
    (-33.803313911940734, -72.33898059971318, 193.71060522642262,
     -3.298112960027055, 1.0, 2.9077951054669717),
    # ... and its gauss_2f1 at y < 1 divides by an underflowed gamma.
    (-189.11515542223225, -67.40999754268714, 79.19052656221749,
     -131.19245837679983, 1.0, 0.9658690566890191),
])
def test_appell_f1_names_itself_when_a_reduction_leaves_the_float_range(
        args):
    names = ("a", "b1", "b2", "c", "x", "y")
    listed = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
    with pytest.raises(DomainError) as info:
        appell_f1(*args)
    assert str(info.value) == (
        "appell_f1: a gamma factor or a power is outside the float range "
        f"({listed}, branch='above')")
    assert isinstance(info.value.__cause__, (OverflowError, ZeroDivisionError))


# ---------------------------------------------------------------------------
# conductance integrals against mpmath
# ---------------------------------------------------------------------------

@functools.cache
def _mpmath_geometric_integral(shape, n, r_min, r_max, length):
    """``integral r(x)^-(3n+1) dx`` over the tube by 40-digit quadrature,
    split at decades of the throat width so the peak at x = 0 is resolved."""
    with mpmath.workdps(40):
        m = 3 * mpmath.mpf(n) + 1
        r_min, r_max, half = (mpmath.mpf(r_min), mpmath.mpf(r_max),
                              mpmath.mpf(length) / 2)
        if shape is TubeShape.CONIC:
            radius = lambda x: r_min + (r_max - r_min) * x / half
            width = r_min * half / (r_max - r_min)
        elif shape is TubeShape.PARABOLIC:
            radius = lambda x: r_min + (r_max - r_min) * (x / half) ** 2
            width = half * mpmath.sqrt(r_min / (r_max - r_min))
        elif shape is TubeShape.HYPERBOLIC:
            radius = lambda x: mpmath.sqrt(
                r_min**2 + (r_max**2 - r_min**2) * (x / half) ** 2)
            width = half * r_min / mpmath.sqrt(r_max**2 - r_min**2)
        elif shape is TubeShape.COSH:
            beta = mpmath.acosh(r_max / r_min) / half
            radius = lambda x: r_min * mpmath.cosh(beta * x)
            width = 1 / beta
        else:
            mean, amp = (r_max + r_min) / 2, (r_max - r_min) / 2
            k = mpmath.pi / half
            radius = lambda x: mean - amp * mpmath.cos(k * x)
            width = mpmath.sqrt(r_min / amp) / k
        points = [mpmath.mpf(0)]
        while width / 10 * 10 ** len(points) < half:
            points.append(width / 10 * 10 ** len(points))
        points.append(half)
        return 2 * mpmath.quad(lambda x: radius(x) ** -m, points)


def _paper_geometric_integral(shape, n, ratio):
    """The paper's forms at r_min = length = 1, evaluated in mpmath at
    z + i0: cosh as Im 2F1 past the cut, the sinusoid as Im F1 at x = 1.
    mpmath.appellf1 does not continue past |y| = 1, so F1 goes through its
    x = 1 reduction to a gamma ratio times 2F1(a, b2; c - b1; y)."""
    with mpmath.workdps(40):
        three_n, ratio = 3 * mpmath.mpf(n), mpmath.mpf(ratio)
        if shape is TubeShape.COSH:
            h = mpmath.hyp2f1(0.5, -three_n / 2, (2 - three_n) / 2,
                              mpmath.mpc(ratio**2, 1e-35))
            return float(abs(h.imag)
                         / (three_n * ratio**three_n * mpmath.acosh(ratio)))
        a, b1, b2, c = -three_n, 0.5, 0.5, 1 - three_n
        f1 = (mpmath.gamma(c) * mpmath.gamma(c - a - b1)
              / (mpmath.gamma(c - a) * mpmath.gamma(c - b1))
              * mpmath.hyp2f1(a, b2, c - b1, mpmath.mpc(ratio, 1e-35)))
        return float(abs(f1.imag)
                     / (mpmath.pi * three_n * ratio**three_n
                        * mpmath.sqrt(ratio)))


@pytest.mark.parametrize("shape", [TubeShape.COSH, TubeShape.SINUSOIDAL])
@pytest.mark.parametrize("n", [0.25, 0.4, 0.77, 0.9, 1.3, 1.96])
def test_real_argument_forms_equal_paper_forms(shape, n):
    # At n off the integer and half-odd 3n families the paper's continued
    # forms are regular: K from the real-argument forms must equal them,
    # both in mpmath and through the package's own continued kernels.
    fluid = PowerLawFluid(1.0, n)
    three_n = 3.0 * n
    for ratio in (1.2, 2.0, 4.0, 30.0, 300.0):
        k = conductance_coefficient(fluid, TubeSpec(shape, 1.0, ratio, 1.0))
        paper = master_prefactor(fluid, 1.0) * _paper_geometric_integral(
            shape, n, ratio)
        assert k == pytest.approx(paper, rel=1e-12, abs=0.0)
        if shape is TubeShape.COSH:
            h = gauss_2f1_continued(0.5, -three_n / 2.0, 1.0 - three_n / 2.0,
                                    ratio**2)
            scale = three_n * ratio**three_n * math.acosh(ratio)
        else:
            h = appell_f1(-three_n, 0.5, 0.5, 1.0 - three_n, 1.0, ratio)
            scale = math.pi * three_n * ratio**three_n * math.sqrt(ratio)
        kernel = master_prefactor(fluid, 1.0) * abs(h.imag) / scale
        assert k == pytest.approx(kernel, rel=1e-12, abs=0.0)


# n over [0.2, 2]: integer and half-odd 3n, 3n within 1e-10 and 1e-8 of
# them, and generic values.
ENVELOPE_INDICES = (0.2, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.77, 1.0, 7.0 / 6.0,
                    1.42, 5.0 / 3.0, 11.0 / 6.0, 2.0,
                    (1.0 + 1e-10) / 3.0, (3.0 - 1e-10) / 3.0,
                    (3.0 + 1e-8) / 3.0, (1.5 + 1e-10) / 3.0,
                    (4.5 - 1e-8) / 3.0)


# Every shape, despite the name.  Ratio 1e12 lies past the envelope, where
# tanh^2 eta rounds to 1.  The throats span the envelope's 1 nm to 10 um,
# each with length 100 r_min.  Every profile is r_min times a function of
# 2x/L and the ratio, so the integral is L r_min^-(3n+1) times that of the
# unit tube; rounding r_min * ratio moves K by under 1e-15.
THROATS = ((1.0, 1.0), (1e-9, 1e-7), (1e-5, 1e-3))


@pytest.mark.parametrize("shape", list(TubeShape))
@pytest.mark.parametrize("ratio", [1.0 + 1e-4, 1.5, 10.0, 35.0, 1e3, 1e6, 1e12])
def test_cosh_and_sinusoid_conductance_against_mpmath_quadrature(shape,
                                                                 ratio):
    misses = []
    for (r_min, length), n in itertools.product(THROATS, ENVELOPE_INDICES):
        fluid = PowerLawFluid(1.0, n)
        k = conductance_coefficient(
            fluid, TubeSpec(shape, r_min, r_min * ratio, length))
        with mpmath.workdps(40):
            geometric = (length * mpmath.mpf(r_min) ** -(3 * mpmath.mpf(n) + 1)
                         * _mpmath_geometric_integral(shape, n, 1.0, ratio,
                                                      1.0))
        ref = master_prefactor(fluid, 1.0) * float(geometric)
        if abs(k - ref) > 1e-13 * ref:
            misses.append((r_min, 3.0 * n, abs(k - ref) / ref))
    assert not misses


# 3n = 2 puts b - a of the paper's hyperbolic 2F1 on an integer, where its
# 1/(1-z) connection has cancelling poles.
@pytest.mark.parametrize("three_n", [2.0 - 1e-9, 2.0 + 1e-9])
def test_hyperbolic_near_integer_b_minus_a_against_mpmath_quadrature(three_n):
    n = three_n / 3.0
    fluid = PowerLawFluid(1.0, n)
    spec = TubeSpec(TubeShape.HYPERBOLIC, 1.0, 1e4, 1.0)
    ref = master_prefactor(fluid, 1.0) * float(_mpmath_geometric_integral(
        TubeShape.HYPERBOLIC, n, 1.0, 1e4, 1.0))
    assert abs(conductance_coefficient(fluid, spec) - ref) <= 1e-13 * ref


BETA_SHAPES = (TubeShape.PARABOLIC, TubeShape.HYPERBOLIC, TubeShape.COSH)


@pytest.mark.parametrize("n", [0.001, 0.005])
def test_hyperbolic_far_below_the_index_range_is_analytic(n):
    # No accuracy is claimed below n = 0.2.  Measured against 40-digit
    # mpmath: at most 3.0e-14 (n = 0.001, ratio 100); the 1e-12 check only
    # catches a wrong value.
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    for ratio in (100.0, 1e3, 1e4, 1e6, 1e8):
        spec = TubeSpec(TubeShape.HYPERBOLIC, 1.0, ratio, 1.0)
        result = pressure_drop(fluid, spec, 1.0)
        assert result.method == "analytic"
        ref = master_prefactor(fluid, 1.0) * float(_mpmath_geometric_integral(
            TubeShape.HYPERBOLIC, n, 1.0, ratio, 1.0))
        assert result.pressure_drop == pytest.approx(ref, rel=1e-12, abs=0.0)


# Worst relative error measured over the grid below, times about four.
# The parabolic forms at n = 60 and 100 take Gamma(q/2)/Gamma(q/2 + 1/2)
# through lgamma, which keeps about 13 digits (measured 1.15e-13); the
# hyperbolic and cosh forms measured 1.3e-14.
LARGE_INDEX_BOUNDS = {TubeShape.PARABOLIC: 5e-13, TubeShape.HYPERBOLIC: 5e-14,
                      TubeShape.COSH: 5e-14}


@pytest.mark.parametrize("shape", BETA_SHAPES)
@pytest.mark.parametrize("n", [10.0, 40.0, 60.0, 100.0])
def test_large_index_beta_forms_against_mpmath_quadrature(shape, n):
    # Past the index range K is still reported as analytic, so it must be
    # right; at these n a series whose terms alternate cancels to nothing.
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    misses = []
    for ratio in (1.2, 1.5, 1.9, 3.0, 100.0):
        result = pressure_drop(fluid, TubeSpec(shape, 1.0, ratio, 1.0), 1.0)
        ref = master_prefactor(fluid, 1.0) * float(
            _mpmath_geometric_integral(shape, n, 1.0, ratio, 1.0))
        rel_err = abs(result.pressure_drop - ref) / ref
        if result.method != "analytic" or rel_err > LARGE_INDEX_BOUNDS[shape]:
            misses.append((ratio, result.method, rel_err))
    assert not misses


@pytest.mark.parametrize("shape", [TubeShape.HYPERBOLIC, TubeShape.COSH])
@pytest.mark.parametrize("ratio", [1e155, 1e200, 1e300])
@pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
def test_ratio_past_the_square_root_of_the_float_range(shape, ratio, n):
    # ratio^2 - 1 overflows from about 1.3e154, while K stays an ordinary
    # float.  The reference is a 40-digit quadrature at r_min = length = 1
    # in the variable of the closed form's substitution, over which the
    # integrand is smooth: theta = atan(sinh y) for the hyperbolic,
    # t = eta y for the cosh.  The throat-width splits of
    # _mpmath_geometric_integral leave the hyperbolic peak unresolved at
    # these ratios (6e-7 off at 1e155).
    fluid = PowerLawFluid(1.0, n)
    with mpmath.workdps(40):
        m, big = 3 * mpmath.mpf(n) + 1, mpmath.mpf(ratio)
        if shape is TubeShape.HYPERBOLIC:
            sinh = mpmath.sqrt(big**2 - 1)
            geometric = mpmath.quad(lambda t: mpmath.cos(t) ** (m - 2),
                                    [0, mpmath.atan(sinh)]) / sinh
        else:
            eta = mpmath.acosh(big)
            geometric = mpmath.quad(lambda t: mpmath.sech(t) ** m,
                                    [0, 1, 4, 16, 64, eta]) / eta
    ref = master_prefactor(fluid, 1.0) * float(geometric)
    result = pressure_drop(fluid, TubeSpec(shape, 1.0, ratio, 1.0), 1.0)
    assert result.method == "analytic"
    assert abs(result.pressure_drop - ref) <= 1e-13 * ref


def _recording_gauss_series(monkeypatch):
    """Patch the series kernel the beta forms sum; return the list that
    collects ``(z, terms)`` of each call."""
    calls = []
    inner = special.gauss_series

    def record(a, b, c, z):
        value, terms, converged = inner(a, b, c, z)
        calls.append((z, terms))
        return value, terms, converged

    monkeypatch.setattr(special, "gauss_series", record)
    return calls


# n over [0.2, 2]: every integer and half-odd 3n, each also 1e-10 and
# 1e-9 off, and generic values.
TERM_BOUND_INDICES = tuple(
    n for j in range(2, 13) for offset in (0.0, 1e-10, -1e-10, 1e-9, -1e-9)
    for n in [(j / 2.0 + offset) / 3.0] if n <= 2.0
) + (0.2, 0.27, 0.41, 0.77, 1.09, 1.42, 1.96)


def _recording_fraction(monkeypatch):
    """Patch the continued fraction the beta forms take; return the list
    that collects the steps of each call."""
    steps = []
    inner = flow._beta_fraction

    def record(a, b, x):
        value, taken = inner(a, b, x)
        steps.append(taken)
        return value, taken

    monkeypatch.setattr(flow, "_beta_fraction", record)
    return steps


@pytest.mark.parametrize("shape", BETA_SHAPES)
def test_beta_forms_take_one_short_series(shape, monkeypatch):
    # Each K is one continued fraction, and no beta form sums a series.
    # It takes at most 20 steps over the envelope, the most measured there;
    # on this grid the measured maximum is 15 (parabolic).  Past the index
    # range, up to n = 100 (q up to 601), it never reaches its cap; the
    # measured maximum is 41 (cosh, n = 60, ratio 1.01).
    steps = _recording_fraction(monkeypatch)
    monkeypatch.setattr(special, "gauss_series", None)
    for n, ratio in itertools.product(TERM_BOUND_INDICES, ENVELOPE_RATIOS):
        steps.clear()
        k = conductance_coefficient(PowerLawFluid(1.0, n),
                                    TubeSpec(shape, 1.0, ratio, 1.0))
        assert 0.0 < k < math.inf
        [taken] = steps
        assert taken <= 20, (n, ratio, taken)
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluids = [PowerLawFluid(1.0, n) for n in (5.0, 10.0, 20.0, 40.0,
                                                    60.0, 80.0, 100.0)]
    for fluid, ratio in itertools.product(
            fluids, (1.0 + 1e-4, 1.01, 1.05, 1.2, 1.5, 1.9, 3.0, 100.0, 1e6)):
        steps.clear()
        k = conductance_coefficient(fluid, TubeSpec(shape, 1.0, ratio, 1.0))
        assert 0.0 < k < math.inf
        [taken] = steps
        assert taken < flow.MAX_FRACTION_STEPS, (fluid.index, ratio, taken)


# Within this distance of a half-odd 3n the two halves of the sinusoid's
# ring expansion may cancel, and the Pfaff series that serves there runs
# at a variable above 1/2: 883 terms at 3n = 1.5 and ratio 1e12.  This
# window is left to a toroidal route (P_3n from the complete elliptic
# integrals).
HALF_ODD_WINDOW = 1e-4


def _near_half_odd(n):
    three_n = 3.0 * n
    return abs(three_n - math.floor(three_n) - 0.5) <= HALF_ODD_WINDOW


def test_sinusoid_sums_bounded_series_outside_the_half_odd_window(
        monkeypatch):
    # No K goes through gauss_2f1.  Each sums one Pfaff series, or the two
    # series of the ring expansion, in at most 40 terms together; the
    # measured maximum is 36, at n = 0.2 and ratio 33.97, where the Pfaff
    # variable is near 1/2.
    calls = _recording_gauss_series(monkeypatch)
    monkeypatch.setattr(special, "gauss_2f1", None)
    edges = tuple((k + 0.5 + side * 1.01e-4) / 3.0
                  for k in range(1, 6) for side in (-1.0, 1.0))
    ratios = ENVELOPE_RATIOS + (30.0, 32.0, 33.97, 34.0, 35.0, 38.0, 40.0,
                                1e12, 1e100, 1e300)
    rng = random.Random(2)
    low = math.log10(1.0 + 1e-4)
    points = [*itertools.product(TERM_BOUND_INDICES + edges, ratios),
              *((rng.uniform(0.2, 2.0), rng.uniform(30.0, 40.0))
                for _ in range(300)),
              *((rng.uniform(0.2, 2.0), 10.0 ** rng.uniform(low, 6.0))
                for _ in range(600)),
              *((rng.uniform(0.2, 2.0), 10.0 ** rng.uniform(6.0, 300.0))
                for _ in range(300))]
    for n, ratio in points:
        if _near_half_odd(n):
            continue
        calls.clear()
        k = conductance_coefficient(PowerLawFluid(1.0, n),
                                    TubeSpec(TubeShape.SINUSOIDAL, 1.0, ratio,
                                             1.0))
        assert 0.0 < k < math.inf
        assert 1 <= len(calls) <= 3, (n, ratio, calls)
        assert sum(terms for _, terms in calls) <= 40, (n, ratio, calls)


# What the half-odd window costs today: the Pfaff series at a variable
# near 1, as summed by flow._legendre at r_min = 1.  These are the bounds
# that a toroidal route must tighten.
HALF_ODD_TERM_COUNTS = {
    "3n=1.5, ratio 1e3": (1.5, 1e3, 93),
    "3n=1.5, ratio 1e6": (1.5, 1e6, 565),
    "3n=1.5, ratio 1e12": (1.5, 1e12, 883),
    "3n=1.5+1e-8, ratio 1e3": (1.5 + 1e-8, 1e3, 111),
    "3n=1.5-1e-8, ratio 1e3": (1.5 - 1e-8, 1e3, 111),
}


@pytest.mark.parametrize("three_n,ratio,bound",
                         list(HALF_ODD_TERM_COUNTS.values()),
                         ids=list(HALF_ODD_TERM_COUNTS))
def test_sinusoid_term_counts_inside_the_half_odd_window(three_n, ratio,
                                                          bound):
    # Near 1.5 the ring's halves cancel and the Pfaff series serves; at
    # 1.5 itself 1/2 - 3n is a pole of the ring's first series.  Measured
    # within 2.2e-14 of mpmath (3n = 1.5, ratio 1e12).
    n = three_n / 3.0
    value, terms = flow._legendre(1.0, ratio, 3.0 * n)
    assert terms <= bound
    ref = float(_mpmath_unit_sinusoid(n, ratio))
    assert abs(value - ref) <= 1e-13 * ref


@functools.cache
def _mpmath_unit_sinusoid(n, ratio, three_n=None):
    """The sinusoid's ``integral r(x)^-(3n+1) dx`` at ``r_min = L = 1``, in
    50 digits: ``s^(2 nu) / sqrt(ratio) 2F1(-nu, -nu; 1; w)``, the Pfaff
    form (DLMF 15.8.1) of ``ratio^(-(nu+1)/2) P_nu(z)``, with ``nu = 3n``,
    ``s = (1 + ratio^-1/2)/2`` and ``w = tanh^2(xi/2)``.  ``three_n``, if
    given, is ``nu`` as the solver forms it, ``3.0 * n`` rounded.

    It reaches ratio 1e300, past what the quadrature of
    :func:`_mpmath_geometric_integral` resolves.  mpmath's ``legenp`` is no
    reference there: at ratio 1e264 it was 1.4e-13 off this form and off
    the ring expansion, which agree to 1e-61."""
    with mpmath.workdps(50):
        nu = 3 * mpmath.mpf(n) if three_n is None else mpmath.mpf(three_n)
        big = mpmath.mpf(ratio)
        root = mpmath.sqrt(big)
        w = ((root - 1) / (root + 1)) ** 2
        return ((1 + 1 / root) / 2) ** (2 * nu) / root * mpmath.hyp2f1(
            -nu, -nu, 1, w)


def _sinusoid_reference(fluid, r_min, ratio, length, three_n=None):
    """K of the sinusoid from :func:`_mpmath_unit_sinusoid`: ``L
    r_min^-(3n+1)`` times the unit tube's integral, times the prefactor.
    ``three_n``, if given, is ``3n`` as the solver forms it."""
    n = fluid.index
    with mpmath.workdps(50):
        nu = 3 * mpmath.mpf(n) if three_n is None else mpmath.mpf(three_n)
        geometric = (length * mpmath.mpf(r_min) ** -(nu + 1)
                     * _mpmath_unit_sinusoid(n, ratio, three_n))
    return master_prefactor(fluid, 1.0) * float(geometric)


@pytest.mark.parametrize("ratio", [1e15, 1e50, 1e100, 1e150, 1e200, 1e250,
                                   1e300])
def test_sinusoid_conductance_to_ratio_1e300_against_mpmath(ratio):
    # Past the quadrature envelope of
    # test_cosh_and_sinusoid_conductance_against_mpmath_quadrature.  Neither
    # P_3n(z) nor the mean radius's power is formed, so nothing overflows
    # and every K here is analytic, exact half-odd 3n included.
    misses = []
    for (r_min, length), n in itertools.product(THROATS, ENVELOPE_INDICES):
        fluid = PowerLawFluid(1.0, n)
        result = pressure_drop(
            fluid, TubeSpec(TubeShape.SINUSOIDAL, r_min, r_min * ratio,
                            length), 1.0)
        ref = _sinusoid_reference(fluid, r_min, ratio, length)
        rel_err = abs(result.pressure_drop - ref) / ref
        if result.method != "analytic" or rel_err > 1e-13:
            misses.append((r_min, 3.0 * n, result.method, rel_err))
    assert not misses


@pytest.mark.parametrize("n", [0.5, 5.0 / 6.0, 7.0 / 6.0, 1.5, 11.0 / 6.0])
def test_exact_half_odd_sinusoid_at_high_ratio_is_analytic(n):
    # 1/2 - 3n is a pole of the ring expansion's first series, so these
    # take the Pfaff series, at a variable that rounds to 1 from ratio
    # about 1e32; the measured maximum is 883 terms and 2.2e-14 (n = 0.5).
    # Before, P_3n(z) overflowed while the mean radius's power underflowed.
    fluid = PowerLawFluid(1.0, n)
    for ratio in (1e100, 1e200, 1e300):
        result = pressure_drop(
            fluid, TubeSpec(TubeShape.SINUSOIDAL, 1.0, ratio, 1.0), 1.0)
        ref = _sinusoid_reference(fluid, 1.0, ratio, 1.0)
        assert result.method == "analytic", (ratio, result.diagnostics)
        assert abs(result.pressure_drop - ref) <= 1e-13 * ref, ratio


@pytest.mark.parametrize("n", [10.0, 40.0, 60.0, 100.0])
def test_large_index_sinusoid_against_mpmath(n):
    # As test_large_index_beta_forms_against_mpmath_quadrature, for the
    # sinusoid up to ratio 1e100.  Measured at most 1.2e-13 (n = 60, the
    # ring expansion, whose gamma ratio takes lgamma from 3n = 170).
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    misses = []
    for ratio in (1.2, 1.5, 1.9, 3.0, 40.0, 100.0, 1e4, 1e100):
        result = pressure_drop(
            fluid, TubeSpec(TubeShape.SINUSOIDAL, 1.0, ratio, 1.0), 1.0)
        ref = _sinusoid_reference(fluid, 1.0, ratio, 1.0)
        rel_err = abs(result.pressure_drop - ref) / ref
        if result.method != "analytic" or rel_err > 5e-13:
            misses.append((ratio, result.method, rel_err))
    assert not misses


# A 1 nm throat with L = 1 nm, where K/L leaves the float range while K
# does not.  At exact half-odd 3n the Pfaff form serves, whose s^(2 nu)
# overflows far below K/L (K is 4.5e186 at 3n = 37.5, ratio 1e300).  Each
# 3n is exact, so the reference's index is the solver's: a rounded 3n
# alone moves K by up to 8e-14 at this throat.
NANOMETRE_K_OVER_L_OVERFLOWS = {
    "3n=33.75, ratio 1+1e-15": (11.25, 1.0 + 1e-15),
    "3n=33.75, ratio 10": (11.25, 10.0),
    "3n=34.5, ratio 1e6": (11.5, 1e6),
    "3n=36.75, ratio 1e50": (12.25, 1e50),
    "3n=37.5, ratio 1e300": (12.5, 1e300),
    "3n=42, ratio 1e150": (14.0, 1e150),
}


@pytest.mark.parametrize("n,ratio",
                         list(NANOMETRE_K_OVER_L_OVERFLOWS.values()),
                         ids=list(NANOMETRE_K_OVER_L_OVERFLOWS))
def test_a_sinusoid_whose_k_over_l_overflows_is_analytic(n, ratio):
    r_min = length = 1e-9
    try:
        k_over_l = flow._legendre(r_min, r_min * ratio, 3.0 * n)[0]
    except OverflowError:
        k_over_l = math.inf
    assert not length * k_over_l < math.inf
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    result = pressure_drop(fluid, TubeSpec(TubeShape.SINUSOIDAL, r_min,
                                           r_min * ratio, length), 1.0)
    ref = _sinusoid_reference(fluid, r_min, ratio, length)
    assert ref < math.inf
    assert result.method == "analytic", result.diagnostics
    assert abs(result.pressure_drop - ref) <= 1e-13 * ref


def test_a_ring_expansion_near_the_top_of_the_float_range_is_analytic():
    # n = 13.3 at a 1 nm throat with L = 1 nm and ratio 1e100: K is
    # 1.69e308, within 7% of the largest float, from the unit-throat tube's
    # ring expansion times (L half) half, half = r_min^(-(3n+1)/2).
    # 3.0 * n is not 3n exactly here, so the reference takes the solver's
    # index: the exact one moves K by 7.4e-14 at this throat.
    n, ratio = 13.3, 1e100
    r_min = length = 1e-9
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    result = pressure_drop(fluid, TubeSpec(TubeShape.SINUSOIDAL, r_min,
                                           r_min * ratio, length), 1.0)
    ref = _sinusoid_reference(fluid, r_min, ratio, length, 3.0 * n)
    assert 1.6e308 < ref < math.inf
    assert result.method == "analytic", result.diagnostics
    assert abs(result.pressure_drop - ref) <= 1e-13 * ref


def test_a_scaled_sinusoid_that_fails_to_converge_is_a_domain_error(
        monkeypatch):
    # K/L overflows, and the closed form on the unit-throat tube, its radii
    # divided by r_min and its length 1, raises ConvergenceError: that
    # leaves K outside the float range, and sends no tube to the quadrature
    # fallback.
    tubes = []

    def legendre(r_min, r_max, nu):
        tubes.append((r_min, r_max))
        if len(tubes) == 1:
            raise OverflowError("K/L past the float range")
        raise ConvergenceError("the scaled tube's series")

    def fallback(*args, **kwargs):
        raise AssertionError("the quadrature fallback ran")
    monkeypatch.setattr(flow, "_legendre", legendre)
    monkeypatch.setattr(flow, "integrate_inverse_radius_power", fallback,
                        raising=False)
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1e-9, 1e-6, 1e-9)
    with pytest.raises(DomainError, match="K is outside the float range"):
        conductance_coefficient(PowerLawFluid(1.0, 0.5), spec)
    assert tubes == [(1e-9, 1e-6), (1.0, 1e-6 / 1e-9)]


@pytest.mark.parametrize("r_min,r_max,length", [
    (1e-9, 1e-3, 1e-9),  # K itself is about 4e373
    (1e-12, 1.7e308, 1e-3),  # r_max / r_min is past the range
], ids=["K-overflows", "scaled-r_max-overflows"])
def test_a_sinusoid_past_the_float_range_stays_a_domain_error(
        monkeypatch, r_min, r_max, length):
    def fallback(*args, **kwargs):
        raise AssertionError("the quadrature fallback ran")
    monkeypatch.setattr(flow, "integrate_inverse_radius_power", fallback,
                        raising=False)
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, 40.0 / 3.0)
    with pytest.raises(DomainError, match="K is outside the float range"):
        conductance_coefficient(fluid, TubeSpec(TubeShape.SINUSOIDAL, r_min,
                                                r_max, length))


def _unit_profile(shape, ratio):
    """``r(y) / r_min`` at ``y = 2x/L`` in [0, 1], in mpmath."""
    d = ratio - 1
    if shape is TubeShape.CONIC:
        return lambda y: 1 + d * y
    if shape is TubeShape.PARABOLIC:
        return lambda y: 1 + d * y * y
    if shape is TubeShape.HYPERBOLIC:
        return lambda y: mpmath.sqrt(1 + (ratio**2 - 1) * y * y)
    eta = mpmath.acosh(ratio)
    return lambda y: mpmath.cosh(eta * y)


# At a 1 nm throat with L = 1 pm, r_min^(3n+1) is subnormal, or 0, while
# K is a float.  The beta forms divided by it and lost digits, K off by
# up to 3.5e-6; the conic's r_min^-3n overflowed, a false DomainError.  At
# ratio 1 + 1e-15, r_min^(3n+1) is normal but its product with the
# parabolic scale sqrt(d) is not.  3n + 1 is exact at every n here.
NANOMETRE_POWER_OUTSIDE_THE_NORMAL_RANGE = {
    "parabolic n=11.3": (TubeShape.PARABOLIC, 11.3, 1.5),
    "hyperbolic n=11.45": (TubeShape.HYPERBOLIC, 11.45, 1.5),
    "parabolic n=11.45": (TubeShape.PARABOLIC, 11.45, 1.5),
    "cosh n=11.45": (TubeShape.COSH, 11.45, 1.5),
    "conic n=11.45": (TubeShape.CONIC, 11.45, 1.5),
    "parabolic n=11.05, ratio 1+1e-15": (TubeShape.PARABOLIC, 11.05,
                                         1.0 + 1e-15),
}


@pytest.mark.parametrize("shape,n,ratio",
                         list(NANOMETRE_POWER_OUTSIDE_THE_NORMAL_RANGE.values()),
                         ids=list(NANOMETRE_POWER_OUTSIDE_THE_NORMAL_RANGE))
def test_a_nanometre_throat_whose_radius_power_leaves_the_normal_range(
        shape, n, ratio):
    r_min, length = 1e-9, 1e-12
    spec = TubeSpec(shape, r_min, r_min * ratio, length)
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    result = pressure_drop(fluid, spec, 1.0)
    with mpmath.workdps(40):
        m = mpmath.mpf(3.0 * n + 1.0)
        rho = _unit_profile(shape, mpmath.mpf(spec.r_max) / spec.r_min)
        ref = float(2 * (3 * mpmath.mpf(n) + 1) ** n
                    / (mpmath.pi * n) ** n
                    * length * mpmath.mpf(r_min) ** -m
                    * mpmath.quad(lambda y: rho(y) ** -m, [0, 0.25, 0.5, 1]))
    assert 1e295 < ref < math.inf
    assert result.method == "analytic", result.diagnostics
    assert abs(result.pressure_drop - ref) <= 1e-13 * ref


# The mirror at a wide tube, r_min = 1e10 or 1e11 and L = 1e300: the beta
# forms' r_min^(3n+1) overflows, a false DomainError, and the conic's
# r_min^-3n is subnormal or 0, which left K 24% off at n = 9.8 (r_min =
# 1e11) and a false DomainError at n = 11 and 12 (r_min = 1e10).
WIDE_TUBE_POWER_OUTSIDE_THE_NORMAL_RANGE = {
    "parabolic n=10": (TubeShape.PARABOLIC, 10.0, 1e10),
    "hyperbolic n=10": (TubeShape.HYPERBOLIC, 10.0, 1e10),
    "cosh n=10": (TubeShape.COSH, 10.0, 1e10),
    "conic n=9.5 at 1e11": (TubeShape.CONIC, 9.5, 1e11),
    "conic n=9.8 at 1e11": (TubeShape.CONIC, 9.8, 1e11),
    "conic n=11": (TubeShape.CONIC, 11.0, 1e10),
    "conic n=12": (TubeShape.CONIC, 12.0, 1e10),
}


@pytest.mark.parametrize("shape,n,r_min",
                         list(WIDE_TUBE_POWER_OUTSIDE_THE_NORMAL_RANGE.values()),
                         ids=list(WIDE_TUBE_POWER_OUTSIDE_THE_NORMAL_RANGE))
def test_a_wide_tube_whose_radius_power_leaves_the_normal_range(shape, n,
                                                                r_min):
    length = 1e300
    spec = TubeSpec(shape, r_min, 1.5 * r_min, length)
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    result = pressure_drop(fluid, spec, 1.0)
    with mpmath.workdps(40):
        m = 3 * mpmath.mpf(n) + 1
        rho = _unit_profile(shape, mpmath.mpf(1.5))
        ref = float(2 * m ** n / (mpmath.pi * n) ** n
                    * length * mpmath.mpf(r_min) ** -m
                    * mpmath.quad(lambda y: rho(y) ** -m, [0, 0.25, 0.5, 1]))
    assert 1e-80 < ref < 1e-10
    assert result.method == "analytic", result.diagnostics
    assert abs(result.pressure_drop - ref) <= 1e-13 * ref


# Forced onto every tube of a grid, the rescue that takes the closed form
# on the unit-throat tube, its radii divided by r_min and its length 1,
# gives the direct K.  Each tube is solved once directly; then every power
# of r_min != 1 is refused, and every sinusoid's K/L overflows, so that each
# K is the unit tube's times (L half) half, half = r_min^(-(3n+1)/2).
RESCUE_RATIOS = (1.0, 1.0 + 1e-10, 1.01, 1.5, 3.0, 40.0, 1e3, 1e6)
RESCUE_INDICES = (0.2, 0.5, 1.0, 1.3, 2.0)


@pytest.mark.parametrize("r_min,length", [(3e-5, 4e-4), (2.5, 7.0)])
def test_the_unit_throat_rescue_gives_the_direct_k(monkeypatch, r_min,
                                                   length):
    cases = [(shape, n, TubeSpec(shape, r_min, r_min * ratio, length))
             for shape in TubeShape for ratio in RESCUE_RATIOS
             for n in RESCUE_INDICES]
    direct = [conductance_coefficient(PowerLawFluid(1.0, n), spec)
              for _, n, spec in cases]
    throat_power, legendre = flow._throat_power, flow._legendre
    throats = []

    def refuse_throat_power(radius, exponent, factor):
        throats.append(radius)
        if radius != 1.0:
            return None
        return throat_power(radius, exponent, factor)

    def overflowing_legendre(radius, r_max, nu):
        throats.append(radius)
        if radius != 1.0:
            raise OverflowError("K/L past the float range")
        return legendre(radius, r_max, nu)

    monkeypatch.setattr(flow, "_throat_power", refuse_throat_power)
    monkeypatch.setattr(flow, "_legendre", overflowing_legendre)
    misses = []
    for (shape, n, spec), k in zip(cases, direct):
        throats.clear()
        result = pressure_drop(PowerLawFluid(1.0, n), spec, 1.0)
        rel_err = abs(result.pressure_drop - k) / k
        # The straight unit tube's K is the prefactor, with no power taken.
        expected = [r_min] if spec.is_straight else [r_min, 1.0]
        if (result.method != "analytic" or rel_err > 1e-14
                or throats != expected):
            misses.append((shape.value, n, spec.r_max, rel_err))
    assert not misses


# Where r_min^(3n+1) leaves the normal range, at a 1 nm throat or a wide
# tube, the straight tube had no rescue: its K lost digits in a subnormal
# power (1.2e-6 off at n = 11.45) or raised a false DomainError.  The
# sinusoid rescaled its tube by L^(-1/(3n+1)), whose Pfaff form still
# overflowed at exact half-odd 3n, and kept a K/L below the normal range
# (7.5e-12 off at n = 10, r_min = 1e10) or raised a false DomainError.  Every
# 3n + 1 here is the solver's, which the references take.
EDGE_STRAIGHT_AND_SINUSOID = {
    "straight n=11.3 at 1 nm": (TubeShape.CONIC, 11.3, 1e-9, 1.0, 1e-12),
    "straight n=11.45 at 1 nm": (TubeShape.CONIC, 11.45, 1e-9, 1.0, 1e-12),
    "straight n=10 at 1e10 m": (TubeShape.COSH, 10.0, 1e10, 1.0, 1e300),
    "sinusoid 3n=40.5, ratio 1e150 at 1 nm": (TubeShape.SINUSOIDAL, 13.5,
                                             1e-9, 1e150, 1e-9),
    "sinusoid 3n=40.5, ratio 1e300 at 1 nm": (TubeShape.SINUSOIDAL, 13.5,
                                             1e-9, 1e300, 1e-9),
    "sinusoid 3n=43.5, ratio 1e300 at 1 nm": (TubeShape.SINUSOIDAL, 14.5,
                                             1e-9, 1e300, 1e-9),
    "sinusoid 3n=28.5, ratio 1e300 at 1 pm": (TubeShape.SINUSOIDAL, 9.5,
                                             1e-12, 1e300, 1e-12),
    "sinusoid n=10 at 1e10 m": (TubeShape.SINUSOIDAL, 10.0, 1e10, 1.5, 1e300),
    "sinusoid n=12 at 1e10 m": (TubeShape.SINUSOIDAL, 12.0, 1e10, 1.5, 1e300),
    "sinusoid n=9.8 at 1e11 m": (TubeShape.SINUSOIDAL, 9.8, 1e11, 1.5, 1e300),
}


@pytest.mark.parametrize("shape,n,r_min,ratio,length",
                         list(EDGE_STRAIGHT_AND_SINUSOID.values()),
                         ids=list(EDGE_STRAIGHT_AND_SINUSOID))
def test_a_straight_tube_or_sinusoid_at_the_float_range_edges(
        shape, n, r_min, ratio, length):
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    result = pressure_drop(fluid, TubeSpec(shape, r_min, r_min * ratio,
                                           length), 1.0)
    if shape is TubeShape.SINUSOIDAL:
        ref = _sinusoid_reference(fluid, r_min, ratio, length, 3.0 * n)
    else:
        with mpmath.workdps(40):
            m = mpmath.mpf(3.0 * n + 1.0)
            ref = float(2 * m**n / (mpmath.pi * n) ** n * length
                        * mpmath.mpf(r_min) ** -m)
    assert sys.float_info.min < ref < math.inf
    assert result.method == "analytic", result.diagnostics
    assert abs(result.pressure_drop - ref) <= 1e-13 * ref


# A K below the normal float range has lost digits: at n = 18.3 and r_min =
# 1e11 the conic reported P = 5.488152e-317, 7 digits, as analytic.
SUBNORMAL_K = {
    "conic n=18.3 at 1e11 m": (TubeShape.CONIC, 18.3, 1e11),
} | {
    f"{shape.value} n=20 at 1e10 m": (shape, 20.0, 1e10)
    for shape in (TubeShape.CONIC, TubeShape.PARABOLIC,
                  TubeShape.HYPERBOLIC, TubeShape.COSH)
}


@pytest.mark.parametrize("shape,n,r_min", list(SUBNORMAL_K.values()),
                         ids=list(SUBNORMAL_K))
def test_a_k_below_the_normal_float_range_is_a_domain_error(shape, n, r_min):
    length = 1e300
    spec = TubeSpec(shape, r_min, 1.5 * r_min, length)
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    with mpmath.workdps(40):
        m = 3 * mpmath.mpf(n) + 1
        rho = _unit_profile(shape, mpmath.mpf(1.5))
        ref = (2 * m ** n / (mpmath.pi * n) ** n
               * length * mpmath.mpf(r_min) ** -m
               * mpmath.quad(lambda y: rho(y) ** -m, [0, 0.25, 0.5, 1]))
    assert 0 < ref < sys.float_info.min
    with pytest.raises(DomainError, match=r"^conductance K is outside the "
                       r"float range \(r_min="):
        pressure_drop(fluid, spec, 1.0)


def _route_map_beta(q, t2, w):
    """``flow._beta`` as it was through the public 2F1: each series goes
    through ``gauss_2f1(..., full_output=True)`` and comes back with an
    :class:`EvaluationReport`."""
    half = 0.5 * q
    if t2 <= 0.5:
        h, rep = gauss_2f1(1.0, half + 0.5, 1.5, t2, full_output=True)
        return math.sqrt(t2) * w**half * h, rep
    h, rep = gauss_2f1(half, 0.5, half + 1.0, w, full_output=True)
    if half < 170.0:
        gamma_ratio = math.gamma(half) / math.gamma(half + 0.5)
    else:
        gamma_ratio = math.exp(math.lgamma(half) - math.lgamma(half + 0.5))
    return 0.5 * math.sqrt(math.pi) * gamma_ratio - w**half / q * h, rep


def _through_the_route_map(monkeypatch, compute):
    """``compute()`` with the beta forms' series from
    :func:`_route_map_beta`."""
    def beta(q, t2, w):
        h, rep = _route_map_beta(q, t2, w)
        return h, rep.terms_used

    with monkeypatch.context() as patch:
        patch.setattr(flow, "_beta", beta)
        return compute()


@pytest.mark.parametrize("shape", BETA_SHAPES)
def test_beta_forms_match_the_route_map(shape, monkeypatch):
    # The continued fraction gives the route map's K to 5e-15 (measured at
    # most 1.9e-15), and the note names the steps it took.  Past ratio
    # ~1.3e154 the hyperbolic and cosh w = ratio^-2 underflows to 0, where
    # the fraction takes no step.
    steps = _recording_fraction(monkeypatch)
    for n, ratio in itertools.product(
            TERM_BOUND_INDICES, ENVELOPE_RATIOS + (1e154, 1e200, 1e300)):
        spec = TubeSpec(shape, 1.0, ratio, 1.0)
        steps.clear()
        value, note = flow._geometric_integral(spec, n)
        taken = sum(steps)
        expected, _ = _through_the_route_map(
            monkeypatch, lambda: flow._geometric_integral(spec, n))
        assert abs(value - expected) <= 5e-15 * expected, (n, ratio)
        assert note == (f"{shape.value} closed form: beta continued "
                        f"fraction converged after {taken} steps"), (n, ratio)
        if shape is not TubeShape.PARABOLIC and ratio >= 1e200:
            assert steps == [], steps
            assert note.endswith(" converged after 0 steps"), note


@pytest.mark.parametrize("shape", BETA_SHAPES)
def test_beta_fallback_quotes_the_route_map_message(shape, monkeypatch):
    # A fraction capped at 1 step raises its ConvergenceError, and the
    # fallback's note quotes it byte for byte.
    monkeypatch.setattr(flow, "MAX_FRACTION_STEPS", 1)
    raised = []
    inner = flow._beta_fraction

    def record(a, b, x):
        try:
            return inner(a, b, x)
        except ConvergenceError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(flow, "_beta_fraction", record)
    fluid, spec = PowerLawFluid(1.0, 0.7), TubeSpec(shape, 1.0, 3.0, 1.0)
    result = pressure_drop(fluid, spec, 1.0)
    [message] = raised
    assert result.method == "quadrature_fallback"
    assert result.diagnostics.startswith("fallback to quadrature (")
    assert result.diagnostics.endswith(f"): {message}")
    assert message.startswith("beta continued fraction for (a=")
    assert message.endswith("did not converge within 1 steps")
    monkeypatch.undo()
    analytic = pressure_drop(fluid, spec, 1.0)
    assert analytic.method == "analytic"
    assert result.pressure_drop == pytest.approx(analytic.pressure_drop,
                                                 rel=1e-8, abs=0.0)


class _ZeroDivisorAfterOneProduct(float):
    """A float whose products, after its first, raise ZeroDivisionError:
    in the continued fraction the first is outside the loop, the next
    inside it."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.products = 0
        return self

    def __rmul__(self, other):
        self.products += 1
        if self.products > 1:
            raise ZeroDivisionError("float division by zero")
        return other * float(self)


@pytest.mark.parametrize("shape", BETA_SHAPES)
def test_a_zero_denominator_in_the_beta_fraction_falls_back(shape,
                                                           monkeypatch):
    # The fraction guards no denominator inside its loop; a zero one
    # raises ZeroDivisionError, which it turns into ConvergenceError once,
    # outside the loop.  The quadrature then takes the tube, and the note
    # says why.
    inner = flow._beta_fraction
    monkeypatch.setattr(flow, "_beta_fraction", lambda a, b, x: inner(
        a, b, _ZeroDivisorAfterOneProduct(x)))
    fluid, spec = PowerLawFluid(1.0, 0.7), TubeSpec(shape, 1.0, 3.0, 1.0)
    result = pressure_drop(fluid, spec, 1.0)
    assert result.method == "quadrature_fallback"
    assert result.diagnostics.endswith(": a zero denominator at step 1")
    monkeypatch.undo()
    assert result.pressure_drop == pytest.approx(
        pressure_drop(fluid, spec, 1.0).pressure_drop, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("n", ENVELOPE_INDICES)
def test_beta_forms_equal_paper_forms(n):
    # The paper writes the parabolic and hyperbolic integrals as
    # 2F1(1/2, 3n + 1; 3/2; 1 - ratio) and 2F1(1/2, (3n + 1)/2; 3/2;
    # 1 - ratio^2), at r_min = length = 1.
    fluid = PowerLawFluid(1.0, n)
    prefactor = master_prefactor(fluid, 1.0)
    for ratio in (1.0 + 1e-4, 1.2, 2.0, 4.0, 30.0, 1e3, 1e6):
        with mpmath.workdps(40):
            m, big = 3 * mpmath.mpf(n) + 1, mpmath.mpf(ratio)
            paper = {
                TubeShape.PARABOLIC: mpmath.hyp2f1(0.5, m, 1.5, 1 - big),
                TubeShape.HYPERBOLIC: mpmath.hyp2f1(0.5, m / 2, 1.5,
                                                    1 - big**2),
            }
        for shape, h in paper.items():
            k = conductance_coefficient(fluid, TubeSpec(shape, 1.0, ratio,
                                                        1.0))
            assert k == pytest.approx(prefactor * float(h), rel=1e-13,
                                      abs=0.0), (shape, ratio)


@pytest.mark.parametrize("ratio", [1.0 + 1e-4, 1.0 + 1e-6, 1.0 + 1e-8])
@pytest.mark.parametrize("n", [0.2, 0.5, 1.0, 1.7, 2.0])
def test_conic_conductance_at_small_contrast_against_mpmath(ratio, n):
    # r_min^-3n - r_max^-3n cancels as the radii close in; the exact
    # integral in 40-digit arithmetic is the reference.
    r_min, r_max, length = 1e-6, 1e-6 * ratio, 1e-4
    fluid = PowerLawFluid(1.0, n)
    k = conductance_coefficient(fluid, TubeSpec(TubeShape.CONIC, r_min,
                                                r_max, length))
    with mpmath.workdps(40):
        three_n = 3 * mpmath.mpf(n)
        lo, hi = mpmath.mpf(r_min), mpmath.mpf(r_max)
        geometric = length * (lo**-three_n - hi**-three_n) / (three_n
                                                             * (hi - lo))
    assert k == pytest.approx(master_prefactor(fluid, 1.0) * float(geometric),
                              rel=1e-13, abs=0.0)
