import functools
import heapq
import inspect
import itertools
import math
import sys

import mpmath
import numpy as np
import pytest

from cdtube import (
    ConvergenceError,
    DomainError,
    PowerLawFluid,
    TubeShape,
    TubeSpec,
    integrate_inverse_radius_power,
    master_prefactor,
    pressure_drop_numeric,
)
from cdtube import flow as flow_module
from cdtube import geometry, quadrature
from cdtube.cli import main
from cdtube.flow import _geometric_integral

EPS = 2.2e-16


def conic_integral_exact(r_min, r_max, length, exponent):
    """Elementary antiderivative of (a + b|x|)^(-e) over [-L/2, L/2]."""
    b = 2.0 * (r_max - r_min) / length
    return 2.0 * (r_min ** (1.0 - exponent) - r_max ** (1.0 - exponent)) / (
        b * (exponent - 1.0)
    )


def hyperbolic_arctan_exact(r_min, r_max, length):
    """Exponent-2 case: integral of 1/(a + b x^2) has an arctan form."""
    a = r_min**2
    b = 4.0 * (r_max**2 - r_min**2) / length**2
    return (2.0 / math.sqrt(a * b)) * math.atan(
        0.5 * length * math.sqrt(b / a)
    )


def test_straight_tube_constant_integrand():
    spec = TubeSpec(TubeShape.PARABOLIC, 2.0, 2.0, 3.0)
    res = integrate_inverse_radius_power(spec, 4.0)
    assert res.value == pytest.approx(3.0 / 2.0**4, rel=1e-13, abs=0.0)
    assert res.error_estimate <= quadrature.DEFAULT_REL_TOL * res.value
    assert res.subdivisions == 1


@pytest.mark.parametrize("exponent", [1.6, 2.0, 3.1, 4.0, 6.0, 7.0])
def test_conic_elementary_antiderivative(exponent):
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    exact = conic_integral_exact(0.5, 1.0, 1.0, exponent)
    res = integrate_inverse_radius_power(spec, exponent, rel_tol=1e-12)
    assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
    # tolerance honesty: the reported estimate bounds the true error
    assert abs(res.value - exact) <= res.error_estimate + 8 * EPS * abs(exact)


def test_conic_exponent_four_spot_value():
    # integral of (0.5 + |x|)^-4 over [-1/2, 1/2] = 2/3 * (8 - 1) = 14/3
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    res = integrate_inverse_radius_power(spec, 4.0, rel_tol=1e-12)
    assert res.value == pytest.approx(14.0 / 3.0, rel=1e-12, abs=0.0)


def test_hyperbolic_arctan_case():
    spec = TubeSpec(TubeShape.HYPERBOLIC, 1.0, 2.0, 1.0)
    exact = hyperbolic_arctan_exact(1.0, 2.0, 1.0)
    assert exact == pytest.approx(0.6045997880780726, rel=1e-14, abs=0.0)
    res = integrate_inverse_radius_power(spec, 2.0, rel_tol=1e-12)
    assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert abs(res.value - exact) <= res.error_estimate + 8 * EPS * abs(exact)


def test_halving_tolerance_never_worsens_true_error():
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    exact = conic_integral_exact(0.5, 1.0, 1.0, 3.1)
    previous = None
    for rel_tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        res = integrate_inverse_radius_power(spec, 3.1, rel_tol=rel_tol)
        true_err = abs(res.value - exact)
        if previous is not None:
            assert true_err <= previous + 8 * EPS * abs(exact)
        previous = true_err


@pytest.mark.parametrize("shape", list(TubeShape))
def test_half_interval_doubling_matches_full_interval(shape):
    # The oracle integrates [0, L/2] and doubles; the closed form at
    # n = 0.8 (exponent 3n + 1 = 3.4) covers the whole unit.
    spec = TubeSpec(shape, 0.8, 2.5, 1.7)
    half = integrate_inverse_radius_power(spec, 3.4, rel_tol=1e-11)
    full, _ = _geometric_integral(spec, 0.8)
    assert full == pytest.approx(half.value, rel=1e-13, abs=0.0)


def test_determinism_bitwise():
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 4.0, 2.0)
    first = integrate_inverse_radius_power(spec, 4.6)
    second = integrate_inverse_radius_power(spec, 4.6)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.subdivisions == second.subdivisions


def test_argument_validation():
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_inverse_radius_power(spec, -1.0)
    with pytest.raises(DomainError):
        integrate_inverse_radius_power(spec, 4.0, rel_tol=0.5)
    with pytest.raises(DomainError):
        integrate_inverse_radius_power(spec, 4.0, rel_tol=1e-15)


def test_panel_cap_raises_with_best_estimate():
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 10.0, 1.0)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_inverse_radius_power(spec, 4.0, rel_tol=1e-12, max_panels=1)
    best = excinfo.value.best_estimate
    assert best is not None
    assert best.error_estimate > 1e-12 * abs(best.value)
    assert best.subdivisions == 1
    exact = pressure_drop_numeric(
        PowerLawFluid(1.0, 1.0), spec, 1.0, rel_tol=1e-12
    ).value / master_prefactor(PowerLawFluid(1.0, 1.0), 1.0)
    # the best estimate is in the right ballpark even when unconverged
    assert best.value == pytest.approx(exact, rel=0.2, abs=0.0)


def test_pressure_drop_numeric_zero_flow():
    fluid = PowerLawFluid(2.0, 0.7)
    spec = TubeSpec(TubeShape.COSH, 1.0, 3.0, 2.0)
    res = pressure_drop_numeric(fluid, spec, 0.0)
    assert res.value == 0.0
    assert res.error_estimate == 0.0


def test_pressure_drop_numeric_conic_spot():
    # prefactor 8/pi times the elementary 14/3
    fluid = PowerLawFluid(1.0, 1.0)
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    res = pressure_drop_numeric(fluid, spec, 1.0, rel_tol=1e-12)
    assert res.value == pytest.approx(8.0 / math.pi * 14.0 / 3.0,
                                      rel=1e-12, abs=0.0)
    assert res.value == pytest.approx(56.0 / (1.5 * math.pi),
                                      rel=1e-12, abs=0.0)


def test_converged_result_meets_contract():
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 4.0, 2.0)
    res = integrate_inverse_radius_power(spec, 5.8, rel_tol=1e-9)
    assert res.error_estimate <= 1e-9 * abs(res.value)


# ---------------------------------------------------------------------------
# the nested Clenshaw-Curtis pair
# ---------------------------------------------------------------------------

def test_rules_are_the_65_and_33_point_clenshaw_curtis_pair():
    nodes, weights_hi, weights_lo = quadrature._rules()
    assert len(nodes) == len(weights_hi) == 65
    assert len(weights_lo) == 33
    for weights in (weights_hi, weights_lo):
        assert np.all(weights > 0.0)
        assert np.max(np.abs(weights - weights[::-1])) <= 1e-15
        assert abs(math.fsum(weights) - 2.0) <= 1e-14
    for weights, x in ((weights_hi, nodes), (weights_lo, nodes[::2])):
        for k in range(len(x)):
            exact = 0.0 if k % 2 else 2.0 / (1.0 - k * k)
            chebyshev = np.cos(k * np.arccos(x))
            assert abs(float(weights @ chebyshev) - exact) <= 1e-14, k


# ---------------------------------------------------------------------------
# the oracle over the envelope, against mpmath
# ---------------------------------------------------------------------------

@functools.cache
def _mpmath_unit_tube_integral(shape, ratio, exponent):
    """``integral r(x)^-exponent dx`` over the tube with r_min = L = 1 by
    30-digit quadrature, split at decades of the throat width."""
    with mpmath.workdps(30):
        m, r_max = mpmath.mpf(exponent), mpmath.mpf(ratio)
        half = mpmath.mpf(0.5)
        dr = r_max - 1
        if shape is TubeShape.CONIC:
            radius = lambda x: 1 + dr * x / half
            width = half / dr
        elif shape is TubeShape.PARABOLIC:
            radius = lambda x: 1 + dr * (x / half) ** 2
            width = half / mpmath.sqrt(dr)
        elif shape is TubeShape.HYPERBOLIC:
            radius = lambda x: mpmath.sqrt(
                1 + (r_max**2 - 1) * (x / half) ** 2)
            width = half / mpmath.sqrt(r_max**2 - 1)
        elif shape is TubeShape.COSH:
            beta = mpmath.acosh(r_max) / half
            radius = lambda x: mpmath.cosh(beta * x)
            width = 1 / beta
        else:
            k = mpmath.pi / half
            radius = lambda x: 1 + dr * mpmath.sin(k * x / 2) ** 2
            width = 2 / (k * mpmath.sqrt(dr))
        points = [mpmath.mpf(0)]
        while width / 10 * 10 ** len(points) < half:
            points.append(width / 10 * 10 ** len(points))
        points.append(half)
        return float(2 * mpmath.quad(lambda x: radius(x) ** -m, points))


ENVELOPE_RATIOS = [1.0001, 1.5, 10.0, 1e3, 1e6, 1e8]
ENVELOPE_EXPONENTS = [1.6, 3.4, 7.0]
ENVELOPE_REL_TOLS = [1e-6, 1e-10, 1e-12, 1e-14]


@pytest.mark.parametrize("exponent", ENVELOPE_EXPONENTS)
@pytest.mark.parametrize("ratio", ENVELOPE_RATIOS)
@pytest.mark.parametrize("shape", list(TubeShape))
def test_oracle_over_the_envelope_against_mpmath(shape, ratio, exponent):
    exact = _mpmath_unit_tube_integral(shape, ratio, exponent)
    spec = TubeSpec(shape, 1.0, ratio, 1.0)
    for rel_tol in ENVELOPE_REL_TOLS:
        res = integrate_inverse_radius_power(spec, exponent, rel_tol=rel_tol)
        true_err = abs(res.value - exact)
        assert res.error_estimate <= rel_tol * res.value
        # the reported estimate bounds the true error
        assert true_err <= res.error_estimate + 8 * EPS * exact, rel_tol
        assert true_err <= rel_tol * exact, rel_tol


def test_default_validate_grid_panel_count(runner, monkeypatch):
    # Most of the 240 integrals settle in their first 65-point panel.
    panels = []

    def counted(owner):
        original = owner.integrate_inverse_radius_power

        def wrapper(*args, **kwargs):
            res = original(*args, **kwargs)
            panels.append(res.subdivisions)
            return res
        monkeypatch.setattr(owner, "integrate_inverse_radius_power", wrapper)

    counted(quadrature)
    counted(flow_module)
    result = runner.invoke(main, ["validate", "--grid", "default",
                                  "--format", "csv"],
                           catch_exceptions=False)
    assert result.exit_code == 0
    assert len(panels) == 240
    assert sum(panels) <= 300


# ---------------------------------------------------------------------------
# the adaptive driver against a reference copy
# ---------------------------------------------------------------------------

# How far the driver's value and error estimate may stand from the
# reference's, relative to the reference's |value|.  The stacked product
# sums in another order than two dot products, and a panel whose left end
# is 0 forms its nodes as halfwidth * (1 + c), not mid + halfwidth * c.
DRIVER_TOLERANCE = 2e-15


def reference_integrate_adaptive(f, lo, hi, rel_tol, max_panels,
                                 estimates=None):
    """The driver as it stood with every panel on the heap, every panel's
    nodes clipped, two ``@`` products and the closing ``fsum``s of one
    panel.  :func:`quadrature._integrate_adaptive` must take the same
    panels, with the same nodes wherever a panel's left end is not 0, and
    come within ``DRIVER_TOLERANCE``.  Each panel's 65-point estimate is
    appended to ``estimates``, if given."""
    nodes_hi, weights_hi, weights_lo = quadrature._rules()
    heap = []
    seq = itertools.count()

    def add_panel(a, b):
        mid = 0.5 * (a + b)
        halfwidth = 0.5 * (b - a)
        nodes = mid + halfwidth * nodes_hi
        nodes.clip(a, b, out=nodes)
        values = f(nodes)
        est_hi = halfwidth * float(weights_hi @ values)
        if not math.isfinite(est_hi):
            raise DomainError("the integrand leaves the float range: "
                              f"panel [{a!r}, {b!r}] estimates {est_hi!r}")
        est_lo = halfwidth * float(weights_lo @ values[::2])
        err = max(abs(est_hi - est_lo), 2e-16 * abs(est_hi))
        heapq.heappush(heap, (-err, next(seq), a, b, est_hi, err))
        if estimates is not None:
            estimates.append(est_hi)
        return est_hi, err

    total_v, total_e = add_panel(lo, hi)
    while True:
        capped = len(heap) >= max_panels
        if capped or total_e <= rel_tol * abs(total_v):
            value = math.fsum(panel[4] for panel in heap)
            err = math.fsum(panel[5] for panel in heap)
            converged = err <= rel_tol * abs(value)
            if converged or capped:
                return value, err, len(heap), converged
            total_v, total_e = value, err
        _, _, a, b, v, e = heapq.heappop(heap)
        total_v -= v
        total_e -= e
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            v, e = add_panel(aa, bb)
            total_v += v
            total_e += e


def _both_drivers(g, lo, hi, rel_tol, max_panels, estimates=None):
    """Each driver's ``(value, err, panels, converged)``, or its error's
    type and message, with the node arrays it passed to ``g``; every node
    must lie in [lo, hi].  ``estimates`` collects the reference's panel
    estimates."""
    runs = []
    for driver in (quadrature._integrate_adaptive,
                   functools.partial(reference_integrate_adaptive,
                                     estimates=estimates)):
        seen = []

        def f(x):
            assert lo <= x.min() and x.max() <= hi, (x.min(), x.max())
            seen.append(x)
            return g(x)
        try:
            outcome = driver(f, lo, hi, rel_tol, max_panels)
        except DomainError as exc:
            outcome = (type(exc), str(exc))
        runs.append((outcome, seen))
    return runs


def _assert_drivers_agree(runs, scale=None):
    """The driver's outcome is the reference's: the same error, or the
    same panels and convergence, with value and error estimate within
    ``DRIVER_TOLERANCE`` times ``scale`` (default the reference's
    |value|).  Both evaluate the same panels in the same order, and every
    panel whose left end is not 0 at the same nodes, byte for byte."""
    (got, got_nodes), (ref, ref_nodes) = runs
    if len(ref) == 2:
        assert got == ref
    else:
        assert got[2:] == ref[2:]
        bound = DRIVER_TOLERANCE * (abs(ref[0]) if scale is None else scale)
        assert abs(got[0] - ref[0]) <= bound, (got, ref)
        assert abs(got[1] - ref[1]) <= bound, (got, ref)
    assert len(got_nodes) == len(ref_nodes)
    for x, x_ref in zip(got_nodes, ref_nodes):
        if x_ref.min() == 0.0:
            assert x.min() == 0.0 and x.max() == x_ref.max()
        else:
            assert x.tobytes() == x_ref.tobytes()


def _bit_noise(x):
    """Values from the low bits of each node, which neither rule
    integrates; at rel_tol 0 every panel is split until the cap, down to
    panels of zero width."""
    return (x.view(np.int64) % 7).astype(np.float64)


def _overflows_below_width(width):
    def g(x):
        if x.max() - x.min() < width:
            return np.full_like(x, np.inf)
        return 1.0 / (1e-3 + x)
    return g


MAX_PANELS = quadrature.MAX_PANELS
DRIVER_CASES = {
    "one panel": (lambda x: np.exp(-x * x), 0.0, 1.0, 1e-10, MAX_PANELS),
    "multi-panel": (lambda x: 1.0 / (1e-3 + x), 0.0, 1.0, 1e-12, MAX_PANELS),
    "capped at 1": (lambda x: 1.0 / (1e-3 + x), 0.0, 1.0, 1e-12, 1),
    "capped at 2": (lambda x: 1.0 / (1e-3 + x), 0.0, 1.0, 1e-12, 2),
    "a throat overflows": (lambda x: np.where(x < 1e-300, np.inf, 1.0), 0.0,
                           1.0, 1e-10, MAX_PANELS),
    "overflows in a later panel": (_overflows_below_width(0.3), 0.0, 1.0,
                                   1e-12, MAX_PANELS),
    "odd ends": (lambda x: np.sqrt(np.abs(x)), -0.30000000000000004,
                 0.7000000000000001, 1e-11, MAX_PANELS),
    # From 0 to an end that is no power of 2, as the oracle's [0, L/2]:
    # halfwidth * (1 + c) is not mid + halfwidth * c in the last bits.
    "a half tube": (lambda x: (1e-5 + 0.4 * x) ** -4.0, 0.0, 1.5e-4, 1e-12,
                    MAX_PANELS),
    # mid +- halfwidth inexact: ends one and three floats apart, a width of
    # a few subnormals, from 0 to a subnormal whose half rounds, ends near
    # the largest half tube, and ends whose halfwidth overflows
    "adjacent floats": (_bit_noise, 0.7, math.nextafter(0.7, 1.0), 0.0, 50),
    "three floats apart": (_bit_noise, -1.1, -1.1 + 3 * 2.0**-52, 0.0, 50),
    "subnormal width": (_bit_noise, 7 * 5e-324, 12 * 5e-324, 0.0, 50),
    "from 0 to three subnormals": (_bit_noise, 0.0, 3 * 5e-324, 0.0, 50),
    "near the largest L/2": (_bit_noise, 8.5e307, 8.98846567431158e307,
                             0.0, 50),
    "across the float range": (lambda x: np.exp(-(x / 1e307) ** 2),
                               -1.7976931348623157e308,
                               1.7976931348623157e308, 1e-10, 50),
}


# The integrands that overflow return inf at odd nodes too, where the
# stacked product's 33-point row has a zero weight: numpy warns of the
# 0 * inf, and the driver raises DomainError on the 65-point estimate.
@pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
@pytest.mark.parametrize("g,lo,hi,rel_tol,max_panels",
                         list(DRIVER_CASES.values()), ids=list(DRIVER_CASES))
def test_driver_matches_the_reference_driver_bit_for_bit(g, lo, hi, rel_tol,
                                                         max_panels):
    # Bit for bit in panels, convergence, errors raised and the nodes of
    # every panel whose left end is not 0; within DRIVER_TOLERANCE in value
    # and error estimate.
    _assert_drivers_agree(_both_drivers(g, lo, hi, rel_tol, max_panels))


@pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
def test_driver_cases_cover_every_outcome():
    outcomes = [_both_drivers(*case)[1][0] for case in DRIVER_CASES.values()]
    panels = {o[2] for o in outcomes if len(o) == 4}
    assert 1 in panels and max(panels) > 2
    assert {o[3] for o in outcomes if len(o) == 4} == {True, False}
    assert any(o[0] is DomainError for o in outcomes)
    # Both kinds of node: some panel from 0 whose nodes are not the
    # reference's, and panels clipped to their ends.
    (_, got), (_, ref) = _both_drivers(*DRIVER_CASES["a half tube"])
    assert any(x.tobytes() != x_ref.tobytes() for x, x_ref in zip(got, ref))


def test_the_stacked_weights_are_the_two_rules():
    nodes, weights_hi, weights_lo = quadrature._rules()
    panel_nodes, shifted, weights = quadrature._panel_rule()
    assert panel_nodes is nodes
    assert shifted.tobytes() == (1.0 + nodes).tobytes()
    assert weights.shape == (2, 65)
    assert weights[0].tobytes() == weights_hi.tobytes()
    assert weights[1, ::2].tobytes() == weights_lo.tobytes()
    assert not weights[1, 1::2].any()


def test_a_panel_whose_ends_round_back_needs_no_clip():
    # When mid - halfwidth and mid + halfwidth round to the ends, every
    # node mid + halfwidth * c, |c| <= 1, lies between them.  A panel from
    # 0 has mid == halfwidth, and its nodes halfwidth * (1 + c) lie in [0,
    # 2 * halfwidth]: the first panel [0, L/2] of every tube needs no clip
    # unless L/2 is a subnormal whose half rounds.  The driver cases above
    # have panels of every kind.
    nodes_hi, shifted, _ = quadrature._panel_rule()
    from_zero = []
    for hi in [0.5 * length for length in (1.0, 3e-4, 1e-300, 1.7e308,
                                           5e-324)] + [3 * 5e-324]:
        halfwidth = 0.5 * hi
        assert 0.5 * (0.0 + hi) == halfwidth
        from_zero.append(2.0 * halfwidth == hi)
        if from_zero[-1]:
            nodes = halfwidth * shifted
            assert 0.0 <= nodes.min() and nodes.max() <= hi
    assert from_zero == [True] * 5 + [False]
    exact = []
    for lo, hi in [(0.5, 1.0), (0.7, math.nextafter(0.7, 1.0)),
                   (-1.1, -1.1 + 3 * 2.0**-52), (7 * 5e-324, 12 * 5e-324),
                   (1.6e308, 1.7976931348623157e308),
                   (-0.30000000000000004, 0.7000000000000001)]:
        mid, halfwidth = 0.5 * (lo + hi), 0.5 * (hi - lo)
        exact.append(mid - halfwidth == lo and mid + halfwidth == hi)
        if exact[-1]:
            nodes = mid + halfwidth * nodes_hi
            assert lo <= nodes.min() and nodes.max() <= hi
    assert True in exact and False in exact


def test_the_running_totals_reset_when_the_exact_sums_refuse():
    # The first split leaves [0, 1/2] with an error near 1e19 and a value
    # near 0, and [1/2, 1] with an error of 0.5.  Their running sum drops
    # the 0.5, so once [0, 1/2] is split into two exact panels the running
    # error claims convergence.  The fsums refuse it, the totals are reset
    # to them, and [1/2, 1] is split next.
    weights_hi = quadrature._rules()[1]
    even = np.arange(65) % 2 == 0
    balance = math.fsum(weights_hi[even]) / math.fsum(weights_hi[~even])

    def cancelling(size):
        # 65-point estimate near 0, 33-point estimate 2 * size * halfwidth
        return np.where(even, size, -size * balance)

    panels = []

    def g(x):
        a, b = float(x.min()), float(x.max())
        panels.append((a, b))
        if (a, b) == (0.0, 1.0):
            return cancelling(1.0)
        if (a, b) == (0.0, 0.5):
            return cancelling(1e20)
        if (a, b) == (0.5, 1.0):
            return 1.0 + cancelling(1.0)
        return np.ones_like(x)

    lines = set()
    code = quadrature._integrate_adaptive.__code__

    def trace(frame, event, arg):
        if frame.f_code is code:
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return None

    estimates = []
    sys.settrace(trace)
    try:
        runs = _both_drivers(g, 0.0, 1.0, 1e-10, MAX_PANELS, estimates)
    finally:
        sys.settrace(None)
    # A cancelling panel's estimate is noise on the scale of its values,
    # so the tolerance is taken on the sum of the reference's |estimates|.
    _assert_drivers_agree(runs, math.fsum(abs(v) for v in estimates))
    assert runs[0][0][2:] == (4, True)
    assert panels[:7] == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.25),
                          (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
    source, first = inspect.getsourcelines(code)
    reset = first + next(i for i, line in enumerate(source)
                         if "total_v, total_e = value, err" in line)
    assert reset in lines


# ---------------------------------------------------------------------------
# the two oracle entry points, and the panel cap's range
# ---------------------------------------------------------------------------

def _bits(result):
    return (result.value.hex(), result.error_estimate.hex(),
            result.subdivisions)


@pytest.mark.parametrize("shape", list(TubeShape))
def test_pressure_drop_numeric_is_the_oracle_bit_for_bit(shape):
    fluid = PowerLawFluid(1.7, 0.6)
    spec = TubeSpec(shape, 1e-5, 4.2e-5, 3e-4)
    oracle = quadrature.pressure_drop_oracle(fluid, spec, 1e-12)
    for q in (1e-13, 2.5e-10, 7.0):
        assert (_bits(pressure_drop_numeric(fluid, spec, q, 1e-12))
                == _bits(oracle(q)))
    # Both directions of a validated solve carry that oracle's P.
    forward = flow_module.pressure_drop(fluid, spec, 2.5e-10, validate=True,
                                        oracle_rel_tol=1e-12)
    inverse = flow_module.flow_rate(fluid, spec, forward.pressure_drop,
                                    validate=True, oracle_rel_tol=1e-12)
    assert forward.oracle_value.hex() == oracle(2.5e-10).value.hex()
    assert inverse.oracle_value.hex() == oracle(inverse.flow_rate).value.hex()


def test_both_oracle_entry_points_keep_zero_and_refuse_bad_flow_rates():
    fluid = PowerLawFluid(1.0, 0.8)
    spec = TubeSpec(TubeShape.PARABOLIC, 1.0, 2.0, 1.0)
    oracle = quadrature.pressure_drop_oracle(fluid, spec)
    for at in (oracle, functools.partial(pressure_drop_numeric, fluid, spec)):
        zero = at(0.0)
        assert (zero.value, zero.error_estimate, zero.subdivisions) == (
            0.0, 0.0, 0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="flow_rate"):
                at(bad)


@pytest.mark.parametrize("max_panels", [0, -5, 0.5, math.nan])
def test_a_panel_cap_below_one_is_a_domain_error(max_panels):
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    message = r"^max_panels must be at least 1, got "
    with pytest.raises(DomainError, match=message):
        integrate_inverse_radius_power(spec, 4.0, 1e-14,
                                       max_panels=max_panels)
    with pytest.raises(DomainError, match=message):
        pressure_drop_numeric(PowerLawFluid(1.0, 1.0), spec, 1.0,
                              max_panels=max_panels)


# ---------------------------------------------------------------------------
# a throat whose r_min^-exponent leaves the normal float range
# ---------------------------------------------------------------------------

# (shape, n, r_min, length) with r_max = 1.5 r_min.  At a 1 nm throat
# r_min^-(3n+1) overflows while the integral over L = 1 pm does not; at
# r_min = 1e10 or 1e11 and L = 1e300 it is subnormal or 0 while the
# integral is not.
THROAT_POWER_OUTSIDE_THE_NORMAL_RANGE = {
    f"{shape.value} n={n} at 1 nm": (shape, n, 1e-9, 1e-12)
    for shape in (TubeShape.CONIC, TubeShape.PARABOLIC,
                  TubeShape.HYPERBOLIC, TubeShape.COSH)
    for n in (11.3, 11.45)
} | {
    "conic n=9.5 at 1e11 m": (TubeShape.CONIC, 9.5, 1e11, 1e300),
    "conic n=9.8 at 1e11 m": (TubeShape.CONIC, 9.8, 1e11, 1e300),
    "conic n=12 at 1e10 m": (TubeShape.CONIC, 12.0, 1e10, 1e300),
}


@pytest.mark.parametrize(
    "shape,n,r_min,length", list(THROAT_POWER_OUTSIDE_THE_NORMAL_RANGE.values()),
    ids=list(THROAT_POWER_OUTSIDE_THE_NORMAL_RANGE))
def test_the_oracle_where_the_throat_power_leaves_the_normal_range(
        shape, n, r_min, length):
    spec = TubeSpec(shape, r_min, 1.5 * r_min, length)
    exponent = 3.0 * n + 1.0
    with mpmath.workdps(40):
        peak = mpmath.mpf(r_min) ** -exponent
        ref = float(mpmath.mpf(_mpmath_unit_tube_integral(shape, 1.5,
                                                          exponent))
                    * length * peak)
    assert 1e-80 < ref < math.inf
    assert not sys.float_info.min <= peak <= sys.float_info.max
    res = integrate_inverse_radius_power(spec, exponent, rel_tol=1e-13)
    assert abs(res.value - ref) <= 1e-13 * ref
    # A validated solve there meets validate's tolerance.
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = PowerLawFluid(1.0, n)
    result = flow_module.pressure_drop(fluid, spec, 1.0, validate=True)
    assert result.method == "analytic"
    assert result.rel_error <= 1e-8


def test_the_scaled_tube_gives_the_integral_of_the_tube(monkeypatch):
    # Forced onto every tube, the scaled path agrees with the direct one.
    specs = [TubeSpec(shape, 3e-5, r_max, 4e-4) for shape in TubeShape
             for r_max in (3e-5, 3.0000000001e-5, 7e-5, 0.3)]
    direct = [integrate_inverse_radius_power(spec, 3.1, 1e-12)
              for spec in specs]
    monkeypatch.setattr(geometry, "_throat_power", lambda *args: None)
    for spec, res in zip(specs, direct):
        scaled = integrate_inverse_radius_power(spec, 3.1, 1e-12)
        assert abs(scaled.value - res.value) <= 1e-12 * res.value, spec


def test_a_throat_power_in_the_normal_range_is_not_scaled(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tube was scaled")
    monkeypatch.setattr(quadrature, "_unit_throat", refuse)
    for shape in TubeShape:
        # r_min^-exponent is 6.4e306 and 1e-307.
        for r_min, exponent in ((1e-9, 34.15), (1e10, 30.7)):
            spec = TubeSpec(shape, r_min, 1.5 * r_min, 1e-12 * r_min**2)
            integrate_inverse_radius_power(spec, exponent)


def test_a_scaled_tube_outside_the_float_range_names_the_tube():
    # (2/L)^2 underflows at L = 1e300, in the scaled tube as in the tube.
    spec = TubeSpec(TubeShape.PARABOLIC, 1e10, 1.5e10, 1e300)
    message = (r"^the parabolic profile, its radii divided by r_min, is "
               r"outside the float range \(r_min=10000000000\.0, "
               r"r_max=15000000000\.0, length=1e\+300\)$")
    with pytest.raises(DomainError, match=message):
        integrate_inverse_radius_power(spec, 31.0)


@pytest.mark.parametrize("r_max", [2e-300, 1e300])
def test_a_throat_power_that_cannot_be_scaled_out_is_a_domain_error(r_max):
    # r_min^(-exponent/2) = 1e450 overflows, or r_max / r_min does.
    exponent = 3.0 if r_max < 1.0 else 1.5
    spec = TubeSpec(TubeShape.CONIC, 1e-300, r_max, 1.0)
    with pytest.raises(DomainError, match=r"^the integrand leaves the float "
                       r"range: r_min \*\* -exponent cannot be scaled out"):
        integrate_inverse_radius_power(spec, exponent)
