import functools
import heapq
import itertools
import math

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
from cdtube import quadrature
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

def reference_integrate_adaptive(f, lo, hi, rel_tol, max_panels):
    """The driver as it stood with every panel on the heap, every panel's
    nodes clipped, ``@`` products and the closing ``fsum``s of one panel;
    :func:`quadrature._integrate_adaptive` must reproduce it bit for bit."""
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


def _both_drivers(g, lo, hi, rel_tol, max_panels):
    """Each driver's result, or its error's type and message, with the
    node arrays it passed to ``g``; every node must lie in [lo, hi]."""
    runs = []
    for driver in (quadrature._integrate_adaptive,
                   reference_integrate_adaptive):
        seen = []

        def f(x):
            assert lo <= x.min() and x.max() <= hi, (x.min(), x.max())
            seen.append(x.tobytes())
            return g(x)
        try:
            value, err, panels, ok = driver(f, lo, hi, rel_tol, max_panels)
            outcome = (value.hex(), err.hex(), panels, ok)
        except DomainError as exc:
            outcome = (type(exc), str(exc))
        runs.append((outcome, seen))
    return runs


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
    # mid +- halfwidth inexact: ends one and three floats apart, a width of
    # a few subnormals, ends near the largest half tube, and ends whose
    # halfwidth overflows
    "adjacent floats": (_bit_noise, 0.7, math.nextafter(0.7, 1.0), 0.0, 50),
    "three floats apart": (_bit_noise, -1.1, -1.1 + 3 * 2.0**-52, 0.0, 50),
    "subnormal width": (_bit_noise, 7 * 5e-324, 12 * 5e-324, 0.0, 50),
    "near the largest L/2": (_bit_noise, 8.5e307, 8.98846567431158e307,
                             0.0, 50),
    "across the float range": (lambda x: np.exp(-(x / 1e307) ** 2),
                               -1.7976931348623157e308,
                               1.7976931348623157e308, 1e-10, 50),
}


@pytest.mark.parametrize("g,lo,hi,rel_tol,max_panels",
                         list(DRIVER_CASES.values()), ids=list(DRIVER_CASES))
def test_driver_matches_the_reference_driver_bit_for_bit(g, lo, hi, rel_tol,
                                                         max_panels):
    (got, got_nodes), (ref, ref_nodes) = _both_drivers(g, lo, hi, rel_tol,
                                                       max_panels)
    assert got == ref
    assert got_nodes == ref_nodes


def test_driver_cases_cover_every_outcome():
    outcomes = [_both_drivers(*case)[1][0] for case in DRIVER_CASES.values()]
    panels = {o[2] for o in outcomes if len(o) == 4}
    assert 1 in panels and max(panels) > 2
    assert {o[3] for o in outcomes if len(o) == 4} == {True, False}
    assert any(o[0] is DomainError for o in outcomes)


def test_a_panel_whose_ends_round_back_needs_no_clip():
    # When mid - halfwidth and mid + halfwidth round to the ends, every
    # node mid + halfwidth * c, |c| <= 1, lies between them.  The first
    # panel [0, L/2] of every tube is one; the driver cases above have
    # panels of both kinds.
    nodes_hi = quadrature._rules()[0]
    exact = []
    for lo, hi in [(0.0, 0.5 * length) for length in (1.0, 3e-4, 1e-300,
                                                      1.7e308, 5e-324)] + [
            (0.7, math.nextafter(0.7, 1.0)), (-1.1, -1.1 + 3 * 2.0**-52),
            (7 * 5e-324, 12 * 5e-324), (1.6e308, 1.7976931348623157e308),
            (-0.30000000000000004, 0.7000000000000001)]:
        mid, halfwidth = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if mid - halfwidth == lo and mid + halfwidth == hi:
            nodes = mid + halfwidth * nodes_hi
            assert lo <= nodes.min() and nodes.max() <= hi
            exact.append(lo == 0.0)
        else:
            exact.append(None)
    assert exact[:5] == [True] * 5
    assert None in exact[5:]


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

    (got, _), (ref, _) = _both_drivers(g, 0.0, 1.0, 1e-10, MAX_PANELS)
    assert got == ref
    assert got[2:] == (4, True)
    assert panels[:7] == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.0, 0.25),
                          (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]


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
