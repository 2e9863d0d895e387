import functools
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
