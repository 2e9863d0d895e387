import math

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
    assert res.value == pytest.approx(3.0 / 2.0**4, rel=1e-13)
    assert res.converged
    assert res.subdivisions == 1


@pytest.mark.parametrize("exponent", [1.6, 2.0, 3.1, 4.0, 6.0, 7.0])
def test_conic_elementary_antiderivative(exponent):
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    exact = conic_integral_exact(0.5, 1.0, 1.0, exponent)
    res = integrate_inverse_radius_power(spec, exponent, rel_tol=1e-12)
    assert res.value == pytest.approx(exact, rel=1e-12)
    # tolerance honesty: the reported estimate bounds the true error
    assert abs(res.value - exact) <= res.error_estimate + 8 * EPS * abs(exact)


def test_conic_exponent_four_spot_value():
    # integral of (0.5 + |x|)^-4 over [-1/2, 1/2] = 2/3 * (8 - 1) = 14/3
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    res = integrate_inverse_radius_power(spec, 4.0, rel_tol=1e-12)
    assert res.value == pytest.approx(14.0 / 3.0, rel=1e-12)


def test_hyperbolic_arctan_case():
    spec = TubeSpec(TubeShape.HYPERBOLIC, 1.0, 2.0, 1.0)
    exact = hyperbolic_arctan_exact(1.0, 2.0, 1.0)
    assert exact == pytest.approx(0.6045997880780726, rel=1e-14)
    res = integrate_inverse_radius_power(spec, 2.0, rel_tol=1e-12)
    assert res.value == pytest.approx(exact, rel=1e-12)
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
    assert not best.converged
    assert best.subdivisions == 1
    exact = pressure_drop_numeric(
        PowerLawFluid(1.0, 1.0), spec, 1.0, rel_tol=1e-12
    ).value / master_prefactor(PowerLawFluid(1.0, 1.0), 1.0)
    # the best estimate is in the right ballpark even when unconverged
    assert best.value == pytest.approx(exact, rel=0.2)


def test_pressure_drop_numeric_zero_flow():
    fluid = PowerLawFluid(2.0, 0.7)
    spec = TubeSpec(TubeShape.COSH, 1.0, 3.0, 2.0)
    res = pressure_drop_numeric(fluid, spec, 0.0)
    assert res.value == 0.0
    assert res.converged


def test_pressure_drop_numeric_conic_spot():
    # prefactor 8/pi times the elementary 14/3
    fluid = PowerLawFluid(1.0, 1.0)
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    res = pressure_drop_numeric(fluid, spec, 1.0, rel_tol=1e-12)
    assert res.value == pytest.approx(8.0 / math.pi * 14.0 / 3.0, rel=1e-12)
    assert res.value == pytest.approx(56.0 / (1.5 * math.pi), rel=1e-12)


def test_converged_result_meets_contract():
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 4.0, 2.0)
    res = integrate_inverse_radius_power(spec, 5.8, rel_tol=1e-9)
    assert res.converged
    assert res.error_estimate <= 1e-9 * abs(res.value)
