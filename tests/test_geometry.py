import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdtube import (
    DomainError,
    TubeShape,
    TubeSpec,
    coefficients,
    radius_at,
    radius_profile,
    sample_profile,
)

ALL_SHAPES = list(TubeShape)


def spec_of(shape, r_min=1.0, r_max=2.0, length=1.0):
    return TubeSpec(shape, r_min, r_max, length)


def test_conic_coefficients():
    coef = coefficients(spec_of(TubeShape.CONIC, 0.5, 1.0, 1.0))
    assert coef.a == 0.5
    assert coef.b == 1.0
    assert coef.k is None


def test_sinusoidal_coefficients():
    coef = coefficients(spec_of(TubeShape.SINUSOIDAL, 1.0, 3.0, 2.0 * math.pi))
    assert coef.a == 2.0
    assert coef.b == 1.0
    assert coef.k == pytest.approx(1.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("r_max", [1.5, 1e8, 1e12])
def test_sinusoid_throat_radius_is_exact(r_max):
    spec = spec_of(TubeShape.SINUSOIDAL, 0.7, r_max, 1.7)
    assert radius_at(spec, 0.0) == 0.7


def test_cosh_coefficients_closed_form():
    coef = coefficients(spec_of(TubeShape.COSH, 1.0, 2.0, 2.0))
    assert coef.a == 1.0
    # arccosh(2) = ln(2 + sqrt(3))
    assert coef.b == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-14,
                                   abs=0.0)


def test_parabolic_hand_evaluation():
    spec = spec_of(TubeShape.PARABOLIC, 0.5, 1.0, 1.0)
    assert radius_at(spec, 0.25) == pytest.approx(0.625, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_endpoint_and_midpoint_identities(shape):
    spec = spec_of(shape, 0.7, 2.3, 1.7)
    assert radius_at(spec, 0.0) == pytest.approx(0.7, rel=1e-12, abs=0.0)
    half = spec.length / 2.0
    assert radius_at(spec, half) == pytest.approx(2.3, rel=1e-12, abs=0.0)
    assert radius_at(spec, -half) == pytest.approx(2.3, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@given(frac=st.floats(min_value=0.0, max_value=1.0))
def test_evenness_exact(shape, frac):
    spec = spec_of(shape, 0.5, 1.5, 2.0)
    x = frac * spec.length / 2.0
    assert radius_at(spec, x) == radius_at(spec, -x)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@given(frac=st.floats(min_value=-1.0, max_value=1.0))
def test_bounds(shape, frac):
    spec = spec_of(shape, 0.5, 4.0, 3.0)
    r = radius_at(spec, frac * spec.length / 2.0)
    assert 0.5 <= r <= 4.0 * (1.0 + 1e-15)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_monotone_on_each_half(shape):
    spec = spec_of(shape, 0.5, 4.0, 3.0)
    xs = np.linspace(0.0, spec.length / 2.0, 200)
    rs = radius_profile(spec, xs)
    assert np.all(np.diff(rs) >= -1e-15)


def test_sinusoid_spans_one_period():
    spec = spec_of(TubeShape.SINUSOIDAL, 1.0, 3.0, 2.0)
    half = spec.length / 2.0
    assert radius_at(spec, -half) == radius_at(spec, half)
    # midline crossings at the quarter points of the wavelength
    assert radius_at(spec, half / 2.0) == pytest.approx(2.0, rel=1e-14,
                                                        abs=0.0)
    assert radius_at(spec, -half / 2.0) == pytest.approx(2.0, rel=1e-14,
                                                         abs=0.0)


def test_profile_sampling_matches_quarter_period_points():
    spec = spec_of(TubeShape.SINUSOIDAL, 1.0, 3.0, 2.0 * math.pi)
    xs, rs = sample_profile(spec, 5)
    assert xs == pytest.approx([-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi])
    assert rs == pytest.approx([3.0, 2.0, 1.0, 2.0, 3.0], rel=1e-12, abs=0.0)


def test_a_profile_of_one_sample_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^samples must be >= 2, got 1$"):
        sample_profile(spec_of(TubeShape.CONIC), 1)


def test_domain_error_outside_tube():
    spec = spec_of(TubeShape.CONIC)
    with pytest.raises(DomainError):
        radius_at(spec, 0.51)
    with pytest.raises(DomainError):
        radius_profile(spec, np.array([0.0, -0.7]))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_a_position_that_is_not_finite_is_a_domain_error(x):
    # NaN fails no ``>`` comparison, so it once passed the domain check and
    # gave a NaN radius.
    spec = spec_of(TubeShape.CONIC)
    with pytest.raises(DomainError):
        radius_at(spec, x)
    with pytest.raises(DomainError):
        radius_profile(spec, np.array([0.0, x, 0.5]))


def test_spec_invariants():
    with pytest.raises(DomainError):
        TubeSpec(TubeShape.CONIC, -1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        TubeSpec(TubeShape.CONIC, 2.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        TubeSpec(TubeShape.CONIC, 1.0, 2.0, 0.0)


@pytest.mark.parametrize("shape", ["bogus", "", "CONIC", 1, None,
                                   ["conic"]])
def test_spec_rejects_an_unknown_shape(shape):
    # With equal radii the solver never reads the shape, so only the
    # constructor can reject it.
    with pytest.raises(DomainError, match="shape must be a TubeShape"):
        TubeSpec(shape, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_spec_coerces_a_shape_value_string(shape):
    spec = TubeSpec(shape.value, 1.0, 2.0, 1.0)
    assert spec.shape is shape
    assert spec == TubeSpec(shape, 1.0, 2.0, 1.0)
    # and is solved as that shape, not rejected at solve time
    assert coefficients(spec) == coefficients(spec_of(shape))


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_degenerate_equal_radii_is_straight(shape):
    spec = spec_of(shape, 1.3, 1.3, 2.0)
    assert spec.is_straight
    coef = coefficients(spec)
    assert coef.b == 0.0
    xs = np.linspace(-1.0, 1.0, 7)
    assert radius_profile(spec, xs) == pytest.approx([1.3] * 7, rel=1e-15,
                                                     abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_extreme_profiles_are_finite_or_a_domain_error(shape,
                                                       extreme_geometries):
    # Before, 214 of these 780 specs sampled inf or nan radii and 142
    # raised OverflowError.
    raised = 0
    for r_min, r_max, length in extreme_geometries:
        spec = TubeSpec(shape, r_min, r_max, length)
        try:
            _, radii = sample_profile(spec, 11)
        except DomainError as exc:
            assert not spec.is_straight, spec
            assert f"the {shape.value} profile is outside the float range" \
                in str(exc)
            raised += 1
        else:
            assert np.all(np.isfinite(radii)), spec
    assert 0 < raised < len(extreme_geometries)


@pytest.mark.parametrize("shape,r_max,length", [
    (TubeShape.PARABOLIC, 2.0, 1e-300),    # (2/L)^2
    (TubeShape.HYPERBOLIC, 2.0, 1e-300),   # (2/L)^2
    (TubeShape.HYPERBOLIC, 1e200, 1.0),    # r_max^2
])
def test_coefficients_past_the_float_range_are_inf(shape, r_max, length):
    # ``**`` raises OverflowError where the coefficient is merely inf.
    coef = coefficients(TubeSpec(shape, 1.0, r_max, length))
    assert coef.b == math.inf
    with pytest.raises(DomainError, match=f"the {shape.value} profile"):
        radius_at(TubeSpec(shape, 1.0, r_max, length), 0.0)


@pytest.mark.parametrize("r_max", [0.7, 2.3], ids=["straight", "contrast"])
@pytest.mark.parametrize("shape", ALL_SHAPES)
@given(frac=st.floats(min_value=-1.0, max_value=1.0))
def test_radius_at_is_radius_profile_bit_for_bit(shape, r_max, frac):
    spec = spec_of(shape, 0.7, r_max, 1.7)
    x = frac * spec.length / 2.0
    assert radius_at(spec, x).hex() == float(radius_profile(spec, [x])[0]).hex()


# Specs whose coefficients underflow: a square of 2/L, or a coefficient,
# below the normal range.  Each sampled a finite but wrong profile.
UNDERFLOW_GEOMETRIES = [(1.0, 2.0, length) for length in
                        (1e150, 1.3e154, 2e154, 1e155, 1e160, 1e200, 1e300)]
UNDERFLOW_GEOMETRIES += [(1e-160, r_max, length)
                         for r_max in (1.797e308, 1e10, 1.0)
                         for length in (1e-3, 1.0, 1e300)]
UNDERFLOW_GEOMETRIES += [(1.0, 1e300, 1e160), (1.0, 1e10, 1e160),
                         (1e-300, 2e-300, 1e10), (1e-300, 2e-300, 1e20)]


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_a_sampled_profile_runs_from_r_min_to_r_max(shape, extreme_geometries):
    # A profile either raises DomainError or has r(0) = r_min exactly and
    # r(+-L/2) within 1e-12 of r_max.  Before, the parabolic (1, 2, 1e200)
    # was flat at r = 1 and the hyperbolic throat at r_min = 1e-300 was 0.
    sampled = 0
    for geometry in extreme_geometries + UNDERFLOW_GEOMETRIES:
        spec = TubeSpec(shape, *geometry)
        if spec.is_straight:
            continue
        try:
            _, radii = sample_profile(spec, 11)
        except DomainError as exc:
            assert f"the {shape.value} profile is outside the float range" \
                in str(exc)
            continue
        assert np.all(np.isfinite(radii)), spec
        assert radius_at(spec, 0.0) == spec.r_min, spec
        for end in (-0.5 * spec.length, 0.5 * spec.length):
            assert radius_at(spec, end) == pytest.approx(
                spec.r_max, rel=1e-12, abs=0.0), spec
        sampled += 1
    assert sampled > 0


@pytest.mark.parametrize("shape,r_min,r_max,length", [
    (TubeShape.PARABOLIC, 1.0, 2.0, 1e200),    # (2/L)^2 underflows to 0
    (TubeShape.PARABOLIC, 1.0, 1e300, 1e160),  # (2/L)^2 subnormal, b normal
    (TubeShape.HYPERBOLIC, 1e-200, 1.0, 1.0),  # r_min^2 underflows to 0
    (TubeShape.CONIC, 1e-300, 2e-300, 1e20),   # b subnormal
])
def test_an_underflowing_coefficient_is_a_domain_error(shape, r_min, r_max,
                                                       length):
    spec = TubeSpec(shape, r_min, r_max, length)
    with pytest.raises(DomainError, match=f"the {shape.value} profile"):
        sample_profile(spec, 11)


def test_a_long_conic_tube_with_a_huge_contrast_samples_its_radii():
    # 2 * dr overflowed although b = 2 dr / L is 3.6e8.
    spec = TubeSpec(TubeShape.CONIC, 1.0, 1.797e308, 1e300)
    _, radii = sample_profile(spec, 101)
    assert np.all(np.isfinite(radii))
    assert radii[50] == 1.0
    assert radii[0] == radii[-1] == pytest.approx(1.797e308, rel=1e-12,
                                                  abs=0.0)
