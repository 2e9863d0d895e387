import math
import warnings

import pytest
from hypothesis import given, strategies as st

from cdtube import (
    DomainError,
    PowerLawFluid,
    TubeShape,
    TubeSpec,
    apparent_viscosity,
    pressure_drop,
    pressure_drop_numeric,
    straight_tube_conductance,
    straight_tube_flow_rate,
    straight_tube_pressure_drop,
)


def test_newtonian_viscosity_is_consistency():
    fluid = PowerLawFluid(consistency=1.0, index=1.0)
    assert apparent_viscosity(fluid, 37.2) == 1.0


def test_viscosity_forced_value():
    fluid = PowerLawFluid(consistency=2.0, index=0.5)
    assert apparent_viscosity(fluid, 4.0) == pytest.approx(1.0, rel=1e-15,
                                                           abs=0.0)


def test_viscosity_direct_power():
    fluid = PowerLawFluid(consistency=1.5, index=0.7)
    expected = 1.5 * 10.0 ** (0.7 - 1.0)
    assert apparent_viscosity(fluid, 10.0) == pytest.approx(expected, rel=1e-15,
                                                            abs=0.0)


def test_viscosity_loglog_slope_is_index_minus_one():
    # Two-point finite difference of ln(mu) against ln(rate).
    fluid = PowerLawFluid(consistency=1.5, index=0.7)
    r1, r2 = 10.0, 10.0 * (1.0 + 1e-6)
    slope = (
        math.log(apparent_viscosity(fluid, r2))
        - math.log(apparent_viscosity(fluid, r1))
    ) / (math.log(r2) - math.log(r1))
    assert slope == pytest.approx(fluid.index - 1.0, abs=1e-9)


def test_viscosity_rejects_nonpositive_strain_rate():
    fluid = PowerLawFluid(consistency=1.0, index=0.5)
    with pytest.raises(DomainError):
        apparent_viscosity(fluid, 0.0)
    with pytest.raises(DomainError):
        apparent_viscosity(fluid, -1.0)


def test_fluid_invariants():
    with pytest.raises(DomainError):
        PowerLawFluid(consistency=0.0, index=1.0)
    with pytest.raises(DomainError):
        PowerLawFluid(consistency=1.0, index=-0.5)


def test_index_outside_guaranteed_range_warns_but_computes():
    with pytest.warns(UserWarning):
        fluid = PowerLawFluid(consistency=1.0, index=3.0)
    assert apparent_viscosity(fluid, 2.0) == pytest.approx(4.0)


def test_range_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="guaranteed-accuracy") as record:
        PowerLawFluid(consistency=1.0, index=0.1)
    (warning,) = record
    assert warning.filename == __file__


def test_hagen_poiseuille_reduction():
    fluid = PowerLawFluid(consistency=1.0, index=1.0)
    p = straight_tube_pressure_drop(fluid, 1.0, 1.0, math.pi / 8.0)
    assert p == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_zero_flow_zero_pressure():
    fluid = PowerLawFluid(consistency=3.0, index=0.8)
    assert straight_tube_pressure_drop(fluid, 0.3, 2.0, 0.0) == 0.0
    assert straight_tube_flow_rate(fluid, 0.3, 2.0, 0.0) == 0.0


def test_straight_tube_rejects_negative_and_non_finite_inputs():
    fluid = PowerLawFluid(consistency=1.0, index=0.8)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            straight_tube_pressure_drop(fluid, 0.3, 2.0, bad)
        with pytest.raises(DomainError):
            straight_tube_flow_rate(fluid, 0.3, 2.0, bad)


NEWTONIAN = PowerLawFluid(consistency=1.0, index=1.0)


def _unvalidated(consistency, index):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return PowerLawFluid(consistency, index)


@pytest.mark.parametrize("call", [
    # (3n + 1)^n raises OverflowError
    lambda: straight_tube_conductance(_unvalidated(1.0, 150.0), 1.0, 1.0),
    # radius^(3n + 1) underflows to zero
    lambda: straight_tube_conductance(NEWTONIAN, 1e-300, 1.0),
    # a radius or length that is not finite: K would be 0 or inf
    lambda: straight_tube_conductance(NEWTONIAN, math.inf, 1.0),
    lambda: straight_tube_conductance(NEWTONIAN, 1.0, math.inf),
    lambda: straight_tube_flow_rate(NEWTONIAN, math.inf, 1.0, 1.0),
    # Q^n raises OverflowError
    lambda: straight_tube_pressure_drop(PowerLawFluid(1.0, 2.0), 1.0, 1.0,
                                        1e300),
    # P / K is inf
    lambda: straight_tube_flow_rate(NEWTONIAN, 1e-3, 1e-300, 1e300),
], ids=["index", "radius-underflow", "radius-inf", "length-inf",
        "flow-rate-radius-inf", "pressure-drop-overflow",
        "flow-rate-overflow"])
def test_straight_tube_out_of_range_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_straight_tube_overflow_matches_the_general_path():
    fluid = PowerLawFluid(1.0, 2.0)
    spec = TubeSpec(TubeShape.CONIC, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError) as general:
        pressure_drop(fluid, spec, 1e300)
    with pytest.raises(DomainError) as straight:
        straight_tube_pressure_drop(fluid, 1.0, 1.0, 1e300)
    assert str(straight.value) == str(general.value)


def test_straight_tube_derived_value_and_quadrature_cross_check():
    # Independent evaluation of the closed form ...
    fluid = PowerLawFluid(consistency=1.0, index=0.5)
    expected = (2.0 * 1.0 * 2.5**0.5 * 2.0
                / (math.pi**0.5 * 0.5**0.5 * 1.0 ** (3 * 0.5 + 1)))
    p = straight_tube_pressure_drop(fluid, 1.0, 2.0, 1.0)
    assert p == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert p == pytest.approx(5.046265044040321, rel=1e-12, abs=0.0)
    # ... and of the quadrature oracle on a constant-radius profile.
    spec = TubeSpec(TubeShape.CONIC, 1.0, 1.0, 2.0)
    oracle = pressure_drop_numeric(fluid, spec, 1.0, rel_tol=1e-12)
    assert p == pytest.approx(oracle.value, rel=1e-12, abs=0.0)


def test_round_trip_derived_example():
    fluid = PowerLawFluid(consistency=1.0, index=0.5)
    p = straight_tube_pressure_drop(fluid, 1.0, 2.0, 1.0)
    assert straight_tube_flow_rate(fluid, 1.0, 2.0, p) == pytest.approx(1.0, rel=1e-12,
                                                                        abs=0.0)


def test_newtonian_inverse():
    fluid = PowerLawFluid(consistency=1.0, index=1.0)
    q = straight_tube_flow_rate(fluid, 1.0, 1.0, 1.0)
    assert q == pytest.approx(math.pi / 8.0, rel=1e-12, abs=0.0)


@given(
    q=st.floats(min_value=1e-9, max_value=1e3),
    n=st.floats(min_value=0.2, max_value=2.0),
    c=st.floats(min_value=1e-3, max_value=1e3),
    radius=st.floats(min_value=1e-3, max_value=10.0),
    length=st.floats(min_value=1e-3, max_value=100.0),
)
def test_round_trip_property(q, n, c, radius, length):
    fluid = PowerLawFluid(consistency=c, index=n)
    p = straight_tube_pressure_drop(fluid, radius, length, q)
    back = straight_tube_flow_rate(fluid, radius, length, p)
    assert back == pytest.approx(q, rel=1e-12, abs=0.0)


@given(
    q=st.floats(min_value=1e-6, max_value=1e3),
    n=st.floats(min_value=0.2, max_value=2.0),
    alpha=st.sampled_from([0.5, 2.0, 10.0]),
)
def test_homogeneity_property(q, n, alpha):
    fluid = PowerLawFluid(consistency=2.0, index=n)
    p1 = straight_tube_pressure_drop(fluid, 0.7, 3.0, q)
    p2 = straight_tube_pressure_drop(fluid, 0.7, 3.0, alpha * q)
    assert p2 == pytest.approx(alpha**n * p1, rel=1e-12, abs=0.0)


@given(
    q=st.floats(min_value=1e-6, max_value=1e3),
    n=st.floats(min_value=0.2, max_value=2.0),
)
def test_linearity_in_consistency_and_length(q, n):
    base = straight_tube_pressure_drop(PowerLawFluid(1.5, n), 0.7, 3.0, q)
    doubled_c = straight_tube_pressure_drop(PowerLawFluid(3.0, n), 0.7, 3.0, q)
    doubled_l = straight_tube_pressure_drop(PowerLawFluid(1.5, n), 0.7, 6.0, q)
    assert doubled_c == 2.0 * base
    assert doubled_l == 2.0 * base


@pytest.mark.parametrize("consistency,index,strain_rate", [
    (1.0, 300.0, 1e3),    # rate^(n-1) raises OverflowError
    (1e300, 2.0, 1e10),   # C * rate^(n-1) is inf
    (1e300, 0.5, 1e-20),  # rate^(n-1) grows as the rate falls for n < 1
])
def test_viscosity_past_the_float_range_is_a_domain_error(consistency, index,
                                                         strain_rate):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fluid = PowerLawFluid(consistency=consistency, index=index)
    with pytest.raises(DomainError, match="outside the float range"):
        apparent_viscosity(fluid, strain_rate)
