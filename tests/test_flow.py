import dataclasses
import math

import pytest
from hypothesis import assume, given, strategies as st

from cdtube import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    EvaluationError,
    PowerLawFluid,
    QuadratureResult,
    TubeShape,
    TubeSpec,
    conductance_coefficient,
    flow_rate,
    integrate_inverse_radius_power,
    master_prefactor,
    pressure_drop,
    pressure_drop_numeric,
    straight_tube_conductance,
    straight_tube_flow_rate,
    straight_tube_pressure_drop,
)
from cdtube import flow as flow_module
from cdtube.flow import METHOD_ANALYTIC, METHOD_FALLBACK

ALL_SHAPES = list(TubeShape)

# Indices clear of every degenerate family of the paper's forms (3n and
# 3n + 1/2 both non-integer) for law-suite grids.
SAFE_INDICES = (0.4, 0.9, 1.3)


def fluid_of(n, c=1.0):
    return PowerLawFluid(consistency=c, index=n)


# ---------------------------------------------------------------------------
# conductance
# ---------------------------------------------------------------------------

def test_straight_degenerate_conductance_matches_closed_form():
    fluid = fluid_of(0.7, 2.0)
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.2, 1.2, 3.0)
    assert conductance_coefficient(fluid, spec) == straight_tube_conductance(
        fluid, 1.2, 3.0
    )


@given(
    n=st.floats(min_value=0.2, max_value=2.0),
    c=st.floats(min_value=1e-3, max_value=1e3),
    radius=st.floats(min_value=1e-7, max_value=1e-1),
    length=st.floats(min_value=1e-5, max_value=10.0),
    q=st.floats(min_value=0.0, max_value=1e-2),
    p=st.floats(min_value=0.0, max_value=1e7),
)
def test_straight_tube_helpers_are_the_general_solver(n, c, radius, length,
                                                      q, p):
    fluid = fluid_of(n, c)
    spec = TubeSpec(TubeShape.CONIC, radius, radius, length)
    k = conductance_coefficient(fluid, spec)
    assert straight_tube_conductance(fluid, radius, length).hex() == k.hex()
    assert (straight_tube_pressure_drop(fluid, radius, length, q).hex()
            == pressure_drop(fluid, spec, q).pressure_drop.hex())
    assert (straight_tube_flow_rate(fluid, radius, length, p).hex()
            == flow_rate(fluid, spec, p).flow_rate.hex())
    for shape in ALL_SHAPES:
        straight = TubeSpec(shape, radius, radius, length)
        assert conductance_coefficient(fluid, straight).hex() == k.hex()


@pytest.mark.parametrize("fluid,spec", [
    (fluid_of(1.0), TubeSpec(TubeShape.SINUSOIDAL, 1e155, 1e161, 1e300)),
    (fluid_of(0.2), TubeSpec(TubeShape.CONIC, 1e-8, 2e-8, 5e-324)),
    (fluid_of(0.2), TubeSpec(TubeShape.CONIC, 5e-324, 1e-323, 1.0)),
], ids=["nan", "zero", "inf"])
def test_conductance_outside_the_float_range_raises(fluid, spec):
    # Each closed form computes without an exception, but its product
    # rounds to nan, 0 or inf.
    with pytest.raises(DomainError, match=r"^conductance K is outside the "
                       r"float range \(r_min="):
        conductance_coefficient(fluid, spec)


def test_conic_conductance_spot_value():
    fluid = fluid_of(1.0)
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    k = conductance_coefficient(fluid, spec)
    assert k == pytest.approx(56.0 / (1.5 * math.pi), rel=1e-14, abs=0.0)
    # independent route: quadrature of the geometry integral times the
    # master prefactor
    geom = integrate_inverse_radius_power(spec, 4.0, rel_tol=1e-12).value
    assert k == pytest.approx(master_prefactor(fluid, 1.0) * geom, rel=1e-12,
                              abs=0.0)


def test_conductance_independent_of_flow():
    fluid = fluid_of(0.8)
    spec = TubeSpec(TubeShape.PARABOLIC, 1.0, 2.0, 1.0)
    k = conductance_coefficient(fluid, spec)
    p1 = pressure_drop(fluid, spec, 1.0).pressure_drop
    p2 = pressure_drop(fluid, spec, 2.0).pressure_drop
    assert p1 == pytest.approx(k, rel=1e-15, abs=0.0)
    assert p2 / p1 == pytest.approx(2.0**0.8, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# pressure_drop examples and invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_straight_degenerate_recovers_hagen_poiseuille(shape):
    fluid = fluid_of(1.0)
    spec = TubeSpec(shape, 1.0, 1.0, 1.0)
    res = pressure_drop(fluid, spec, math.pi / 8.0)
    assert res.pressure_drop == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert res.method == METHOD_ANALYTIC
    assert "straight tube" in res.diagnostics


def test_conic_derived_example():
    res = pressure_drop(fluid_of(1.0), TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0), 1.0)
    assert res.pressure_drop == pytest.approx(56.0 / (1.5 * math.pi), rel=1e-10,
                                              abs=0.0)
    assert res.method == METHOD_ANALYTIC


def test_hyperbolic_arctan_derived_example():
    # exponent (3n+1)/2 = 1 at n = 1/3 gives an elementary arctan integral
    n = 1.0 / 3.0
    fluid = fluid_of(n)
    spec = TubeSpec(TubeShape.HYPERBOLIC, 1.0, 2.0, 1.0)
    a, b = 1.0, 4.0 * (4.0 - 1.0)
    integral = 2.0 / math.sqrt(a * b) * math.atan(0.5 * math.sqrt(b / a))
    assert integral == pytest.approx(0.6045997880780726, rel=1e-13, abs=0.0)
    expected = master_prefactor(fluid, 1.0) * integral
    res = pressure_drop(fluid, spec, 1.0)
    assert res.pressure_drop == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert res.method == METHOD_ANALYTIC


def test_newtonian_conic_reduction():
    # at n = 1 the general formula collapses to 8CQL/(3 pi dR) (r^-3 terms)
    fluid = fluid_of(1.0, 2.5)
    q, r_min, r_max, length = 0.7, 0.6, 1.9, 2.2
    spec = TubeSpec(TubeShape.CONIC, r_min, r_max, length)
    expected = (8.0 * 2.5 * q * length / (3.0 * math.pi * (r_max - r_min))
                * (r_min**-3 - r_max**-3))
    assert pressure_drop(fluid, spec, q).pressure_drop == pytest.approx(
        expected, rel=1e-14, abs=0.0
    )


@pytest.mark.parametrize("shape", [TubeShape.COSH, TubeShape.SINUSOIDAL])
@pytest.mark.parametrize("n", [1.0, 2.0 / 3.0])
def test_degenerate_indices_take_fallback_and_match_oracle(shape, n):
    # Integer 3n degenerates the paper's continued forms; the real-argument
    # forms stay analytic there.
    fluid = fluid_of(n)
    spec = TubeSpec(shape, 1.0, 4.0, 1.0)
    res = pressure_drop(fluid, spec, 1.0)
    assert res.method == METHOD_ANALYTIC
    oracle = pressure_drop_numeric(fluid, spec, 1.0, rel_tol=1e-12)
    assert res.pressure_drop == pytest.approx(oracle.value, rel=1e-8, abs=0.0)


def test_sinusoid_newtonian_fallback_against_residue_closed_form():
    # For integer exponent m the period integral has the classical form
    # int dx/(A - B cos kx) family; m = 4 is evaluated here from the
    # residue result int_0^{2pi} dt/(A - B cos t)^4 =
    # pi (2A^3 + 3A B^2... ) / (A^2-B^2)^{7/2} ... use the generic
    # derivative route: I_m = (pi/ (m-1)!) d^{m-1}/dA^{m-1} [2/sqrt(A^2-B^2)]
    # with alternating sign; spell m = 4 explicitly.
    A, B = 2.5, 1.5  # r_min = 1, r_max = 4
    base = A * A - B * B

    # d^3/dA^3 (A^2-B^2)^(-1/2) = -3A(2A^2+3B^2)... use exact rational form:
    # f(A) = (A^2-B^2)^(-1/2)
    # f'''(A) = (-15 A^3 - ... ) — compute symbolically via finite ratios:
    # f'   = -A u^(-3/2)
    # f''  = (2A^2 + B^2) u^(-5/2)
    # f''' = -(6A^3 + 9AB^2) u^(-7/2)
    # with u = A^2 - B^2.
    f3 = -(6.0 * A**3 + 9.0 * A * B**2) * base ** (-3.5)
    # int_0^{2pi} (A - B cos t)^-4 dt = (2 pi / 3!) * (-1)^3 f'''(A)
    period_integral = 2.0 * math.pi / 6.0 * (-f3)

    length = 1.0
    k = 2.0 * math.pi / length
    geometric = period_integral / k  # substitute t = k x over one period

    fluid = fluid_of(1.0)
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 4.0, length)
    expected = master_prefactor(fluid, 1.0) * geometric
    res = pressure_drop(fluid, spec, 1.0)
    assert res.method == METHOD_ANALYTIC
    assert res.pressure_drop == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("shape", [TubeShape.PARABOLIC, TubeShape.HYPERBOLIC])
@pytest.mark.parametrize("n", [0.2, 0.5, 2.0 / 3.0, 0.9, 7.0 / 6.0, 4.0 / 3.0,
                               1.7, 2.0])
@pytest.mark.parametrize("ratio", [50.0, 1e3, 1e6])
def test_high_contrast_stays_analytic(shape, n, ratio):
    # 2F1 arguments far below -1; n = 0.5, 7/6 (parabolic) and 2/3, 4/3, 2
    # (hyperbolic) have integer b - a.
    fluid = fluid_of(n)
    spec = TubeSpec(shape, 1.0, ratio, 1.0)
    res = pressure_drop(fluid, spec, 1.0)
    assert res.method == METHOD_ANALYTIC
    oracle = pressure_drop_numeric(fluid, spec, 1.0, rel_tol=1e-12)
    assert res.pressure_drop == pytest.approx(oracle.value, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_oracle_equivalence_smoke(shape):
    fluid = fluid_of(0.8)
    spec = TubeSpec(shape, 1.0, 2.0, 1.0)
    res = pressure_drop(fluid, spec, 1.0, validate=True)
    assert res.method == METHOD_ANALYTIC
    assert res.oracle_value is not None
    assert res.rel_error <= 1e-6


@pytest.mark.parametrize("ratio", [1e6, 1e8, 1e12])
def test_sinusoid_oracle_at_high_contrast(ratio):
    # The cosine form (r_max + r_min)/2 - b cos(kx) keeps only about
    # eps * ratio of r at the throat; the oracle must not use it.
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, ratio, 1.0)
    res = pressure_drop(fluid_of(0.8), spec, 1.0, validate=True)
    assert res.method == METHOD_ANALYTIC
    assert res.rel_error <= 1e-12


@pytest.mark.parametrize("shape", [TubeShape.COSH, TubeShape.SINUSOIDAL])
def test_branch_selection_recorded(shape):
    # The real-argument forms continue no function past a cut: no branch.
    res = pressure_drop(fluid_of(0.8), TubeSpec(shape, 1.0, 2.0, 1.0), 1.0)
    assert "branch" not in {f.name for f in dataclasses.fields(res)}
    assert res.pressure_drop > 0.0


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_zero_flow_zero_pressure(shape):
    res = pressure_drop(fluid_of(0.9), TubeSpec(shape, 1.0, 2.0, 1.0), 0.0)
    assert res.pressure_drop == 0.0


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", SAFE_INDICES)
@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_homogeneity(shape, n, alpha):
    fluid = fluid_of(n)
    spec = TubeSpec(shape, 1.0, 3.0, 1.0)
    p1 = pressure_drop(fluid, spec, 0.7).pressure_drop
    p2 = pressure_drop(fluid, spec, alpha * 0.7).pressure_drop
    assert p2 == pytest.approx(alpha**n * p1, rel=1e-12, abs=0.0)


def _no_closed_form(error):
    def geometric_integral(spec, n):
        raise error("closed form stubbed out")
    return geometric_integral


def test_homogeneity_holds_on_fallback_path(monkeypatch):
    monkeypatch.setattr(flow_module, "_geometric_integral",
                        _no_closed_form(ConvergenceError))
    fluid = fluid_of(1.0)
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 3.0, 1.0)
    r1 = pressure_drop(fluid, spec, 0.7)
    p2 = pressure_drop(fluid, spec, 1.4).pressure_drop
    assert r1.method == METHOD_FALLBACK
    assert p2 == pytest.approx(2.0 * r1.pressure_drop, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", SAFE_INDICES)
def test_linearity_in_consistency_and_length(shape, n):
    q = 0.9
    base = pressure_drop(fluid_of(n, 1.0), TubeSpec(shape, 1.0, 2.5, 1.0), q)
    c2 = pressure_drop(fluid_of(n, 2.0), TubeSpec(shape, 1.0, 2.5, 1.0), q)
    l2 = pressure_drop(fluid_of(n, 1.0), TubeSpec(shape, 1.0, 2.5, 2.0), q)
    assert c2.pressure_drop == pytest.approx(2.0 * base.pressure_drop, rel=1e-10,
                                             abs=0.0)
    assert l2.pressure_drop == pytest.approx(2.0 * base.pressure_drop, rel=1e-10,
                                             abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", SAFE_INDICES)
@pytest.mark.parametrize("s", [0.01, 100.0])
def test_length_scaling_of_conductance(shape, n, s):
    # K(s * lengths) = s^(-3n) K(lengths): the integrand r^-(3n+1)
    # contributes s^-(3n+1) while dx contributes one power of s.
    fluid = fluid_of(n)
    k1 = conductance_coefficient(fluid, TubeSpec(shape, 1.0, 2.5, 1.4))
    k2 = conductance_coefficient(
        fluid, TubeSpec(shape, s * 1.0, s * 2.5, s * 1.4)
    )
    assert k2 == pytest.approx(s ** (-3.0 * n) * k1, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", SAFE_INDICES)
@pytest.mark.parametrize("s", [0.01, 100.0])
def test_dimensional_consistency(shape, n, s):
    # Rescaling every length by s and the flow rate by s^3 leaves the
    # pressure drop unchanged.
    fluid = fluid_of(n)
    q = 0.8
    p1 = pressure_drop(fluid, TubeSpec(shape, 1.0, 2.5, 1.4), q).pressure_drop
    p2 = pressure_drop(
        fluid, TubeSpec(shape, s * 1.0, s * 2.5, s * 1.4), s**3 * q
    ).pressure_drop
    assert p2 == pytest.approx(p1, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", SAFE_INDICES)
def test_sandwich_bounds_strict(shape, n):
    fluid = fluid_of(n)
    q = 1.0
    p = pressure_drop(fluid, TubeSpec(shape, 1.0, 2.0, 1.0), q).pressure_drop
    wide = straight_tube_pressure_drop(fluid, 2.0, 1.0, q)
    narrow = straight_tube_pressure_drop(fluid, 1.0, 1.0, q)
    assert wide < p < narrow


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", SAFE_INDICES)
def test_radius_monotonicity(shape, n):
    fluid = fluid_of(n)
    q = 1.0
    base = pressure_drop(fluid, TubeSpec(shape, 1.0, 2.0, 1.0), q).pressure_drop
    wider_max = pressure_drop(fluid, TubeSpec(shape, 1.0, 2.2, 1.0), q).pressure_drop
    wider_min = pressure_drop(fluid, TubeSpec(shape, 1.1, 2.0, 1.0), q).pressure_drop
    assert wider_max < base
    assert wider_min < base


@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", [0.5, 1.0, 1.5])
def test_straight_tube_limit(shape, n):
    fluid = fluid_of(n)
    ratio = 1.0 + 1e-6
    spec = TubeSpec(shape, 1.0, ratio, 1.0)
    p = pressure_drop(fluid, spec, 1.0).pressure_drop
    straight = straight_tube_pressure_drop(fluid, 1.0, 1.0, 1.0)
    assert p == pytest.approx(straight, rel=1e-4, abs=0.0)


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", ALL_SHAPES)
@pytest.mark.parametrize("n", [0.4, 1.0, 1.3])
def test_round_trip(shape, n):
    fluid = fluid_of(n)
    spec = TubeSpec(shape, 1.0, 2.5, 1.0)
    p = pressure_drop(fluid, spec, 0.37).pressure_drop
    q = flow_rate(fluid, spec, p).flow_rate
    assert q == pytest.approx(0.37, rel=1e-10, abs=0.0)


def test_inverse_of_conic_derived_example():
    fluid = fluid_of(1.0)
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    res = flow_rate(fluid, spec, 56.0 / (1.5 * math.pi))
    assert res.flow_rate == pytest.approx(1.0, rel=1e-10, abs=0.0)


def test_zero_pressure_zero_flow():
    res = flow_rate(fluid_of(0.7), TubeSpec(TubeShape.COSH, 1.0, 2.0, 1.0), 0.0)
    assert res.flow_rate == 0.0


def test_pressure_doubling_scales_flow():
    fluid = fluid_of(0.5)
    spec = TubeSpec(TubeShape.PARABOLIC, 1.0, 2.0, 1.0)
    q1 = flow_rate(fluid, spec, 1.0).flow_rate
    q2 = flow_rate(fluid, spec, 2.0).flow_rate
    assert q2 == pytest.approx(2.0 ** (1.0 / 0.5) * q1, rel=1e-12, abs=0.0)


def test_flow_rate_validation_mode():
    fluid = fluid_of(0.8)
    spec = TubeSpec(TubeShape.HYPERBOLIC, 1.0, 2.0, 1.0)
    res = flow_rate(fluid, spec, 3.0, validate=True)
    assert res.oracle_value is not None
    assert res.rel_error <= 1e-6


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_negative_inputs_rejected():
    fluid = fluid_of(1.0)
    spec = TubeSpec(TubeShape.CONIC, 1.0, 2.0, 1.0)
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            pressure_drop(fluid, spec, bad)
        with pytest.raises(DomainError):
            flow_rate(fluid, spec, bad)


def test_overflowing_result_rejected():
    # Finite inputs whose K, P or Q leave the float range.
    spec = TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError, match="float range"):
        pressure_drop(fluid_of(2.0), spec, 1e200)  # Q^n overflows
    with pytest.raises(DomainError, match="float range"):
        flow_rate(fluid_of(0.5), spec, 1e300)  # (P/K)^(1/n) overflows
    with pytest.raises(DomainError, match="float range"):
        pressure_drop(fluid_of(2.0), spec, 1e154)  # K * Q^n
    huge_k = (fluid_of(1.0, 1e300), TubeSpec(TubeShape.CONIC, 1e-9, 1.0, 1.0))
    with pytest.raises(DomainError, match="float range"):
        pressure_drop(*huge_k, 1e10)
    with pytest.raises(DomainError, match="float range"):
        flow_rate(*huge_k, 1e10)
    for shape in ALL_SHAPES:
        # r_min^-(3n+1) past the float range, straight tubes included
        for r_max in (1e-199, 1e-200):
            tiny = TubeSpec(shape, 1e-200, r_max, 1.0)
            with pytest.raises(DomainError, match="float range"):
                pressure_drop(fluid_of(1.3), tiny, 1.0)


@pytest.mark.parametrize("n", [120.0, 150.0])
def test_large_index_prefactor_rejected(n):
    # pi^n n^n overflows to inf from n = 120, so K would read 0; from
    # n = 121 (3n + 1)^n raises OverflowError.
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        fluid = fluid_of(n)
    with pytest.raises(DomainError, match=f"n={n!r}"):
        master_prefactor(fluid, 1.0)
    # Every tube, the straight one included, and both directions raise the
    # prefactor's error; a straight tube used to blame K instead.
    for r_max in (2.0, 1.0):
        spec = TubeSpec(TubeShape.CONIC, 1.0, r_max, 1.0)
        for solve in (pressure_drop, flow_rate):
            with pytest.raises(DomainError, match=f"n={n!r} is too large"):
                solve(fluid, spec, 1.0)


def test_validated_flow_rate_overflow_names_the_solve():
    # Q = (P / K)^(1/n) overflows; the oracle is not asked about Q = inf,
    # which blamed a flow_rate the caller never passed.
    fluid = fluid_of(1.0, 1e-300)
    spec = TubeSpec(TubeShape.CONIC, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError) as plain:
        flow_rate(fluid, spec, 1e300)
    with pytest.raises(DomainError) as validated:
        flow_rate(fluid, spec, 1e300, validate=True)
    assert str(plain.value).startswith(
        "flow rate at 1e+300 overflows the float range (K=")
    assert str(validated.value) == str(plain.value)


@pytest.mark.parametrize("oracle_p", [0.0, 5e-324, 1e-310])
def test_an_oracle_p_below_the_normal_range_is_a_domain_error(monkeypatch,
                                                              oracle_p):
    # Beside a P that is not 0, a relative error against an oracle P that
    # underflowed would read 0, or 1, and say nothing: both directions
    # raise, as an oracle P that overflows does.
    def oracle(fluid, spec, q, **kwargs):
        return QuadratureResult(oracle_p if q else 0.0, 0.0, 1)
    monkeypatch.setattr(flow_module, "pressure_drop_numeric", oracle,
                        raising=False)
    fluid = fluid_of(0.8)
    spec = TubeSpec(TubeShape.PARABOLIC, 1.0, 2.0, 1.0)
    message = (rf"^the oracle's pressure drop {oracle_p!r} is below the "
               r"normal float range, beside P=")
    with pytest.raises(DomainError, match=message):
        pressure_drop(fluid, spec, 1.0, validate=True)
    with pytest.raises(DomainError, match=message):
        flow_rate(fluid, spec, 1.0, validate=True)
    # At Q = 0, P is 0 too, and the oracle's 0 is exact.
    zero = pressure_drop(fluid, spec, 0.0, validate=True)
    assert (zero.pressure_drop, zero.oracle_value, zero.rel_error) == (
        0.0, 0.0, 0.0)


def test_evaluation_error_when_both_routes_fail(monkeypatch):
    # a stubbed degenerate closed form forces the fallback; a one-panel cap
    # starves it
    monkeypatch.setattr(flow_module, "_geometric_integral",
                        _no_closed_form(DegenerateParameterError))
    fluid = fluid_of(1.0)
    spec = TubeSpec(TubeShape.SINUSOIDAL, 1.0, 100.0, 1.0)
    with pytest.raises(EvaluationError):
        pressure_drop(fluid, spec, 1.0, max_panels=1)


# ---------------------------------------------------------------------------
# properties over the supported envelope: n in [0.2, 2], radius ratio from
# 1 + 1e-4 to 1e6, throat radius from 1e-9 to 1e-5 m
# ---------------------------------------------------------------------------

ENVELOPE_N = st.floats(min_value=0.2, max_value=2.0)
ENVELOPE_LOG_RATIO = st.floats(min_value=math.log10(1.0 + 1e-4),
                               max_value=6.0)


@given(
    shape=st.sampled_from(ALL_SHAPES),
    n=ENVELOPE_N,
    log_ratio=ENVELOPE_LOG_RATIO,
    log_r_min=st.floats(min_value=-9.0, max_value=-5.0),
    length_over_r_min=st.floats(min_value=1.0, max_value=1e3),
    log_q=st.floats(min_value=-18.0, max_value=-9.0),
)
def test_envelope_is_analytic_and_round_trips(shape, n, log_ratio, log_r_min,
                                              length_over_r_min, log_q):
    r_min = 10.0**log_r_min
    fluid = fluid_of(n, 0.3)
    spec = TubeSpec(shape, r_min, r_min * 10.0**log_ratio,
                    r_min * length_over_r_min)
    q = 10.0**log_q
    forward = pressure_drop(fluid, spec, q)
    back = flow_rate(fluid, spec, forward.pressure_drop)
    assert forward.method == back.method == METHOD_ANALYTIC
    assert back.flow_rate == pytest.approx(q, rel=1e-12, abs=0.0)


@given(
    shape=st.sampled_from(ALL_SHAPES),
    n=ENVELOPE_N,
    log_ratio=ENVELOPE_LOG_RATIO,
    log_step=st.floats(min_value=1e-6, max_value=1.0),
)
def test_conductance_decreases_with_ratio(shape, n, log_ratio, log_step):
    # A wider tube at the same throat conducts more: K falls as r_max grows.
    assume(log_ratio + log_step <= 6.0)
    fluid = fluid_of(n)
    narrow = conductance_coefficient(
        fluid, TubeSpec(shape, 1.0, 10.0**log_ratio, 1.0))
    wide = conductance_coefficient(
        fluid, TubeSpec(shape, 1.0, 10.0 ** (log_ratio + log_step), 1.0))
    assert wide < narrow
