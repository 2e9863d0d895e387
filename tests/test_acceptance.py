"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is desk-scale (a few seconds single-threaded).
"""

import json
import math
import time

import pytest

from cdtube import (
    PowerLawFluid,
    TubeShape,
    TubeSpec,
    appell_f1,
    conductance_coefficient,
    gauss_2f1,
    gauss_2f1_continued,
    pressure_drop,
    pressure_drop_numeric,
    straight_tube_pressure_drop,
)
from cdtube.cli import main as cli_main
from cdtube.flow import METHOD_ANALYTIC

from test_special import naive_appell_double_sum

ALL_SHAPES = list(TubeShape)

GRID_N = (0.4, 0.6, 0.8, 1.0, 1.2, 1.6)
GRID_RATIO = (1.1, 2.0, 4.0, 10.0)
GRID_LENGTH = (1.0, 10.0)
GRID_FLOW = (1e-3, 1.0)

DEGENERATE_SHAPES = (TubeShape.COSH, TubeShape.SINUSOIDAL)


def _announce(criterion: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"\nACCEPTANCE {criterion}: {status} {detail}")
    assert not failures, failures[:10]


def _is_degenerate_point(shape: TubeShape, n: float) -> bool:
    return shape in DEGENERATE_SHAPES and abs(3.0 * n - round(3.0 * n)) < 1e-9


def test_acceptance_1_oracle_equivalence_grid():
    """Analytic P matches quadrature P across the full parameter grid."""
    failures = []
    worst = 0.0
    t0 = time.perf_counter()
    for shape in ALL_SHAPES:
        for n in GRID_N:
            fluid = PowerLawFluid(consistency=1.0, index=n)
            for ratio in GRID_RATIO:
                for length in GRID_LENGTH:
                    spec = TubeSpec(shape, 1.0, ratio, length)
                    for q in GRID_FLOW:
                        point = (shape.value, n, ratio, length, q)
                        # The paper's forms degenerate at these points; they
                        # are judged against a tighter oracle.
                        oracle_rel_tol = (1e-12 if _is_degenerate_point(shape, n)
                                          else 1e-10)
                        res = pressure_drop(fluid, spec, q, validate=True,
                                            oracle_rel_tol=oracle_rel_tol)
                        if res.method != METHOD_ANALYTIC:
                            failures.append((point, "expected analytic"))
                        worst = max(worst, res.rel_error)
                        # validate's one row tolerance
                        if not res.rel_error <= 1e-8:
                            failures.append((point, f"rel={res.rel_error:.3e}"))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", f"{elapsed:.1f}s >= 60s"))
    _announce("1 (oracle-equivalence grid)", failures,
              f"[480 points, worst rel err {worst:.2e}, {elapsed:.1f}s]")


def test_acceptance_2_closed_form_spot_checks():
    failures = []

    conic = pressure_drop(
        PowerLawFluid(1.0, 1.0), TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0), 1.0
    ).pressure_drop
    expected = 56.0 / (1.5 * math.pi)
    if abs(conic - expected) > 1e-10 * expected:
        failures.append(("conic n=1", conic, expected))

    n = 1.0 / 3.0
    fluid = PowerLawFluid(1.0, n)
    hyper = pressure_drop(
        fluid, TubeSpec(TubeShape.HYPERBOLIC, 1.0, 2.0, 1.0), 1.0
    ).pressure_drop
    prefactor = (2.0 * (3.0 * n + 1.0) ** n / (math.pi**n * n**n))
    arctan_integral = (1.0 / math.sqrt(3.0)) * math.atan(math.sqrt(3.0))
    expected_h = prefactor * arctan_integral
    if abs(hyper - expected_h) > 1e-10 * expected_h:
        failures.append(("hyperbolic n=1/3", hyper, expected_h))

    hp = straight_tube_pressure_drop(PowerLawFluid(1.0, 1.0), 1.0, 1.0,
                                     math.pi / 8.0)
    if abs(hp - 1.0) > 1e-12:
        failures.append(("Hagen-Poiseuille", hp, 1.0))

    _announce("2 (closed-form spot checks)", failures)


def test_acceptance_3_straight_tube_limit():
    failures = []
    ratio = 1.0 + 1e-6
    for shape in ALL_SHAPES:
        for n in (0.5, 1.0, 1.5):
            fluid = PowerLawFluid(1.0, n)
            p = pressure_drop(fluid, TubeSpec(shape, 1.0, ratio, 1.0),
                              1.0).pressure_drop
            straight = straight_tube_pressure_drop(fluid, 1.0, 1.0, 1.0)
            rel = abs(p - straight) / straight
            if rel > 1e-4:
                failures.append((shape.value, n, rel))
    _announce("3 (straight-tube limit)", failures)


def test_acceptance_4_law_suite():
    failures = []
    indices = (0.4, 0.9, 1.3)  # clear of every degenerate family

    for shape in ALL_SHAPES:
        for n in indices:
            fluid = PowerLawFluid(1.0, n)
            spec = TubeSpec(shape, 1.0, 2.5, 1.4)
            p_base = pressure_drop(fluid, spec, 0.7).pressure_drop

            # homogeneity within 1e-12
            for alpha in (0.5, 2.0, 10.0):
                p_scaled = pressure_drop(fluid, spec, alpha * 0.7).pressure_drop
                if abs(p_scaled - alpha**n * p_base) > 1e-12 * p_scaled:
                    failures.append((shape.value, n, "homogeneity", alpha))

            # linearity in C and in L within 1e-10
            p_c2 = pressure_drop(PowerLawFluid(2.0, n), spec, 0.7).pressure_drop
            p_l2 = pressure_drop(
                fluid, TubeSpec(shape, 1.0, 2.5, 2.8), 0.7
            ).pressure_drop
            if abs(p_c2 - 2.0 * p_base) > 1e-10 * p_c2:
                failures.append((shape.value, n, "C-linearity"))
            if abs(p_l2 - 2.0 * p_base) > 1e-10 * p_l2:
                failures.append((shape.value, n, "L-linearity"))

            # length scaling of the conductance per the master integral:
            # dx/r^(3n+1) scales as s^(-3n) under s * (r_min, r_max, L)
            k1 = conductance_coefficient(fluid, spec)
            for s in (0.01, 100.0):
                k2 = conductance_coefficient(
                    fluid, TubeSpec(shape, s * 1.0, s * 2.5, s * 1.4)
                )
                if abs(k2 - s ** (-3.0 * n) * k1) > 1e-10 * abs(k2):
                    failures.append((shape.value, n, "length-scaling", s))

            # sandwich bounds, strict
            narrow = straight_tube_pressure_drop(fluid, 1.0, 1.4, 0.7)
            wide = straight_tube_pressure_drop(fluid, 2.5, 1.4, 0.7)
            if not (wide < p_base < narrow):
                failures.append((shape.value, n, "sandwich"))

            # radius monotonicity, strict
            p_wider_max = pressure_drop(
                fluid, TubeSpec(shape, 1.0, 2.75, 1.4), 0.7
            ).pressure_drop
            p_wider_min = pressure_drop(
                fluid, TubeSpec(shape, 1.1, 2.5, 1.4), 0.7
            ).pressure_drop
            if not (p_wider_max < p_base and p_wider_min < p_base):
                failures.append((shape.value, n, "monotonicity"))

    _announce("4 (law suite)", failures)


@pytest.mark.xfail(
    strict=True,
    reason="the stated exponent 1-3n contradicts the master integral "
    "(dx/r^(3n+1) scales as s^(-3n)); see the length-scaling law above",
)
def test_acceptance_4_length_scaling_as_literally_stated():
    fluid = PowerLawFluid(1.0, 0.9)
    k1 = conductance_coefficient(fluid, TubeSpec(TubeShape.CONIC, 1.0, 2.5, 1.4))
    k2 = conductance_coefficient(
        fluid, TubeSpec(TubeShape.CONIC, 100.0, 250.0, 140.0)
    )
    assert k2 == pytest.approx(100.0 ** (1.0 - 2.7) * k1, rel=1e-10, abs=0.0)


def test_acceptance_5_special_function_conformance():
    failures = []

    # identity table within 1e-8
    table = [
        (gauss_2f1(1.3, -0.4, 2.2, 0.0), 1.0, "z=0"),
        (gauss_2f1(1.0, 1.0, 2.0, 0.5), 2.0 * math.log(2.0), "log"),
        (gauss_2f1(0.5, 1.0, 1.5, -1.0), math.pi / 4.0, "arctan"),
    ]
    a, b, c = 0.3, 0.4, 1.45
    table.append((
        gauss_2f1(a, b, c, 1.0 - 1e-12),
        math.gamma(c) * math.gamma(c - a - b)
        / (math.gamma(c - a) * math.gamma(c - b)),
        "gauss summation",
    ))
    for got, expected, label in table:
        if abs(got - expected) > 1e-8 * max(abs(expected), 1.0):
            failures.append((label, got, expected))

    # Appell double-series oracle agreement within 1e-10
    appell_points = [
        (-1.5, 0.5, 0.5, -0.5, 0.3, 0.4),
        (0.7, 0.3, 0.9, 2.1, -0.5, 0.6),
        (1.2, -0.4, 0.5, 0.8, 0.55, -0.65),
    ]
    for args in appell_points:
        got = appell_f1(*args).real
        oracle = naive_appell_double_sum(*args)
        if abs(got - oracle) > 1e-10 * max(abs(oracle), 1.0):
            failures.append(("appell", args, got, oracle))

    # conjugate branches exact to 1e-13
    for args in [(0.5, -1.5, -0.5, 4.0), (-1.2, 0.5, -0.7, 9.0)]:
        above = gauss_2f1_continued(*args, branch="above")
        below = gauss_2f1_continued(*args, branch="below")
        scale = max(abs(above.imag), abs(above.real), 1.0)
        if abs(above.real - below.real) > 1e-13 * scale or \
                abs(above.imag + below.imag) > 1e-13 * scale:
            failures.append(("conjugate", args))

    _announce("5 (special-function conformance)", failures)


def test_acceptance_6_cli_contract(runner):
    failures = []

    examples = {
        "solve-conic": [
            "solve", "--shape", "conic", "--n", "1", "--consistency", "1",
            "--rmin", "0.5", "--rmax", "1", "--length", "1",
            "--flow-rate", "1",
        ],
        "solve-degenerate": [
            "solve", "--shape", "parabolic", "--n", "0.8",
            "--consistency", "1", "--rmin", "1", "--rmax", "1",
            "--length", "1", "--flow-rate", "1",
        ],
        "validate-default": ["validate", "--grid", "default",
                             "--format", "csv"],
        "profile-sinusoid": [
            "profile", "--shape", "sinusoidal", "--rmin", "1", "--rmax", "3",
            "--length", "6.283185", "--samples", "5", "--format", "csv",
        ],
    }
    outputs = {}
    for label, args in examples.items():
        first = runner.invoke(cli_main, args, catch_exceptions=False)
        second = runner.invoke(cli_main, args, catch_exceptions=False)
        if first.exit_code != 0:
            failures.append((label, "exit", first.exit_code))
        if first.output != second.output:
            failures.append((label, "not byte-deterministic"))
        outputs[label] = first.output

    doc = json.loads(outputs["solve-conic"])
    p = doc["results"][0]["P"]
    if abs(p - 56.0 / (1.5 * math.pi)) > 1e-10 * p:
        failures.append(("solve-conic", "value", p))

    if "degenerate: straight tube" not in outputs["solve-degenerate"]:
        failures.append(("solve-degenerate", "missing note"))

    lines = outputs["validate-default"].splitlines()
    if lines[0] != ("shape,n,C,r_min,r_max,length,Q,P_analytic,P_numeric,"
                    "rel_err,method,branch"):
        failures.append(("validate-default", "header", lines[0]))
    if len(lines) != 481:
        failures.append(("validate-default", "rows", len(lines)))

    profile_lines = outputs["profile-sinusoid"].splitlines()
    rs = [float(line.split(",")[1]) for line in profile_lines[1:]]
    for got, expected in zip(rs, [3.0, 2.0, 1.0, 2.0, 3.0]):
        if abs(got - expected) > 1e-9:
            failures.append(("profile-sinusoid", got, expected))

    # exit-code conformance under injected invalid inputs
    bad = runner.invoke(cli_main, ["solve", "--shape", "bogus", "--n", "1",
                                   "--consistency", "1", "--rmin", "1",
                                   "--rmax", "2", "--length", "1",
                                   "--flow-rate", "1"])
    if bad.exit_code != 2:
        failures.append(("exit-2-bad-shape", bad.exit_code))
    conflict = runner.invoke(cli_main, examples["solve-conic"]
                             + ["--pressure", "1"])
    if conflict.exit_code != 2:
        failures.append(("exit-2-conflict", conflict.exit_code))
    starve = runner.invoke(cli_main, [
        "solve", "--shape", "sinusoidal", "--n", "1", "--consistency", "1",
        "--rmin", "1", "--rmax", "100", "--length", "1", "--flow-rate", "1",
        "--validate", "--max-subdivisions", "1",
    ])
    if starve.exit_code != 3:
        failures.append(("exit-3-starved", starve.exit_code))

    _announce("6 (CLI contract)", failures)
