import collections
import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdtube import (
    ConvergenceError,
    EvaluationError,
    PowerLawFluid,
    TubeShape,
    TubeSpec,
    flow_rate,
    pressure_drop,
)
from cdtube import _kernels, quadrature
from cdtube import cli as cli_module
from cdtube import flow as flow_module
from cdtube.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
VALIDATE_HEADER = "shape,n,C,r_min,r_max,length,Q,P_analytic,P_numeric,rel_err,method,branch"


def run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_CONIC = [
    "solve", "--shape", "conic", "--n", "1", "--consistency", "1",
    "--rmin", "0.5", "--rmax", "1", "--length", "1", "--flow-rate", "1",
]


def test_solve_json_example(runner):
    result = run(runner, SOLVE_CONIC)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema_version"] == 1
    assert doc["config"]["subcommand"] == "solve"
    row = doc["results"][0]
    assert row["P"] == pytest.approx(56.0 / (1.5 * math.pi), rel=1e-10,
                                     abs=0.0)
    assert row["method"] == "analytic"


def test_solve_byte_determinism(runner):
    first = run(runner, SOLVE_CONIC)
    second = run(runner, SOLVE_CONIC)
    assert first.output == second.output
    assert "\x1b" not in first.output  # no styling, NO_COLOR-safe


def test_solve_degenerate_straight_note(runner):
    result = run(runner, [
        "solve", "--shape", "parabolic", "--n", "0.8", "--consistency", "1",
        "--rmin", "1", "--rmax", "1", "--length", "1", "--flow-rate", "1",
    ])
    assert result.exit_code == 0
    row = json.loads(result.output)["results"][0]
    assert row["method"] == "analytic"
    assert row["note"] == "degenerate: straight tube"


def test_solve_pressure_inverse(runner):
    p = 56.0 / (1.5 * math.pi)
    result = run(runner, [
        "solve", "--shape", "conic", "--n", "1", "--consistency", "1",
        "--rmin", "0.5", "--rmax", "1", "--length", "1",
        "--pressure", repr(p),
    ])
    row = json.loads(result.output)["results"][0]
    assert row["Q"] == pytest.approx(1.0, rel=1e-10, abs=0.0)


def test_solve_periods_scale_pressure(runner):
    base = json.loads(run(runner, SOLVE_CONIC).output)["results"][0]["P"]
    result = run(runner, SOLVE_CONIC + ["--periods", "3"])
    row = json.loads(result.output)["results"][0]
    assert row["P"] == pytest.approx(3.0 * base, rel=1e-14, abs=0.0)
    assert row["periods"] == 3


def test_solve_validate_embeds_oracle(runner):
    result = run(runner, SOLVE_CONIC + ["--validate"])
    row = json.loads(result.output)["results"][0]
    assert row["oracle"] == pytest.approx(row["P"], rel=1e-8, abs=0.0)
    assert row["rel_err"] <= 1e-8


def test_solve_csv_format(runner):
    result = run(runner, SOLVE_CONIC + ["--format", "csv"])
    rows = parse_csv(result.output)
    assert len(rows) == 1
    assert float(rows[0]["P"]) == pytest.approx(56.0 / (1.5 * math.pi), rel=1e-10,
                                                abs=0.0)
    assert "\r" not in result.output


def test_solve_output_file(runner, tmp_path):
    target = tmp_path / "out.json"
    result = run(runner, SOLVE_CONIC + ["--output", str(target)])
    assert result.exit_code == 0
    doc = json.loads(target.read_text())
    assert doc["results"][0]["P"] == pytest.approx(
        56.0 / (1.5 * math.pi), rel=1e-10, abs=0.0
    )


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_shape_exits_2(runner):
    result = runner.invoke(main, [
        "solve", "--shape", "helical", "--n", "1", "--consistency", "1",
        "--rmin", "0.5", "--rmax", "1", "--length", "1", "--flow-rate", "1",
    ])
    assert result.exit_code == 2


def test_conflicting_flow_and_pressure_exits_2(runner):
    result = runner.invoke(main, SOLVE_CONIC + ["--pressure", "1"])
    assert result.exit_code == 2


def test_missing_flow_and_pressure_exits_2(runner):
    result = runner.invoke(main, SOLVE_CONIC[:-2])
    assert result.exit_code == 2


def test_nonnumeric_parameter_exits_2(runner):
    result = runner.invoke(main, [
        "solve", "--shape", "conic", "--n", "fast", "--consistency", "1",
        "--rmin", "0.5", "--rmax", "1", "--length", "1", "--flow-rate", "1",
    ])
    assert result.exit_code == 2


def test_invalid_geometry_exits_2(runner):
    result = runner.invoke(main, [
        "solve", "--shape", "conic", "--n", "1", "--consistency", "1",
        "--rmin", "2", "--rmax", "1", "--length", "1", "--flow-rate", "1",
    ])
    assert result.exit_code == 2
    assert "r_max" in result.output


def test_numerical_failure_exits_3(runner):
    # a one-panel cap starves the quadrature oracle
    result = runner.invoke(main, [
        "solve", "--shape", "sinusoidal", "--n", "1", "--consistency", "1",
        "--rmin", "1", "--rmax", "100", "--length", "1", "--flow-rate", "1",
        "--validate", "--max-subdivisions", "1",
    ])
    assert result.exit_code == 3


# The closed form overflows, and so would the fallback's integrand
# r^-(3n+1) at a 1 nm throat.
OVERFLOWING_SOLVE = [
    "solve", "--shape", "sinusoidal", "--n", "13.982683376860116",
    "--consistency", "1", "--rmin", "1e-9", "--rmax", "1e6",
    "--length", "1e-9", "--flow-rate", "1",
]

# Run as ``python -c``: the command line, with every closed form stubbed
# out, so that K comes from the quadrature fallback.
WITHOUT_CLOSED_FORMS = """
from cdtube import ConvergenceError, flow
from cdtube.cli import main
def closed_form(spec, n):
    raise ConvergenceError("closed form stubbed out")
flow._geometric_integral = closed_form
main(prog_name="cdtube")
"""


@pytest.fixture()
def no_sinusoid_closed_form(monkeypatch):
    """The sinusoid's K from the quadrature fallback; the other shapes keep
    their closed forms."""
    closed_form = flow_module._geometric_integral

    def stub(spec, n):
        if spec.shape is TubeShape.SINUSOIDAL:
            raise ConvergenceError("closed form stubbed out")
        return closed_form(spec, n)
    monkeypatch.setattr(flow_module, "_geometric_integral", stub)


def _counted_panels(monkeypatch):
    """Patch the integrand kernel; return the list its calls append to."""
    panels = []
    integrand = _kernels.inverse_radius_power

    def counted(*args):
        panels.append(args)
        return integrand(*args)
    monkeypatch.setattr(_kernels, "inverse_radius_power", counted)
    return panels


def test_an_overflowing_closed_form_exits_2_before_any_panel(runner,
                                                             monkeypatch):
    panels = _counted_panels(monkeypatch)
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        result = runner.invoke(main, OVERFLOWING_SOLVE)
    assert result.exit_code == 2
    assert "conductance K is outside the float range" in result.output
    assert panels == []


def test_overflowing_fallback_exits_2_at_its_first_panel(
        runner, monkeypatch, no_sinusoid_closed_form):
    # The quadrature stops at the first non-finite panel estimate instead
    # of splitting up to MAX_PANELS.
    panels = _counted_panels(monkeypatch)
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        result = runner.invoke(main, OVERFLOWING_SOLVE)
    assert result.exit_code == 2
    assert "the integrand leaves the float range" in result.output
    assert len(panels) == 1 < quadrature.MAX_PANELS


def test_overflowing_fallback_prints_no_runtime_warning():
    # numpy warns of the overflow in r^-(3n+1); the usage error already
    # says the integrand leaves the float range.
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_CLOSED_FORMS, *OVERFLOWING_SOLVE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        check=False,
    )
    assert result.returncode == 2
    assert "the integrand leaves the float range" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert result.stdout == ""


def test_overflow_warning_filter_ends_with_the_command(
        runner, no_sinusoid_closed_form):
    with pytest.warns(UserWarning, match="guaranteed-accuracy") as record:
        filters = list(warnings.filters)
        result = runner.invoke(main, OVERFLOWING_SOLVE)
        assert warnings.filters == filters
    assert result.exit_code == 2
    assert [w.category for w in record] == [UserWarning]


@pytest.mark.parametrize("n, args", [
    (2.5, ["solve", "--shape", "conic", "--n", "2.5", "--consistency", "1",
           "--rmin", "0.5", "--rmax", "1", "--length", "1",
           "--flow-rate", "1"]),
    (3.0, ["rheology", "--n", "3", "--consistency", "1"]),
], ids=["solve", "rheology"])
def test_a_warning_prints_its_message_alone(n, args):
    # No install path, no line number of cli.py and no source line.
    result = subprocess.run(
        [sys.executable, "-m", "cdtube", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        check=False,
    )
    assert result.returncode == 0
    assert result.stderr == (
        f"Warning: flow index n={n} is outside the guaranteed-accuracy range "
        "[0.2, 2.0]; results are computed but unvalidated\n")


@pytest.mark.parametrize("args", [SOLVE_CONIC, OVERFLOWING_SOLVE],
                         ids=["exit_0", "exit_2"])
def test_main_leaves_the_warning_hooks_as_it_found_them(
        runner, no_sinusoid_closed_form, args):
    hooks = (warnings.formatwarning, warnings.showwarning,
             list(warnings.filters))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        runner.invoke(main, args)
    assert (warnings.formatwarning, warnings.showwarning,
            list(warnings.filters)) == hooks


@pytest.mark.parametrize("r_max", ["1e12", "1e15"])
def test_sinusoid_fallback_converges_at_high_contrast(runner, r_max):
    # The n = 1/6 closed form caps its series here, so K comes from the
    # quadrature fallback, which has to resolve a throat 1e12 times
    # narrower than the ends.
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        result = runner.invoke(main, [
            "solve", "--shape", "sinusoidal", "--n", "0.16666666666666666",
            "--consistency", "1", "--rmin", "1", "--rmax", r_max,
            "--length", "1", "--flow-rate", "1", "--validate",
        ])
    assert result.exit_code == 0
    (row,) = json.loads(result.output)["results"]
    assert row["method"] == "quadrature_fallback"
    assert row["rel_err"] <= 1e-8


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--flow-rate", "--pressure"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_non_finite_input_exits_2(runner, option, value, fmt):
    result = runner.invoke(main, SOLVE_CONIC[:-2] + [
        f"{option}={value}", "--format", fmt,
    ])
    assert result.exit_code == 2
    assert "finite and non-negative" in result.output


@pytest.mark.parametrize("args", [
    # P = K * Q^2 overflows in the power
    ["--n", "2", "--consistency", "1", "--rmin", "0.5", "--rmax", "1",
     "--length", "1", "--flow-rate", "1e200"],
    # K overflows, so P would print as Infinity
    ["--n", "1", "--consistency", "1e300", "--rmin", "1e-9", "--rmax", "1",
     "--length", "1", "--flow-rate", "1e10"],
    # Q = (P / K)^2 overflows
    ["--n", "0.5", "--consistency", "1", "--rmin", "0.5", "--rmax", "1",
     "--length", "1", "--pressure", "1e300"],
    # P of one unit is finite, of three periods it is not
    ["--n", "1", "--consistency", "1", "--rmin", "0.5", "--rmax", "1",
     "--length", "1", "--flow-rate", "1e307", "--periods", "3"],
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_solve_overflow_exits_2(runner, args, fmt):
    result = runner.invoke(main, ["solve", "--shape", "conic", *args,
                                  "--format", fmt])
    assert result.exit_code == 2
    assert "float range" in result.output
    assert "Infinity" not in result.output


@pytest.mark.parametrize("n", ["120", "150"])
def test_solve_large_index_exits_2(runner, n):
    # The prefactor (3n+1)^n / (pi n)^n leaves the float range; before, n =
    # 120 blamed K = 0 and n = 150 exited 1 with an OverflowError.  The
    # straight tube (--rmax 1) blamed K at both.
    for rmax in ("2", "1"):
        with pytest.warns(UserWarning, match="guaranteed-accuracy"):
            result = runner.invoke(main, [
                "solve", "--shape", "conic", "--n", n, "--consistency", "1",
                "--rmin", "1", "--rmax", rmax, "--length", "1",
                "--flow-rate", "1",
            ])
        assert result.exit_code == 2
        assert f"n={float(n)!r} is too large" in result.output


def test_validated_solve_overflow_exits_2_with_the_plain_message(runner):
    args = ["solve", "--shape", "conic", "--n", "1", "--consistency",
            "1e-300", "--rmin", "1", "--rmax", "2", "--length", "1",
            "--pressure", "1e300"]
    plain = runner.invoke(main, args)
    validated = runner.invoke(main, [*args, "--validate"])
    assert plain.exit_code == validated.exit_code == 2
    assert "Error: flow rate at 1e+300 overflows the float range" in \
        plain.stderr
    assert validated.stderr == plain.stderr


@pytest.mark.parametrize("quantity,n,stop,solved", [
    pytest.param("flow-rate", "2", "1e200", "pressure drop at 5e+199",
                 id="flow-rate-2-1e200"),
    pytest.param("pressure", "0.5", "1e300", "flow rate at 5e+299",
                 id="pressure-0.5-1e300"),
])
def test_sweep_overflow_exits_2(runner, quantity, n, stop, solved):
    # The middle row is the first to overflow; the message names it and K,
    # with the oracle or without.
    k = flow_module.conductance_coefficient(
        PowerLawFluid(consistency=1.0, index=float(n)),
        TubeSpec(TubeShape.CONIC, 0.5, 1.0, 1.0))
    for validate in ([], ["--validate"]):
        result = runner.invoke(main, [
            "sweep", "--shape", "conic", "--n", n, "--consistency", "1",
            "--rmin", "0.5", "--rmax", "1", "--length", "1",
            "--quantity", quantity, "--start", "0", "--stop", stop,
            "--count", "3", "--format", "json", *validate,
        ])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            f"\n\nError: {solved} overflows the float range (K={k!r})\n")


PERIODS_CONIC = ["--shape", "conic", "--n", "1", "--consistency", "1",
                 "--rmin", "0.5", "--rmax", "1", "--length", "1",
                 "--periods", "2"]


@pytest.mark.parametrize("args", [
    ["solve", *PERIODS_CONIC, "--flow-rate", "1e307"],
    ["sweep", *PERIODS_CONIC, "--start", "0", "--stop", "1e307",
     "--count", "3"],
], ids=["solve", "sweep"])
@pytest.mark.parametrize("validate", [[], ["--validate"]])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_periods_overflow_exits_2(runner, args, validate, fmt):
    # P of one unit at Q = 1e307 is finite; over two periods it is not.
    result = runner.invoke(main, [*args, *validate, "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith("\n\nError: pressure drop over 2 periods "
                                  "overflows the float range\n")


def test_an_oracle_past_the_float_range_over_the_periods_exits_2(
        runner, monkeypatch):
    # 2 P is finite at Q = 5e306; an oracle that reads 2 P is finite too,
    # but not over two periods.
    oracle = flow_module.pressure_drop_oracle

    def doubled(*args):
        at = oracle(*args)
        return lambda q: quadrature.QuadratureResult(2.0 * at(q).value,
                                                     0.0, 0)
    monkeypatch.setattr(flow_module, "pressure_drop_oracle", doubled)
    result = runner.invoke(main, ["sweep", *PERIODS_CONIC, "--start", "0",
                                  "--stop", "5e306", "--count", "2",
                                  "--validate"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith("\n\nError: pressure drop over 2 periods "
                                  "overflows the float range\n")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_BASE = [
    "sweep", "--shape", "hyperbolic", "--n", "0.8", "--consistency", "1",
    "--rmin", "1", "--rmax", "2", "--length", "1",
    "--start", "0.1", "--stop", "10", "--count", "5",
]


def test_sweep_linear(runner):
    result = run(runner, SWEEP_BASE + ["--format", "csv"])
    rows = parse_csv(result.output)
    assert len(rows) == 5
    qs = [float(r["Q"]) for r in rows]
    assert qs[0] == 0.1 and qs[-1] == 10.0
    assert qs == sorted(qs)


def test_sweep_log_spacing(runner):
    result = run(runner, SWEEP_BASE + ["--spacing", "log", "--format", "csv"])
    qs = [float(r["Q"]) for r in parse_csv(result.output)]
    ratios = [qs[i + 1] / qs[i] for i in range(len(qs) - 1)]
    assert ratios == pytest.approx([ratios[0]] * len(ratios), rel=1e-12,
                                   abs=0.0)


def test_linear_grid_is_numpy_linspace():
    rng = random.Random(20261018)
    for _ in range(500):
        start = rng.choice([0.0, 10.0 ** rng.uniform(-300, 300)])
        stop = start + 10.0 ** rng.uniform(-300, 300)
        count = rng.randint(2, 3000)
        assert cli_module._spaced(start, stop, count) == \
            np.linspace(start, stop, count).tolist()
    # a step below the smallest subnormal: numpy divides the index first
    assert cli_module._spaced(0.0, 5e-324, 3) == \
        np.linspace(0.0, 5e-324, 3).tolist()


def test_log_grid_is_numpy_geomspace_to_the_last_digits():
    # Each side's log10 and power are within an ulp of libm's (numpy's
    # SIMD loops differ from libm on some CPUs).  One ulp of an endpoint's
    # log10, carried through the step, and the rounding of i * step +
    # start on either side stay within 6 ulps of the largest log10, which
    # 10 ** v turns into a relative error of ln(10) times that: below
    # 1e-14 while the endpoints' log10 stay under 4 in magnitude.
    rng = random.Random(20261019)
    for _ in range(500):
        start = 10.0 ** rng.uniform(-300, 290)
        stop = start * 10.0 ** rng.uniform(0.004, 12)
        count = rng.randint(2, 3000)
        grid = cli_module._spaced(start, stop, count, log=True)
        assert grid[0] == start and grid[-1] == stop
        assert all(a < b for a, b in zip(grid, grid[1:]))
        top = max(abs(math.log10(start)), abs(math.log10(stop)))
        bound = (6.0 * math.log(10.0) * math.ulp(top)
                 + 2.0 * sys.float_info.epsilon)
        for got, ref in zip(grid, np.geomspace(start, stop, count).tolist()):
            assert abs(got - ref) <= bound * ref


def test_log_grid_near_the_float_maximum_stays_finite():
    # log10 of the two endpoints rounds to one value, and 10 ** that
    # value overflows; the inner points are the top endpoint instead.
    top = sys.float_info.max
    below = math.nextafter(math.nextafter(top, 0.0), 0.0)
    assert cli_module._spaced(below, top, 4, log=True) == [below, top, top,
                                                           top]


def test_sweep_pressure_quantity(runner):
    result = run(runner, [
        "sweep", "--shape", "conic", "--n", "1", "--consistency", "1",
        "--rmin", "0.5", "--rmax", "1", "--length", "1",
        "--quantity", "pressure", "--start", "1", "--stop", "2",
        "--count", "3", "--format", "csv",
    ])
    rows = parse_csv(result.output)
    k = 56.0 / (1.5 * math.pi)
    for row in rows:
        assert float(row["Q"]) == pytest.approx(float(row["P"]) / k, rel=1e-10,
                                                abs=0.0)


def test_sweep_parallel_matches_serial(runner):
    # --jobs is accepted and ignored; it must not change the output.
    serial = run(runner, SWEEP_BASE + ["--format", "csv", "--jobs", "1"])
    parallel = run(runner, SWEEP_BASE + ["--format", "csv", "--jobs", "2"])
    assert serial.output == parallel.output


def _cell(value):
    return "" if value is None else repr(value) if isinstance(value, float) \
        else str(value)


@pytest.mark.parametrize("shape,n", [
    ("conic", 0.7), ("parabolic", 0.7), ("hyperbolic", 1.3),
    ("cosh", 1.0),  # 3n = 3, where the paper's continued form degenerates
    ("sinusoidal", 0.7),
])
@pytest.mark.parametrize("quantity", ["flow-rate", "pressure"])
def test_sweep_rows_match_library_solves(runner, shape, n, quantity):
    # A sweep computes K once; each row must still equal the library solve
    # of that point, digit for digit, oracle and the Q = 0 row included.
    periods = 3
    result = run(runner, [
        "sweep", "--shape", shape, "--n", repr(n), "--consistency", "2",
        "--rmin", "1", "--rmax", "3", "--length", "2",
        "--quantity", quantity, "--start", "0", "--stop", "5",
        "--count", "6", "--periods", str(periods), "--validate",
        "--format", "csv",
    ])
    assert result.exit_code == 0
    rows = parse_csv(result.output)
    fluid = PowerLawFluid(consistency=2.0, index=n)
    spec = TubeSpec(TubeShape(shape), 1.0, 3.0, 2.0)
    values = [5.0 * k / 5 for k in range(6)]  # linear spacing from 0
    assert [float(row["Q" if quantity == "flow-rate" else "P"])
            for row in rows] == values
    for row, value in zip(rows, values):
        if quantity == "flow-rate":
            res = pressure_drop(fluid, spec, value, validate=True)
            q, p = value, periods * res.pressure_drop
        else:
            res = flow_rate(fluid, spec, value / periods, validate=True)
            q, p = res.flow_rate, value
        expected = {"periods": periods, "Q": q, "P": p, "method": res.method,
                    "branch": None, "note": res.diagnostics,
                    "oracle": periods * res.oracle_value,
                    "rel_err": res.rel_error}
        assert {key: row[key] for key in expected} == {
            key: _cell(v) for key, v in expected.items()}


def _per_row_document(fmt, config, rows):
    """The document as the per-row writers make it: each row's dict
    through ``csv.writer``, or ``json.dumps(doc, indent=2)``."""
    if fmt == "json":
        return json.dumps({"schema_version": 1, "config": config,
                           "results": rows}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
    return buf.getvalue()


SWEEP_OPTIONS = [  # quantity, spacing, periods, validate
    ("flow-rate", "linear", 1, False),
    ("pressure", "log", 2, True),
    ("flow-rate", "log", 3, True),
    ("pressure", "linear", 4, False),
]


@pytest.mark.parametrize("shape,n,r_max", [
    *((shape.value, 0.7, 3.0) for shape in TubeShape),
    ("cosh", 1.3, 1.0),  # a straight tube
    # K falls back to quadrature: its note holds a comma, which CSV quotes
    ("sinusoidal", 0.16666666666666666, 1e12),
])
@pytest.mark.parametrize("quantity,spacing,periods,validate", SWEEP_OPTIONS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_output_is_the_per_row_encoding(runner, shape, n, r_max,
                                              quantity, spacing, periods,
                                              validate, fmt):
    # A sweep encodes its constant cells once; the bytes must be those of
    # one dict per row, from the library solve of each point, through the
    # writers.  A linear sweep from 0 has a Q = 0 (or P = 0) row.
    start, stop, count = (0.0 if spacing == "linear" else 0.01), 7.0, 6
    config = {
        "subcommand": "sweep", "shape": shape, "n": n, "consistency": 1.5,
        "r_min": 1.0, "r_max": r_max, "length": 2.0, "periods": periods,
        "quantity": quantity, "start": start, "stop": stop, "count": count,
        "spacing": spacing, "validate": validate,
        "rel_tol": quadrature.DEFAULT_REL_TOL, "format": fmt,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # n = 1/6
        fluid = PowerLawFluid(consistency=1.5, index=n)
        result = run(runner, [
            "sweep", "--shape", shape, "--n", repr(n), "--consistency",
            "1.5", "--rmin", "1", "--rmax", repr(r_max), "--length", "2",
            "--quantity", quantity, "--start", repr(start), "--stop",
            repr(stop), "--count", str(count), "--spacing", spacing,
            "--periods", str(periods), "--format", fmt,
            *(["--validate"] if validate else []),
        ])
    assert result.exit_code == 0
    spec = TubeSpec(TubeShape(shape), 1.0, r_max, 2.0)
    rows = []
    for value in cli_module._spaced(start, stop, count, spacing == "log"):
        if quantity == "pressure":
            res = flow_rate(fluid, spec, value / periods, validate=validate)
            q, p = res.flow_rate, value
        else:
            res = pressure_drop(fluid, spec, value, validate=validate)
            q, p = value, periods * res.pressure_drop
        rows.append({
            "shape": shape, "n": n, "C": 1.5, "r_min": 1.0, "r_max": r_max,
            "length": 2.0, "periods": periods, "Q": q, "P": p,
            "method": res.method, "branch": None, "note": res.diagnostics,
            "oracle": periods * res.oracle_value if validate else None,
            "rel_err": res.rel_error,
        })
    assert result.stdout == _per_row_document(fmt, config, rows)
    if fmt == "csv" and r_max == 1e12:
        assert ',"fallback to quadrature (' in result.stdout


# Column names are words, as every table's are; a constant cell may hold
# "%" and anything else a writer quotes or escapes.
_COLUMNS = st.lists(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1),
                    min_size=1, max_size=8, unique=True)
_CONSTANT = st.one_of(st.none(), st.booleans(), st.integers(),
                      st.floats(allow_nan=False), st.text(),
                      st.sampled_from(["%", "%r", "%%r", '"%r"', "%s%d",
                                       "a,%r", "b\n%", ""]))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(columns=_COLUMNS, data=st.data())
def test_a_template_row_is_written_as_its_rows_would_be(columns, data):
    # A template cell that varies holds "%r"; a text constant has its "%"
    # doubled.
    varies = data.draw(st.lists(st.booleans(), min_size=len(columns),
                                max_size=len(columns)))
    constants = {column: data.draw(_CONSTANT)
                 for column, vary in zip(columns, varies) if not vary}
    template = dict.fromkeys(columns, "%r")
    for column, cell in constants.items():
        template[column] = (cell.replace("%", "%%") if isinstance(cell, str)
                            else cell)
    floats = data.draw(st.lists(st.tuples(*[_FINITE] * sum(varies)),
                                min_size=1, max_size=4))
    rows = []
    for values in floats:
        values = iter(values)
        rows.append({column: constants[column] if column in constants
                     else next(values) for column in columns})
    config = {"subcommand": "%r"}
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_module._emit(fmt, None, config, [template], floats)
        assert out.getvalue() == _per_row_document(fmt, config, rows)


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_note_with_percent_signs_is_written_verbatim(runner, monkeypatch,
                                                       fmt, validate):
    # The fallback note quotes the closed form's error, which here holds
    # "%" and "%r": every sweep row must carry it as solve's row does.
    def closed_form(spec, n):
        raise ConvergenceError("50% off; %r")
    monkeypatch.setattr(flow_module, "_geometric_integral", closed_form)
    tube = ["--shape", "conic", "--n", "0.8", "--consistency", "1",
            "--rmin", "1", "--rmax", "2", "--length", "1", "--format", fmt,
            *(["--validate"] if validate else [])]
    solved = run(runner, ["solve", *tube, "--flow-rate", "1"])
    swept = run(runner, ["sweep", *tube, "--start", "0", "--stop", "1",
                         "--count", "7"])
    assert solved.exit_code == swept.exit_code == 0
    notes = []
    for result in (solved, swept):
        rows = (parse_csv(result.stdout) if fmt == "csv"
                else json.loads(result.stdout)["results"])
        notes.append([row["note"] for row in rows])
    (note,) = notes[0]
    assert note.endswith("): 50% off; %r")
    assert notes[1] == [note] * 7


def test_sweep_bad_range_exits_2(runner):
    result = runner.invoke(main, [
        "sweep", "--shape", "conic", "--n", "1", "--consistency", "1",
        "--rmin", "0.5", "--rmax", "1", "--length", "1",
        "--start", "5", "--stop", "1", "--count", "3",
    ])
    assert result.exit_code == 2
    result = runner.invoke(main, [
        "sweep", "--shape", "conic", "--n", "1", "--consistency", "1",
        "--rmin", "0.5", "--rmax", "1", "--length", "1",
        "--start", "0", "--stop", "1", "--count", "3", "--spacing", "log",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("start,stop", [
    ("nan", "1"), ("0.1", "nan"), ("0.1", "inf"), ("-inf", "1"),
    ("inf", "inf"),
])
@pytest.mark.parametrize("quantity", ["flow-rate", "pressure"])
def test_sweep_non_finite_range_exits_2(runner, start, stop, quantity):
    result = runner.invoke(main, [
        "sweep", "--shape", "conic", "--n", "1", "--consistency", "1",
        "--rmin", "0.5", "--rmax", "1", "--length", "1",
        "--quantity", quantity, f"--start={start}", f"--stop={stop}",
        "--count", "3", "--format", "json",
    ])
    assert result.exit_code == 2
    assert "finite and non-negative" in result.output


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_quick_grid(runner):
    result = run(runner, ["validate", "--grid", "quick", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == VALIDATE_HEADER
    rows = parse_csv(result.output)
    assert len(rows) == 15  # 5 shapes x 3 n x 1 ratio x 1 L x 1 Q
    for row in rows:
        assert float(row["rel_err"]) <= 1e-6
        expected = 1e-8 if row["method"] == "quadrature_fallback" else 1e-6
        assert float(row["rel_err"]) <= expected


def test_validate_checks_fallback_rows_against_a_tight_oracle(runner,
                                                             monkeypatch):
    geometric_integral = flow_module._geometric_integral

    def no_cosh_closed_form(spec, n):
        if spec.shape is TubeShape.COSH:
            raise ConvergenceError("closed form stubbed out")
        return geometric_integral(spec, n)

    oracle_tols = collections.Counter()
    oracle = flow_module.pressure_drop_oracle

    def recorded_oracle(fluid, spec, rel_tol, **kwargs):
        oracle_tols[spec.shape.value, rel_tol] += 1
        return oracle(fluid, spec, rel_tol, **kwargs)

    monkeypatch.setattr(flow_module, "_geometric_integral",
                        no_cosh_closed_form)
    monkeypatch.setattr(flow_module, "pressure_drop_oracle", recorded_oracle)
    result = run(runner, ["validate", "--grid", "quick", "--format", "csv"])
    assert result.exit_code == 0
    rows = parse_csv(result.stdout)
    assert {row["method"] for row in rows if row["shape"] == "cosh"} == {
        "quadrature_fallback"}
    assert {row["method"] for row in rows if row["shape"] != "cosh"} == {
        "analytic"}
    # One oracle per tube: 3 indices per shape in the quick grid.
    assert oracle_tols == {
        (shape, cli_module.ORACLE_TIGHT if shape == "cosh"
         else cli_module.DEFAULT_REL_TOL): 3
        for shape in cli_module.SHAPE_NAMES}


def test_validate_exits_3_after_the_full_report(runner, monkeypatch):
    args = ["validate", "--grid", "quick", "--format", "csv"]
    report = run(runner, args).stdout
    # No relative error is below a negative tolerance: every row misses.
    monkeypatch.setattr(cli_module, "TOL", -1.0)
    result = run(runner, args)
    assert result.exit_code == 3
    assert result.stdout == report
    assert result.stderr == ("validate: 15 of 15 grid points exceeded "
                             "their tolerance\n")


def test_validate_holds_every_shape_to_one_tolerance(runner, monkeypatch):
    # A curved-shape K 1e-7 off its oracle fails, as a conic one would.
    geometric_integral = flow_module._geometric_integral

    def drifted(spec, n):
        value, diagnostics = geometric_integral(spec, n)
        if spec.shape is TubeShape.HYPERBOLIC:
            value *= 1.0 + 1e-7
        return value, diagnostics

    monkeypatch.setattr(flow_module, "_geometric_integral", drifted)
    result = run(runner, ["validate", "--grid", "quick", "--format", "csv"])
    assert result.exit_code == 3
    assert result.stderr == ("validate: 3 of 15 grid points exceeded "
                             "their tolerance\n")


def test_sweep_and_validate_compute_each_tube_once(runner, monkeypatch):
    calls = collections.Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(flow_module, "_conductance")
    counted(quadrature, "integrate_inverse_radius_power")
    once = {"_conductance": 1, "integrate_inverse_radius_power": 1}
    result = run(runner, SWEEP_BASE[:-2] + ["--count", "50", "--validate"])
    assert result.exit_code == 0
    assert calls == once
    calls.clear()
    result = run(runner, ["validate", "--grid", "default", "--format", "csv"])
    assert result.exit_code == 0
    assert len(parse_csv(result.output)) == 480  # 240 tubes x 2 Q
    assert calls == {name: 240 for name in once}


def test_validate_json_document(runner):
    result = run(runner, ["validate", "--grid", "quick", "--format", "json"])
    doc = json.loads(result.output)
    assert doc["schema_version"] == 1
    assert doc["config"]["grid"] == "quick"
    assert len(doc["results"]) == 15


@pytest.mark.parametrize("args", [
    SOLVE_CONIC,
    SOLVE_CONIC + ["--validate"],
    SWEEP_BASE,
    SWEEP_BASE + ["--spacing", "log", "--quantity", "pressure",
                  "--validate"],
    SWEEP_BASE + ["--validate", "--periods", "3"],
    ["validate", "--grid", "quick", "--format", "json"],
    ["profile", "--shape", "cosh", "--rmin", "1", "--rmax", "3",
     "--length", "2", "--samples", "7"],
    ["rheology", "--n", "0.7", "--consistency", "1.5"],
], ids=["solve", "solve-validate", "sweep", "sweep-log-validate",
        "sweep-validate-periods", "validate", "profile", "rheology"])
def test_json_output_is_the_indent_2_document(runner, args):
    result = run(runner, args)
    assert result.exit_code == 0
    assert result.output == json.dumps(json.loads(result.output),
                                       indent=2) + "\n"


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False), st.sampled_from([-0.0, 5e-324, 1e308]),
    st.text(), st.sampled_from(['"', "\\", "\n", "a\"b\\c\nd", "é中\u2028"]),
)
_ROWS = st.lists(st.dictionaries(st.text(), _SCALARS, min_size=1),
                 min_size=1, max_size=5)


@given(config=st.dictionaries(st.text(), _SCALARS), rows=_ROWS)
def test_json_rows_are_written_as_indent_2(config, rows):
    doc = {"schema_version": cli_module.SCHEMA_VERSION, "config": config,
           "results": rows}
    assert cli_module._json_document(config, rows) == \
        json.dumps(doc, indent=2) + "\n"


def test_validate_deterministic(runner):
    a = run(runner, ["validate", "--grid", "quick", "--format", "csv"])
    b = run(runner, ["validate", "--grid", "quick", "--format", "csv"])
    assert a.output == b.output


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

PROFILE_ARGS = [
    "profile", "--shape", "sinusoidal", "--rmin", "1", "--rmax", "3",
    "--length", "6.283185", "--samples", "5", "--format", "csv",
]


def test_profile_quarter_period_samples(runner):
    result = run(runner, PROFILE_ARGS)
    rows = parse_csv(result.output)
    assert len(rows) == 5
    xs = [float(r["x"]) for r in rows]
    rs = [float(r["r"]) for r in rows]
    half = 6.283185 / 2.0
    assert xs == pytest.approx([-half, -half / 2, 0.0, half / 2, half])
    assert rs == pytest.approx([3.0, 2.0, 1.0, 2.0, 3.0], rel=1e-12, abs=0.0)


def test_profile_deterministic(runner):
    assert run(runner, PROFILE_ARGS).output == run(runner, PROFILE_ARGS).output


def test_profile_requires_valid_geometry(runner):
    result = runner.invoke(main, [
        "profile", "--shape", "conic", "--rmin", "0", "--rmax", "1",
        "--length", "1",
    ])
    assert result.exit_code == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("shape", cli_module.SHAPE_NAMES)
def test_extreme_profiles_exit_2_or_print_finite_radii(runner, shape,
                                                       extreme_geometries):
    # Before, such a profile exited 0 with Infinity or NaN radii, or 1 with
    # an OverflowError traceback.
    for r_min, r_max, length in extreme_geometries:
        args = ["profile", "--shape", shape, "--rmin", repr(r_min),
                "--rmax", repr(r_max), "--length", repr(length),
                "--samples", "11"]
        for fmt in ("json", "csv"):
            result = runner.invoke(main, [*args, "--format", fmt])
            if result.exit_code == 2:
                assert result.stdout == ""
                assert f"the {shape} profile is outside the float range" \
                    in result.stderr
            elif fmt == "json":
                assert result.exit_code == 0, result.output
                doc = json.loads(result.stdout,
                                 parse_constant=_reject_constant)
                assert len(doc["results"]) == 11
            else:
                assert result.exit_code == 0, result.output
                rows = parse_csv(result.stdout)
                assert all(math.isfinite(float(row[column]))
                           for row in rows for column in ("x", "r"))
                assert "inf" not in result.stdout
                assert "nan" not in result.stdout


@pytest.mark.parametrize("args", [
    ["profile", "--shape", "parabolic", "--rmin", "1", "--rmax", "2",
     "--length", "1e200"],
    ["profile", "--shape", "hyperbolic", "--rmin", "1e-200", "--rmax", "1",
     "--length", "1"],
    ["solve", "--shape", "parabolic", "--n", "1", "--consistency", "1",
     "--rmin", "1", "--rmax", "2", "--length", "1e200", "--flow-rate",
     "1e-190", "--validate"],
], ids=["parabolic", "hyperbolic", "solve"])
def test_an_underflowing_profile_exits_2(runner, args):
    # Before, the profiles printed r = 1.0 at both ends and r = 0.0 at the
    # throat, and the solve exited 0 with rel_err 0.525.
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    shape = args[args.index("--shape") + 1]
    assert f"the {shape} profile is outside the float range" in result.stderr


def test_a_long_conic_profile_with_a_huge_contrast_is_printed(runner):
    # 2 * dr overflowed, and the profile exited 2.
    result = run(runner, ["profile", "--shape", "conic", "--rmin", "1",
                          "--rmax", "1.797e308", "--length", "1e300",
                          "--format", "json"])
    doc = json.loads(result.stdout, parse_constant=_reject_constant)
    radii = [row["r"] for row in doc["results"]]
    assert radii[50] == 1.0
    assert radii[0] == radii[-1] == pytest.approx(1.797e308, rel=1e-12,
                                                  abs=0.0)


# ---------------------------------------------------------------------------
# rheology
# ---------------------------------------------------------------------------

def test_rheology_log_grid(runner):
    result = run(runner, [
        "rheology", "--n", "0.7", "--consistency", "1.5",
        "--gamma-min", "0.01", "--gamma-max", "1000", "--samples", "6",
        "--format", "csv",
    ])
    rows = parse_csv(result.output)
    assert len(rows) == 6
    for row in rows:
        rate = float(row["strain_rate"])
        assert float(row["viscosity"]) == pytest.approx(
            1.5 * rate ** (0.7 - 1.0), rel=1e-12, abs=0.0
        )
        assert float(row["stress"]) == pytest.approx(
            1.5 * rate**0.7, rel=1e-12, abs=0.0
        )
    rates = [float(r["strain_rate"]) for r in rows]
    assert rates[0] == 0.01 and rates[-1] == 1000.0


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("option", ["--gamma-min", "--gamma-max"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rheology_non_finite_bound_exits_2(runner, option, value, fmt):
    result = runner.invoke(main, [
        "rheology", "--n", "0.5", "--consistency", "1", f"{option}={value}",
        "--format", fmt,
    ])
    assert result.exit_code == 2
    assert f"{option} must be finite and non-negative" in result.output


def test_rheology_bad_range_exits_2(runner):
    result = runner.invoke(main, [
        "rheology", "--n", "0.7", "--consistency", "1.5",
        "--gamma-min", "10", "--gamma-max", "1",
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("args,message", [
    # rate^(n-1) raised OverflowError: a traceback and exit 1
    (["--n", "300", "--consistency", "1"],
     "apparent viscosity at strain rate 12.115276586285876 is outside the "
     "float range (n=300.0)"),
    # a finite viscosity times the rate: exit 0 with "stress": Infinity
    (["--n", "100", "--consistency", "1e10"],
     "stress at strain rate 1000.0 is outside the float range"),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rheology_past_the_float_range_exits_2(runner, args, message, fmt):
    with pytest.warns(UserWarning, match="guaranteed-accuracy"):
        result = runner.invoke(main, ["rheology", *args, "--format", fmt])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"\nError: {message}\n")


# ---------------------------------------------------------------------------
# exit codes: 2 for a domain error, 3 for a numerical failure
# ---------------------------------------------------------------------------

COSH_GEOMETRY = ["--shape", "cosh", "--rmin", "1", "--rmax", "2",
                 "--length", "1"]
NEWTONIAN = ["--n", "1", "--consistency", "1"]

# Per command: arguments that pass the parser's own checks but break a
# precondition of the package, and the message printed for it.
DOMAIN_ERRORS = {
    "solve": (["solve", *COSH_GEOMETRY, *NEWTONIAN, "--flow-rate", "-1"],
              "--flow-rate must be finite and non-negative, got -1.0"),
    "sweep": (["sweep", *COSH_GEOMETRY[:4], "--rmax", "0.5",
               *COSH_GEOMETRY[6:], *NEWTONIAN, "--start", "0", "--stop", "1",
               "--count", "3"],
              "r_max must satisfy r_max >= r_min > 0, got r_min=1.0, "
              "r_max=0.5"),
    "validate": (["validate", "--grid", "quick", "--rel-tol", "1e-20"],
                 "rel_tol must be within [1e-14, 0.01], got 1e-20"),
    "profile": (["profile", *COSH_GEOMETRY[:6], "--length", "0"],
                "length must be positive, got 0.0"),
    "rheology": (["rheology", "--n", "0", "--consistency", "1"],
                 "index must be positive, got 0.0"),
}


@pytest.mark.parametrize("command", sorted(DOMAIN_ERRORS))
def test_domain_error_exits_2_with_the_usage_line(runner, command):
    args, message = DOMAIN_ERRORS[command]
    result = runner.invoke(main, args, prog_name="cdtube")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"Usage: cdtube {command} [OPTIONS]\n")
    assert result.stderr.endswith(f"\nError: {message}\n")


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "0.5", "1e-15"])
@pytest.mark.parametrize("command", [SOLVE_CONIC, SWEEP_BASE],
                         ids=["solve", "sweep"])
def test_rel_tol_out_of_range_exits_2_without_validate(runner, command,
                                                       rel_tol):
    # Checked on every command before any work, not only when --validate
    # runs the oracle: "NaN" and "Infinity" are not JSON.
    result = runner.invoke(main, [*command, "--rel-tol", rel_tol,
                                  "--format", "json"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        f"\nError: rel_tol must be within [1e-14, 0.01], "
        f"got {float(rel_tol)}\n")


PAST_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("args,option", [
    ([*SOLVE_CONIC, "--periods", PAST_FLOAT], "--periods"),
    ([*SOLVE_CONIC[:-2], "--pressure", "1", "--periods", PAST_FLOAT],
     "--periods"),
    ([*SWEEP_BASE, "--periods", PAST_FLOAT], "--periods"),
    ([*SWEEP_BASE[:-2], "--count", PAST_FLOAT], "--count"),
    (["rheology", *NEWTONIAN, "--samples", PAST_FLOAT], "--samples"),
    ([*PROFILE_ARGS, "--samples", PAST_FLOAT], "--samples"),
], ids=["solve", "solve-pressure", "sweep", "sweep-count", "rheology",
        "profile"])
def test_integer_past_the_float_range_exits_2(runner, args, option):
    # Only values that float() cannot hold: they fail before any allocation.
    result = runner.invoke(main, args, prog_name="cdtube")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"Usage: cdtube {args[0]} [OPTIONS]\n")
    assert result.stderr.endswith(
        f"\nError: Invalid value for '{option}': {PAST_FLOAT} is outside "
        "the float range.\n")


def test_oracle_past_the_profile_float_range_exits_2(runner):
    # K = 2e-200 is finite, but the oracle's r^2 = r_min^2 + b x^2 is not.
    # Before, --validate blamed "pressure drop at 1.0 overflows".
    args = ["solve", "--shape", "hyperbolic", *NEWTONIAN, "--rmin", "1",
            "--rmax", "1e200", "--length", "1", "--flow-rate", "1"]
    assert run(runner, args).exit_code == 0
    result = runner.invoke(main, [*args, "--validate"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        "\nError: the hyperbolic profile is outside the float range "
        "(r_min=1.0, r_max=1e+200, length=1.0)\n")


NUMERIC_COMMANDS = [
    ["solve", *COSH_GEOMETRY, *NEWTONIAN, "--flow-rate", "1"],
    ["solve", *COSH_GEOMETRY, *NEWTONIAN, "--pressure", "1", "--format",
     "csv"],
    ["sweep", *COSH_GEOMETRY, *NEWTONIAN, "--start", "0", "--stop", "1",
     "--count", "3"],
    ["validate", "--grid", "quick"],
]


@pytest.mark.parametrize("error", [ConvergenceError, EvaluationError])
@pytest.mark.parametrize("args", NUMERIC_COMMANDS,
                         ids=["solve", "solve-pressure", "sweep", "validate"])
def test_numerical_failure_exits_3_with_nothing_on_stdout(runner, monkeypatch,
                                                          args, error):
    def fail(*_args, **_kwargs):
        raise error("no route converged")

    monkeypatch.setattr(flow_module, "_conductance", fail)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "numerical failure: no route converged\n"


# ---------------------------------------------------------------------------
# the command-line parser
# ---------------------------------------------------------------------------

RUNNABLE = {
    "solve": SOLVE_CONIC[1:],
    "sweep": SWEEP_BASE[1:],
    "validate": ["--grid", "quick"],
    "profile": PROFILE_ARGS[1:],
    "rheology": ["--n", "0.7", "--consistency", "1.5"],
}


@pytest.mark.parametrize("command", sorted(RUNNABLE))
def test_a_run_calls_the_callback_set_on_the_command(runner, monkeypatch,
                                                    command):
    # Tracing replaces main.commands[name].callback with setattr.
    original = main.commands[command].callback
    calls = []

    def traced(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(main.commands[command], "callback", traced)
    result = runner.invoke(main, [command, *RUNNABLE[command]])
    assert result.exit_code == 0
    assert len(calls) == 1
    assert set(calls[0]) == {option.dest
                             for option in main.commands[command].options}


PARSE_ERRORS = [
    # A value option takes the next token, even one that starts with "-".
    (SWEEP_BASE + ["--start", "-1e-3"],
     "--start must be finite and non-negative, got -0.001"),
    (SOLVE_CONIC[:-2] + ["--flow-rate", "-inf"],
     "--flow-rate must be finite and non-negative, got -inf"),
    (SOLVE_CONIC + ["--rel-tol", "--validate"],
     "Invalid value for '--rel-tol': '--validate' is not a valid float."),
    # A flag is matched whole, never by a prefix.
    (SOLVE_CONIC[:-2] + ["--flow", "1"],
     "No such option '--flow'. Did you mean '--flow-rate'?"),
    (SOLVE_CONIC + ["-f"], "No such option '-f'."),
    (SOLVE_CONIC + ["--periods", "0"],
     "Invalid value for '--periods': 0 is not in the range x>=1."),
    (SOLVE_CONIC + ["--max-subdivisions", "0"],
     "Invalid value for '--max-subdivisions': 0 is not in the range x>=1."),
    (SWEEP_BASE + ["--count", "1"],
     "Invalid value for '--count': 1 is not in the range x>=2."),
    (PROFILE_ARGS + ["--samples", "1"],
     "Invalid value for '--samples': 1 is not in the range x>=2."),
    (["rheology", "--n", "1", "--consistency", "1", "--samples=2.5"],
     "Invalid value for '--samples': '2.5' is not a valid integer range."),
    (SOLVE_CONIC + ["--format", "xml"],
     "Invalid value for '--format': 'xml' is not one of 'csv', 'json'."),
    # Given options are read in command-line order, before missing ones.
    (["solve", "--n", "fast", "--rmin", "slow"],
     "Invalid value for '--n': 'fast' is not a valid float."),
    (["solve", "--rmin", "1"],
     "Missing option '--shape'. Choose from:\n\tconic,\n\tparabolic,\n\t"
     "hyperbolic,\n\tcosh,\n\tsinusoidal"),
    (SOLVE_CONIC[:5] + SOLVE_CONIC[7:], "Missing option '--consistency'."),
    (SOLVE_CONIC + ["--validate=yes"],
     "Option '--validate' does not take a value."),
    (SOLVE_CONIC + ["--output"], "Option '--output' requires an argument."),
    (SOLVE_CONIC + ["extra", "--", "--help"],
     "Got unexpected extra arguments (extra --help)"),
    (SOLVE_CONIC + ["--rmi", "2"],
     "No such option '--rmi'. (Did you mean one of: '--format', '--rmax', "
     "'--rmin'?)"),
]


@pytest.mark.parametrize("args,message", PARSE_ERRORS)
def test_a_bad_command_line_exits_2_with_the_usage_line(runner, args,
                                                       message):
    result = runner.invoke(main, args)
    command = args[0]
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"Usage: cdtube {command} [OPTIONS]\n"
                             f"Try 'cdtube {command} --help' for help.\n\n"
                             f"Error: {message}\n")


def test_an_existing_output_file_is_overwritten(runner, tmp_path):
    target = tmp_path / "out.json"
    target.write_text("an earlier run's output, longer than the new one " * 99)
    result = run(runner, SOLVE_CONIC + ["--output", str(target)])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert target.read_text() == run(runner, SOLVE_CONIC).stdout


def test_a_directory_is_no_output_file(runner, tmp_path):
    result = runner.invoke(main, SOLVE_CONIC + ["--output", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stderr.endswith(
        f"\nError: Invalid value for '--output': File {str(tmp_path)!r} is "
        "a directory.\n")


# An unwritable --output of each kind: its name under tmp_path and the
# reason open() gives.  A name that ends in "/" is a directory to open();
# "loop" is a symbolic link to itself.
UNWRITABLE_OUTPUTS = {
    "missing-dir": ("missing/out.json", "No such file or directory"),
    "empty": ("", "No such file or directory"),
    "under-a-file": ("afile/out.json", "Not a directory"),
    "new-dir": ("newdir/", "Is a directory"),
    "file-as-dir": ("afile/", "Is a directory"),
    "dir-under-a-file": ("afile/x/", "Not a directory"),
    "symlink-loop": ("loop", "Too many levels of symbolic links"),
    "name-too-long": ("x" * 300, "File name too long"),
}


@pytest.mark.parametrize("case", list(UNWRITABLE_OUTPUTS))
@pytest.mark.parametrize("command", sorted(RUNNABLE))
def test_an_output_that_cannot_be_written_exits_2(runner, monkeypatch,
                                                  tmp_path, command, case):
    # The path is checked before the command's work, none of which runs.
    work = []
    for module, name in [(flow_module, "_conductance"),
                         (flow_module, "pressure_drop_oracle"),
                         (cli_module, "sample_profile"),
                         (cli_module, "apparent_viscosity")]:
        monkeypatch.setattr(module, name,
                            lambda *args, _name=name, **kwargs:
                            work.append(_name))
    name, reason = UNWRITABLE_OUTPUTS[case]
    path = name and os.path.join(tmp_path, name)
    kept = {}
    if name.startswith("afile"):
        kept = {"afile": "kept"}
        (tmp_path / "afile").write_text("kept")
    elif name == "loop":
        kept = {"loop": "loop"}
        (tmp_path / "loop").symlink_to("loop")
    result = runner.invoke(main, [command, *RUNNABLE[command],
                                  "--output", path])
    assert work == []
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"Usage: cdtube {command} [OPTIONS]\nTry 'cdtube {command} --help' "
        f"for help.\n\nError: Invalid value for '--output': {path!r}: "
        f"{reason}\n")
    assert {p.name: os.readlink(p) if p.is_symlink() else p.read_text()
            for p in tmp_path.iterdir()} == kept


def test_a_file_named_as_a_directory_is_reported_by_open(runner, tmp_path):
    (tmp_path / "afile").write_text("kept")
    path = str(tmp_path / "afile") + "/"
    result = runner.invoke(main, SOLVE_CONIC + ["--output", path])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        f"\nError: Invalid value for '--output': {path!r}: Is a directory\n")
    assert (tmp_path / "afile").read_text() == "kept"


def test_an_output_that_fails_to_open_exits_2_after_the_work(
        runner, monkeypatch, tmp_path):
    # What stat cannot foresee, such as a read-only file system, open()
    # reports once the work is done; no file is written.
    work = []
    conductance = flow_module._conductance
    monkeypatch.setattr(flow_module, "_conductance",
                        lambda *args, **kwargs: work.append(args)
                        or conductance(*args, **kwargs))

    def read_only(*args, **kwargs):
        raise OSError(errno.EROFS, "Read-only file system")
    monkeypatch.setattr(cli_module, "open", read_only, raising=False)
    path = str(tmp_path / "out.json")
    result = runner.invoke(main, SOLVE_CONIC + ["--output", path])
    assert len(work) == 1
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        f"\nError: Invalid value for '--output': {path!r}: Read-only file "
        "system\n")
    assert list(tmp_path.iterdir()) == []


def test_an_unreadable_output_file_exits_2_before_the_work(
        runner, monkeypatch, tmp_path):
    target = tmp_path / "out.json"
    target.write_text("kept")
    work = []
    monkeypatch.setattr(flow_module, "_conductance",
                        lambda *args, **kwargs: work.append(args))
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs:
                        path != str(target) and access(path, mode, **kwargs))
    result = runner.invoke(main, SOLVE_CONIC + ["--output", str(target)])
    assert work == []
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(
        f"\nError: Invalid value for '--output': File {str(target)!r} is "
        "not readable.\n")
    assert target.read_text() == "kept"


def _documented_columns():
    """The README's CSV column list of each command."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    columns = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        match = re.fullmatch(r"\* (`\w+`(?:/`\w+`)*): `([\w,]+)`", line)
        if match:
            for command in re.findall(r"`(\w+)`", match[1]):
                columns[command] = match[2]
    return columns


@pytest.mark.parametrize("command", sorted(RUNNABLE))
def test_each_table_is_the_documented_one(runner, command):
    args = [command, *RUNNABLE[command]]
    header = run(runner, args + ["--format", "csv"]).stdout.split("\n")[0]
    assert header == _documented_columns()[command]
    rows = json.loads(run(runner, args + ["--format", "json"]).stdout)[
        "results"]
    assert rows and all(",".join(row) == header for row in rows)


GROUP_USAGE = ("Usage: cdtube [OPTIONS] COMMAND [ARGS]...\n"
               "Try 'cdtube --help' for help.\n\n")


@pytest.mark.parametrize("args,message", [
    (["bogus"], "No such command 'bogus'."),
    (["Solve"], "No such command 'Solve'. Did you mean 'solve'?"),
    (["--vers"], "No such option '--vers'. Did you mean '--version'?"),
    (["--"], "Missing command."),
])
def test_a_bad_command_exits_2(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stderr == f"{GROUP_USAGE}Error: {message}\n"


def test_no_command_prints_the_help_on_stderr_and_exits_2(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == runner.invoke(main, ["--help"]).stdout


@pytest.mark.parametrize("args", [["--version"], ["--version", "bogus"],
                                  ["--", "--version"]])
def test_version(runner, args):
    result = runner.invoke(main, args, prog_name="anything")
    assert result.exit_code == 0
    assert result.output == "cdtube, version 0.1.0\n"


def test_group_help_names_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(
        "Usage: cdtube [OPTIONS] COMMAND [ARGS]...\n\n  Pressure-drop/")
    for name in ["--version", "--help", *main.commands]:
        assert f"\n  {name} " in result.stdout


@pytest.mark.parametrize("command", sorted(RUNNABLE))
def test_command_help_names_every_option_in_its_table(runner, command):
    # --help acts before the other options are read.
    result = runner.invoke(main, [command, "--format", "xml", "--help"])
    assert result.exit_code == 0
    assert result.stderr == ""
    assert result.stdout.startswith(f"Usage: cdtube {command} [OPTIONS]\n")
    flags = [option.flag for option in main.commands[command].options]
    for flag in [*flags, "--help"]:
        assert f"\n  {flag} " in result.stdout or \
            f"\n  {flag}\n" in result.stdout


def _help_rows(runner, command):
    """Each option's ``--help`` row of the command, by flag, with its
    whitespace, which the width of the page's name column sets, folded."""
    page = run(runner, [command, "--help"]).stdout
    rows = collections.defaultdict(list)
    for line in page.split("\nOptions:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            flag = line.split()[0]
        rows[flag] += line.split()
    return rows


@pytest.mark.parametrize("flag", ["--periods", "--validate", "--rel-tol",
                                  "--output"])
def test_a_shared_option_has_one_help_row(runner, flag):
    commands = [name for name, command in main.commands.items()
                if flag in (option.flag for option in command.options)]
    rows = {name: " ".join(_help_rows(runner, name)[flag])
            for name in commands}
    assert len(commands) >= 2 and len(set(rows.values())) == 1, rows


@pytest.mark.parametrize("command", [None, *sorted(main.commands)])
def test_every_help_row_has_text(runner, command):
    # A row is its name, then its text on the same line or on the lines
    # below, indented past the name column.
    if command is None:
        page = run(runner, ["--help"]).stdout
        names = [cli_module._VERSION.row()[0], cli_module._HELP.row()[0],
                 *main.commands]
    else:
        page = run(runner, [command, "--help"]).stdout
        names = [option.row()[0] for option in
                 (*main.commands[command].options, cli_module._HELP)]
    lines = page.splitlines()
    texts = {}
    for i, line in enumerate(lines):
        name = next((name for name in names
                     if f"{line} ".startswith(f"  {name} ")), None)
        if name is not None:
            text = [line[2 + len(name):].strip()]
            text += [more.strip() for more in itertools.takewhile(
                lambda more: more.startswith("   "), lines[i + 1:])]
            texts[name] = " ".join(text).strip()
    assert set(texts) == set(names)
    assert all(texts.values()), texts


def test_the_program_name_under_python_m():
    result = subprocess.run(
        [sys.executable, "-m", "cdtube", "solve", "--flow", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        check=False,
    )
    assert result.returncode == 2
    assert result.stderr.startswith(
        "Usage: python -m cdtube solve [OPTIONS]\n"
        "Try 'python -m cdtube solve --help' for help.\n\n")


def test_a_closed_stdout_exits_1_quietly(monkeypatch, tmp_path):
    # As when `cdtube sweep ... | head` stops reading.
    with open(tmp_path / "stdout", "w") as target:
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(SystemExit) as exit_info:
            main(SOLVE_CONIC, prog_name="cdtube")
    assert exit_info.value.code == 1
    assert (tmp_path / "stdout").read_text() == ""


def test_an_interrupt_exits_1(runner, monkeypatch):
    def interrupted(**_kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(main.commands["solve"], "callback", interrupted)
    result = runner.invoke(main, SOLVE_CONIC)
    assert result.exit_code == 1
    assert result.stderr == "\nAborted!\n"
