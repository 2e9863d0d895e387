"""Command-line front end.

Subcommands
-----------
solve     one operating point (flow rate -> pressure drop, or the inverse)
sweep     a range of operating points, through one conductance K
validate  analytic-vs-quadrature report over a parameter grid
profile   (x, r) samples of a tube profile
rheology  viscosity/stress samples of the fluid model on a log grid

Output is CSV or JSON on stdout (or ``--output``), deterministic across
repeated invocations: fixed column order, shortest round-trip float
formatting, LF line endings.  All quantities are SI: radii and lengths in
m, flow rates in m^3/s, pressures in Pa, consistency in Pa*s^n.

Exit codes: 0 success, 2 argument or validation errors, 3 numerical
failure (neither the analytic route nor the quadrature oracle converged).
"""

import csv
import io
import itertools
import json
import math
import operator
import sys
import warnings

import click

from . import __version__, flow
from .errors import (
    CdtubeError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    require_finite_non_negative,
)
from .fluid import PowerLawFluid, apparent_viscosity
from .flow import METHOD_FALLBACK, flow_rate as solve_flow_rate
from .flow import pressure_drop as solve_pressure_drop
from .geometry import TubeShape, TubeSpec, sample_profile
from .quadrature import DEFAULT_REL_TOL, MAX_PANELS, pressure_drop_oracle

SCHEMA_VERSION = 1

SHAPE_NAMES = [shape.value for shape in TubeShape]

SOLVE_COLUMNS = ["shape", "n", "C", "r_min", "r_max", "length", "periods",
                 "Q", "P", "method", "branch", "note", "oracle", "rel_err"]
VALIDATE_COLUMNS = ["shape", "n", "C", "r_min", "r_max", "length", "Q",
                    "P_analytic", "P_numeric", "rel_err", "method", "branch"]
PROFILE_COLUMNS = ["x", "r"]
RHEOLOGY_COLUMNS = ["strain_rate", "viscosity", "stress"]

# Acceptance-style validation grid (r_min = 1 m, C = 1 Pa*s^n).
DEFAULT_GRID = {
    "n": (0.4, 0.6, 0.8, 1.0, 1.2, 1.6),
    "ratio": (1.1, 2.0, 4.0, 10.0),
    "length": (1.0, 10.0),
    "flow_rate": (1e-3, 1.0),
}
QUICK_GRID = {
    "n": (0.6, 1.0, 1.2),
    "ratio": (2.0,),
    "length": (1.0,),
    "flow_rate": (1.0,),
}

# Per-row thresholds for the validate report.
TOL_CONIC = 1e-8
TOL_FALLBACK = 1e-8
TOL_DEFAULT = 1e-6
# Fallback rows come from quadrature at FALLBACK_REL_TOL, so their oracle
# runs at this tighter tolerance, whatever --rel-tol says.
ORACLE_TIGHT = 1e-12


# Separates the fields of one result row in the ``indent=2`` layout.  Set
# without ``indent``, it keeps ``json`` on its C encoder.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_document(config: dict, rows) -> str:
    """The output document as ``json.dumps(doc, indent=2)`` writes it, and
    a final newline, with the rows written by the C encoder.

    ``rows`` is a non-empty list of non-empty dicts of scalars, as every
    subcommand emits.
    """
    head = json.dumps({"schema_version": SCHEMA_VERSION, "config": config,
                       "results": []}, indent=2)
    body = ",\n    ".join("{\n      " + _ROW_ENCODER.encode(row)[1:-1]
                           + "\n    }" for row in rows)
    # head ends with the empty list: '[]\n}'
    return f"{head[:-4]}[\n    {body}\n  ]\n}}\n"


def _emit(fmt: str, output, config: dict, columns, rows) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        # csv writes None as "" and a float as its shortest repr.
        writer.writerows(map(operator.itemgetter(*columns), rows))
        text = buf.getvalue()
    else:
        text = _json_document(config, rows)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _spaced(start: float, stop: float, count: int, log: bool = False):
    """``count`` floats from ``start`` to ``stop``, both exact.

    Linear spacing is ``np.linspace``'s algorithm, bit for bit.  Log
    spacing is ``np.geomspace``'s: ``10 ** v`` over the linear grid of the
    endpoints' ``log10``, here from libm.  An inner point whose exponent
    rounds to the top one is ``stop`` itself, so no power overflows.
    """
    if log:
        top = math.log10(stop)
        inner = _spaced(math.log10(start), top, count)[1:-1]
        return [start, *[10.0 ** v if v < top else stop for v in inner],
                stop]
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0.0:  # a subnormal step; numpy divides the index first
        values = [i / div * delta + start for i in range(count)]
    else:
        values = [i * step + start for i in range(count)]
    values[-1] = stop
    return values


def _solve_row(fluid, spec, periods, given_flow, given_pressure, solve_unit):
    """One row in SOLVE_COLUMNS order.

    ``solve_unit(value, pressure_given)`` solves one corrugation unit at
    that Q, or at that P when ``pressure_given``.
    """
    if given_flow is not None:
        result = solve_unit(given_flow, False)
        q_val = given_flow
        p_val = periods * result.pressure_drop
    else:
        result = solve_unit(given_pressure / periods, True)
        q_val = result.flow_rate
        p_val = given_pressure
    oracle = (None if result.oracle_value is None
              else periods * result.oracle_value)
    if not math.isfinite(p_val) or (oracle is not None
                                    and not math.isfinite(oracle)):
        raise DomainError(
            f"pressure drop over {periods} periods overflows the float range"
        )
    return {
        "shape": spec.shape.value, "n": fluid.index, "C": fluid.consistency,
        "r_min": spec.r_min, "r_max": spec.r_max, "length": spec.length,
        "periods": periods,
        "Q": q_val, "P": p_val, "method": result.method,
        "branch": None, "note": result.diagnostics,
        "oracle": oracle, "rel_err": result.rel_error,
    }


class _Command(click.Command):
    """A subcommand under the exit contract of the package's errors.

    A numerical failure (:class:`ConvergenceError` or
    :class:`EvaluationError`) exits 3; any other :class:`CdtubeError`
    becomes a usage error, exit 2.  numpy's overflow warnings are not
    printed: an integrand that overflows makes the quadrature raise a
    DomainError that says so.
    """

    def invoke(self, ctx):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "overflow encountered",
                                    RuntimeWarning)
            try:
                return super().invoke(ctx)
            except (ConvergenceError, EvaluationError) as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(3)
            except CdtubeError as exc:
                raise click.UsageError(str(exc), ctx) from exc


@click.group()
@click.version_option(version=__version__, prog_name="cdtube")
def main():
    """Pressure-drop/flow-rate solver for power-law fluids in
    converging-diverging capillaries."""


main.command_class = _Command


def _options(*decorators):
    """One decorator applying ``decorators``, the first outermost."""
    def apply(func):
        for deco in reversed(decorators):
            func = deco(func)
        return func
    return apply


_geometry_options = _options(
    click.option("--shape", type=click.Choice(SHAPE_NAMES), required=True,
                 help="Tube profile."),
    click.option("--rmin", type=float, required=True,
                 help="Throat radius (m)."),
    click.option("--rmax", type=float, required=True,
                 help="Entry/exit radius (m)."),
    click.option("--length", type=float, required=True,
                 help="Length of one corrugation unit (m)."),
)
_fluid_options = _options(
    click.option("--n", type=float, required=True,
                 help="Flow behavior index (dimensionless)."),
    click.option("--consistency", type=float, required=True,
                 help="Consistency factor C (Pa*s^n)."),
)
_output_options = _options(
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="json", show_default=True),
    click.option("--output", type=click.Path(dir_okay=False), default=None,
                 help="Write to this path instead of stdout."),
)


@main.command()
@_geometry_options
@_fluid_options
@click.option("--flow-rate", type=float, default=None,
              help="Volumetric flow rate (m^3/s); solves for pressure drop.")
@click.option("--pressure", type=float, default=None,
              help="Total pressure drop (Pa); solves for flow rate.")
@click.option("--periods", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Number of corrugation units in series.")
@click.option("--validate", is_flag=True,
              help="Co-evaluate the quadrature oracle and report the "
                   "relative deviation.")
@click.option("--rel-tol", type=float, default=DEFAULT_REL_TOL,
              show_default=True, help="Oracle relative tolerance.")
@click.option("--max-subdivisions", type=click.IntRange(min=1),
              default=MAX_PANELS, show_default=True,
              help="Panel cap for quadrature fallback runs.")
@_output_options
def solve(shape, rmin, rmax, length, n, consistency, flow_rate, pressure,
          periods, validate, rel_tol, max_subdivisions, fmt, output):
    """Solve one operating point."""
    if (flow_rate is None) == (pressure is None):
        raise click.UsageError(
            "exactly one of --flow-rate or --pressure is required"
        )
    if flow_rate is not None:
        require_finite_non_negative("--flow-rate", flow_rate)
    if pressure is not None:
        require_finite_non_negative("--pressure", pressure)
    config = {
        "subcommand": "solve", "shape": shape, "n": n,
        "consistency": consistency, "r_min": rmin, "r_max": rmax,
        "length": length, "periods": periods, "flow_rate": flow_rate,
        "pressure": pressure, "validate": validate, "rel_tol": rel_tol,
        "max_subdivisions": max_subdivisions, "format": fmt,
    }
    fluid = PowerLawFluid(consistency=consistency, index=n)
    spec = TubeSpec(shape=shape, r_min=rmin, r_max=rmax, length=length)

    def solve_unit(value, pressure_given):
        solver = solve_flow_rate if pressure_given else solve_pressure_drop
        return solver(fluid, spec, value, validate=validate,
                      oracle_rel_tol=rel_tol, max_panels=max_subdivisions)

    row = _solve_row(fluid, spec, periods, flow_rate, pressure, solve_unit)
    _emit(fmt, output, config, SOLVE_COLUMNS, [row])


@main.command()
@_geometry_options
@_fluid_options
@click.option("--quantity", type=click.Choice(["flow-rate", "pressure"]),
              default="flow-rate", show_default=True,
              help="Which quantity the sweep varies.")
@click.option("--start", type=float, required=True)
@click.option("--stop", type=float, required=True)
@click.option("--count", type=click.IntRange(min=2), required=True)
@click.option("--spacing", type=click.Choice(["linear", "log"]),
              default="linear", show_default=True)
@click.option("--periods", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--validate", is_flag=True)
@click.option("--rel-tol", type=float, default=DEFAULT_REL_TOL,
              show_default=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Accepted for compatibility and ignored: every row "
                   "reuses one K, so there is no work to share out.")
@_output_options
def sweep(shape, rmin, rmax, length, n, consistency, quantity, start, stop,
          count, spacing, periods, validate, rel_tol, jobs, fmt, output):
    """Sweep flow rate or pressure over a range."""
    require_finite_non_negative("--start", start)
    require_finite_non_negative("--stop", stop)
    if not start < stop:
        raise click.UsageError("--start must be less than --stop")
    if spacing == "log" and start <= 0:
        raise click.UsageError("log spacing requires --start > 0")
    values = _spaced(start, stop, count, log=spacing == "log")
    config = {
        "subcommand": "sweep", "shape": shape, "n": n,
        "consistency": consistency, "r_min": rmin, "r_max": rmax,
        "length": length, "periods": periods, "quantity": quantity,
        "start": start, "stop": stop, "count": count, "spacing": spacing,
        "validate": validate, "rel_tol": rel_tol, "format": fmt,
    }
    fluid = PowerLawFluid(consistency=consistency, index=n)
    spec = TubeSpec(shape=shape, r_min=rmin, r_max=rmax, length=length)
    # Only Q or P varies along the sweep: K, and the oracle's integral,
    # are computed once.
    cond = flow._conductance(fluid, spec)
    oracle = pressure_drop_oracle(fluid, spec, rel_tol) if validate else None

    def solve_unit(value, pressure_given):
        return flow._operating_point(fluid, cond, value, pressure_given,
                                     oracle)

    rows = [
        _solve_row(fluid, spec, periods,
                   v if quantity == "flow-rate" else None,
                   v if quantity == "pressure" else None,
                   solve_unit)
        for v in values
    ]
    _emit(fmt, output, config, SOLVE_COLUMNS, rows)


@main.command()
@click.option("--grid", type=click.Choice(["default", "quick"]),
              default="default", show_default=True)
@click.option("--rel-tol", type=float, default=DEFAULT_REL_TOL,
              show_default=True, help="Oracle relative tolerance.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def validate(grid, rel_tol, fmt, output):
    """Cross-validate every closed form against the quadrature oracle.

    Exits 3 if any grid point misses its tolerance (1e-8 for the conic
    and for fallback rows, 1e-6 otherwise).
    """
    grid_def = DEFAULT_GRID if grid == "default" else QUICK_GRID
    config = {"subcommand": "validate", "grid": grid, "rel_tol": rel_tol,
              "format": fmt}
    rows = []
    failures = []
    tubes = itertools.product(SHAPE_NAMES, grid_def["n"], grid_def["ratio"],
                              grid_def["length"])
    for shape, n, ratio, length in tubes:
        fluid = PowerLawFluid(consistency=1.0, index=n)
        spec = TubeSpec(shape=shape, r_min=1.0, r_max=ratio, length=length)
        # As in sweep: K and the oracle's integral once per tube.
        cond = flow._conductance(fluid, spec)
        _, method, _ = cond
        if method == METHOD_FALLBACK:
            oracle_tol, tol = ORACLE_TIGHT, TOL_FALLBACK
        elif shape == TubeShape.CONIC.value:
            oracle_tol, tol = rel_tol, TOL_CONIC
        else:
            oracle_tol, tol = rel_tol, TOL_DEFAULT
        oracle = pressure_drop_oracle(fluid, spec, oracle_tol)
        for q in grid_def["flow_rate"]:
            result = flow._operating_point(fluid, cond, q, False, oracle)
            row = {
                "shape": shape, "n": n, "C": 1.0, "r_min": 1.0,
                "r_max": ratio, "length": length, "Q": q,
                "P_analytic": result.pressure_drop,
                "P_numeric": result.oracle_value,
                "rel_err": result.rel_error, "method": result.method,
                "branch": None,
            }
            rows.append(row)
            if not result.rel_error <= tol:
                failures.append(row)
    _emit(fmt, output, config, VALIDATE_COLUMNS, rows)
    if failures:
        click.echo(
            f"validate: {len(failures)} of {len(rows)} grid points exceeded "
            "their tolerance",
            err=True,
        )
        sys.exit(3)


@main.command()
@_geometry_options
@click.option("--samples", type=click.IntRange(min=2), default=101,
              show_default=True)
@_output_options
def profile(shape, rmin, rmax, length, samples, fmt, output):
    """Sample the tube radius along the axis as (x, r) pairs."""
    spec = TubeSpec(shape=shape, r_min=rmin, r_max=rmax, length=length)
    xs, rs = sample_profile(spec, samples)
    config = {"subcommand": "profile", "shape": shape, "r_min": rmin,
              "r_max": rmax, "length": length, "samples": samples,
              "format": fmt}
    rows = [{"x": float(x), "r": float(r)} for x, r in zip(xs, rs)]
    _emit(fmt, output, config, PROFILE_COLUMNS, rows)


@main.command()
@_fluid_options
@click.option("--gamma-min", type=float, default=1e-2, show_default=True,
              help="Lowest strain rate (1/s).")
@click.option("--gamma-max", type=float, default=1e3, show_default=True,
              help="Highest strain rate (1/s).")
@click.option("--samples", type=click.IntRange(min=2), default=61,
              show_default=True)
@_output_options
def rheology(n, consistency, gamma_min, gamma_max, samples, fmt, output):
    """Sample the fluid model on a log grid of strain rates."""
    require_finite_non_negative("--gamma-min", gamma_min)
    require_finite_non_negative("--gamma-max", gamma_max)
    if not 0 < gamma_min < gamma_max:
        raise click.UsageError("require 0 < --gamma-min < --gamma-max")
    fluid = PowerLawFluid(consistency=consistency, index=n)
    config = {"subcommand": "rheology", "n": n, "consistency": consistency,
              "gamma_min": gamma_min, "gamma_max": gamma_max,
              "samples": samples, "format": fmt}
    rows = []
    for rate in _spaced(gamma_min, gamma_max, samples, log=True):
        visc = apparent_viscosity(fluid, rate)
        stress = visc * rate
        if stress == math.inf:
            raise DomainError(f"stress at strain rate {rate!r} is outside "
                              "the float range")
        rows.append({"strain_rate": rate, "viscosity": visc,
                     "stress": stress})
    _emit(fmt, output, config, RHEOLOGY_COLUMNS, rows)


if __name__ == "__main__":
    main()
