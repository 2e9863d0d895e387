"""A closed-form solve, a sweep and ``rheology`` run on scalar ``math``:
they must not load numpy.  The command line is parsed by the standard
library alone, so no probe loads a third-party parser either.  The value
types build their classes without ``dataclasses``, so no probe loads it,
nor the ``inspect`` it imports, which add about 10 ms to every process.
Nor does a closed-form path compile what it does not run: the quadrature
(with ``heapq``), the paper's continued kernels, or the writer of the
other output format.

Each probe runs in a fresh interpreter, because a module once imported
stays in ``sys.modules`` for the life of the process.  A probe prints its
findings as a Python literal, so that it imports no writer itself.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE_HEADER = r"""
import runpy
import sys

HEAVY = ("numpy", "numba", "multiprocessing", "click", "dataclasses",
         "inspect")
loaded = {}


def record(step):
    loaded[step] = [name for name in HEAVY if name in sys.modules]
"""

CLOSED_FORM_PROBE = PROBE_HEADER + r"""
import cdtube.cli
record("import cdtube.cli")

import cdtube
fluid = cdtube.PowerLawFluid(1.3, 0.8)  # 3n = 2.4: no shape degenerates
for shape in cdtube.TubeShape:
    spec = cdtube.TubeSpec(shape, 1e-5, 4e-5, 3e-4)
    result = cdtube.pressure_drop(fluid, spec, 2.5e-10)
    assert result.method == "analytic", (shape, result.method)
    record(f"pressure_drop {shape.value}")

sys.argv = ["cdtube", "solve", "--shape", "sinusoidal", "--n", "0.8",
            "--consistency", "1.3", "--rmin", "1e-5", "--rmax", "4e-5",
            "--length", "3e-4", "--flow-rate", "2.5e-10"]
try:
    runpy.run_module("cdtube", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
record("python -m cdtube solve")
print(repr(loaded))
"""

ARRAY_PROBE = PROBE_HEADER + r"""
import cdtube
import cdtube.flow

if %r:
    # A closed form that does not converge sends the solve to quadrature.
    def no_closed_form(spec, n):
        raise cdtube.ConvergenceError("closed form stubbed out")
    cdtube.flow._geometric_integral = no_closed_form

fluid = cdtube.PowerLawFluid(1.0, %r)
spec = cdtube.TubeSpec(cdtube.TubeShape(%r), 1.0, 4.0, 1.0)
result = cdtube.pressure_drop(fluid, spec, 1.0, validate=%r)
record("solve")
print(repr({"loaded": loaded, "method": result.method}))
"""


COMMAND_PROBE = PROBE_HEADER + r"""
import contextlib
import io

sys.argv = ["cdtube", *%r]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("cdtube", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
record("command")
print(repr(loaded))
"""

# Loaded only by the oracle, a fallback, or the continued kernels.
FIRST_USE = ("cdtube.quadrature", "cdtube._continued", "heapq")

FIRST_USE_PROBE = PROBE_HEADER + r"""
import contextlib
import io

import cdtube
record("import cdtube")
import cdtube.cli
record("import cdtube.cli")
for args in [["--version"], *%r]:
    sys.argv = ["cdtube", *args]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("cdtube", run_name="__main__")
        except SystemExit as exc:
            assert not exc.code, exc.code
    record(args[0])
fluid = cdtube.PowerLawFluid(1.3, 0.8)
for shape in cdtube.TubeShape:
    spec = cdtube.TubeSpec(shape, 1e-5, 4e-5, 3e-4)
    for solve in (cdtube.pressure_drop, cdtube.flow_rate):
        assert solve(fluid, spec, 2.5e-10).method == "analytic"
    record(f"pressure_drop {shape.value}")
# The sinusoid's other two forms: the ring expansion (ratio 1e6), and the
# Pfaff series past ratio 17 + 12 sqrt 2 at an exact half-odd 3n = 1.5.
for label, n, r_max in (("ring", 0.8, 10.0), ("half-odd", 0.5, 1e-2)):
    spec = cdtube.TubeSpec(cdtube.TubeShape.SINUSOIDAL, 1e-5, r_max, 3e-4)
    for solve in (cdtube.pressure_drop, cdtube.flow_rate):
        result = solve(cdtube.PowerLawFluid(1.3, n), spec, 2.5e-10)
        assert result.method == "analytic"
    record(f"pressure_drop sinusoidal {label}")
print(repr(loaded))
"""

SWEEP = ["sweep", "--shape", "cosh", "--n", "0.8", "--consistency", "1.3",
         "--rmin", "1e-5", "--rmax", "4e-5", "--length", "3e-4",
         "--start", "1e-12", "--stop", "1e-9", "--count", "50"]


def _probe(code):
    env = {**os.environ,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_closed_form_solves_do_not_load_numpy():
    loaded = _probe(CLOSED_FORM_PROBE)
    assert list(loaded) == ["import cdtube.cli",
                            *(f"pressure_drop {shape}" for shape in
                              ("conic", "parabolic", "hyperbolic", "cosh",
                               "sinusoidal")),
                            "python -m cdtube solve"]
    assert loaded == dict.fromkeys(loaded, [])


def test_newtonian_cosh_and_sinusoid_do_not_load_numpy():
    # 3n = 3, where the paper's continued forms degenerate.
    for shape in ("cosh", "sinusoidal"):
        solved = _probe(ARRAY_PROBE % (False, 1.0, shape, False))
        assert solved["method"] == "analytic"
        assert solved["loaded"]["solve"] == []


def test_quadrature_loads_numpy():
    validated = _probe(ARRAY_PROBE % (False, 0.8, "parabolic", True))
    assert validated["method"] == "analytic"
    assert "numpy" in validated["loaded"]["solve"]
    fallback = _probe(ARRAY_PROBE % (True, 1.0, "cosh", False))
    assert fallback["method"] == "quadrature_fallback"
    assert "numpy" in fallback["loaded"]["solve"]


@pytest.mark.parametrize("args", [
    [*SWEEP, "--spacing", spacing, "--format", fmt]
    for spacing in ("linear", "log") for fmt in ("csv", "json")
] + [["rheology", "--n", "0.7", "--consistency", "1.5", "--format", fmt]
     for fmt in ("csv", "json")])
def test_sweep_and_rheology_do_not_load_numpy(args):
    assert _probe(COMMAND_PROBE % (args,)) == {"command": []}


def test_validated_sweep_loads_numpy():
    loaded = _probe(COMMAND_PROBE % ([*SWEEP, "--validate"],))
    assert "numpy" in loaded["command"]


def test_version_loads_neither_dataclasses_nor_inspect():
    assert _probe(COMMAND_PROBE % (["--version"],)) == {"command": []}


SOLVE = ["solve", "--shape", "hyperbolic", "--n", "0.8", "--consistency",
         "1.3", "--rmin", "1e-5", "--rmax", "4e-5", "--length", "3e-4",
         "--flow-rate", "2.5e-10"]


def _watching(watched, probe):
    """``probe``, recording the modules ``watched`` in place of HEAVY."""
    assert probe.startswith(PROBE_HEADER)
    return f"{PROBE_HEADER}HEAVY = {watched!r}\n{probe[len(PROBE_HEADER):]}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_form_paths_compile_neither_the_oracle_nor_the_continued_forms(
        fmt):
    commands = [[*SOLVE, "--format", fmt], [*SWEEP, "--format", fmt]]
    loaded = _probe(_watching(FIRST_USE, FIRST_USE_PROBE) % (commands,))
    assert list(loaded) == [
        "import cdtube", "import cdtube.cli", "--version", "solve", "sweep",
        *(f"pressure_drop {shape}" for shape in
          ("conic", "parabolic", "hyperbolic", "cosh", "sinusoidal")),
        "pressure_drop sinusoidal ring", "pressure_drop sinusoidal half-odd"]
    assert loaded == dict.fromkeys(loaded, [])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_each_format_loads_only_its_own_writer(command, fmt):
    args = SOLVE if command == "solve" else SWEEP
    loaded = _probe(_watching(("csv", "json"), COMMAND_PROBE)
                    % ([*args, "--format", fmt],))
    assert loaded == {"command": [fmt]}


@pytest.mark.parametrize("args", [
    ["validate", "--grid", "quick"],
    [*SOLVE, "--validate"],
    [*SWEEP, "--validate", "--format", "csv"],
], ids=["validate", "solve-validate", "sweep-validate"])
def test_the_oracle_loads_the_quadrature(args):
    loaded = _probe(_watching(FIRST_USE, COMMAND_PROBE) % (args,))
    assert loaded == {"command": ["cdtube.quadrature", "heapq"]}


def test_a_fallback_loads_the_quadrature():
    fallback = _probe(_watching(FIRST_USE, ARRAY_PROBE)
                      % (True, 1.0, "cosh", False))
    assert fallback["method"] == "quadrature_fallback"
    assert fallback["loaded"]["solve"] == ["cdtube.quadrature", "heapq"]


def test_an_unknown_flow_attribute_is_absent_and_imports_nothing():
    found = _probe(r"""
import sys
import cdtube.flow
before = set(sys.modules)
found = hasattr(cdtube.flow, "no_such_name")
print(repr({"found": found, "imported": sorted(set(sys.modules) - before)}))
""")
    assert found == {"found": False, "imported": []}


REPLACED_BINDING_PROBE = r"""
import sys
import cdtube
import cdtube.flow
from cdtube.fluid import QuadratureResult

calls = []


def replacement(*args, **kwargs):
    calls.append(args)
    return QuadratureResult(2.5, 0.0, 1)


cdtube.flow.%s = replacement
if %r:
    def no_closed_form(spec, n):
        raise cdtube.ConvergenceError("closed form stubbed out")
    cdtube.flow._geometric_integral = no_closed_form
fluid = cdtube.PowerLawFluid(1.0, 0.8)
spec = cdtube.TubeSpec(cdtube.TubeShape.COSH, 1.0, 4.0, 1.0)
result = cdtube.pressure_drop(fluid, spec, 1.0, validate=%r)
print(repr({"calls": len(calls), "method": result.method,
            "oracle": result.oracle_value,
            "quadrature": "cdtube.quadrature" in sys.modules}))
"""


@pytest.mark.parametrize("name,stubbed,validate,method,oracle", [
    ("integrate_inverse_radius_power", True, False, "quadrature_fallback",
     None),
    ("pressure_drop_numeric", False, True, "analytic", 2.5),
], ids=["fallback", "oracle"])
def test_a_function_assigned_to_flow_is_the_one_the_solve_calls(
        name, stubbed, validate, method, oracle):
    # Assigned before the process's first fallback or oracle: flow reads
    # the name through its module __getattr__, which returns what the
    # module holds and binds the quadrature's function only if nothing is.
    solved = _probe(REPLACED_BINDING_PROBE % (name, stubbed, validate))
    assert solved == {"calls": 1, "method": method, "oracle": oracle,
                      "quadrature": False}


def test_the_continued_kernels_load_on_first_use():
    # gauss_2f1 at z = -5 takes the 1/(1-z) route of its route map.
    for call in ("gauss_2f1(0.5, 0.8, 1.9, -5.0)",
                 "appell_f1(-1.2, 0.5, 0.5, -0.2, 1.0, 3.0)"):
        loaded = _probe(_watching(FIRST_USE, PROBE_HEADER + rf"""
import cdtube
record("import cdtube")
cdtube.{call}
record("call")
print(repr(loaded))
"""))
        assert loaded == {"import cdtube": [], "call": ["cdtube._continued"]}


def test_the_modules_read_on_every_solve_keep_no_module_getattr():
    # A module __getattr__ (PEP 562) keeps CPython from specializing any
    # attribute load on that module, which then costs about 25 ns more:
    # cdtube.pressure_drop in a caller's loop, special._series_checked in
    # every K.  So these modules import the continued kernels and the
    # quadrature inside the functions that call them, and the CLI reads
    # the oracle through flow, which alone keeps one.
    import cdtube
    from cdtube import cli, special

    for module in (cdtube, special, cli):
        assert "__getattr__" not in vars(module), module.__name__
