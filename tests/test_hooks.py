"""Every benchmark hook stays on the path it measures.

The benchmark in ``perfbench/`` replaces module attributes of cdtube with
tracing wrappers (``layertrace.HOOKS``).  A hook whose target still
resolves but is no longer called records nothing, and its metrics read 0
on working code.  Each test here runs one operation with the hooks in
place and checks the spans it must record.
"""

import operator
import sys
from pathlib import Path

import pytest

import cdtube
from cdtube import ConvergenceError, PowerLawFluid, TubeShape, TubeSpec
from cdtube import cli as cli_module
from cdtube import flow as flow_module

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layertrace  # noqa: E402

FLUID = PowerLawFluid(consistency=1.0, index=0.7)
TUBE = ["--shape", "cosh", "--rmin", "1", "--rmax", "2", "--length", "1",
        "--n", "0.7", "--consistency", "1"]


def _traced(operation):
    """The span names ``operation()`` records with every hook installed."""
    tracer = layertrace.Tracer()
    installed = layertrace.Installed(tracer)
    try:
        assert installed.absent == []
        operation()
    finally:
        installed.remove()
    return {span[layertrace.NAME] for span in tracer.spans}


def _cli(runner, *args):
    def invoke():
        result = runner.invoke(cli_module.main, args)
        assert result.exit_code == 0, result.output
    return invoke


def _closed_form_fails(spec, n):
    raise ConvergenceError("closed form stubbed out")


@pytest.fixture()
def no_closed_form(monkeypatch):
    monkeypatch.setattr(flow_module, "_geometric_integral", _closed_form_fails)


def test_a_parabolic_pressure_drop():
    spec = TubeSpec(TubeShape.PARABOLIC, 1.0, 3.0, 1.0)
    names = _traced(lambda: cdtube.pressure_drop(FLUID, spec, 1.0))
    # The beta forms take the incomplete beta's continued fraction, which
    # sums no series.
    assert names == {"flow.pressure_drop", "flow.conductance"}


def test_a_validated_flow_rate():
    spec = TubeSpec(TubeShape.HYPERBOLIC, 1.0, 3.0, 1.0)
    names = _traced(lambda: cdtube.flow_rate(FLUID, spec, 1.0,
                                             validate=True))
    assert names >= {"flow.flow_rate", "flow.conductance",
                     "quadrature.pressure_drop_numeric",
                     "quadrature.integrate", "kernels.inverse_radius_power",
                     "geometry.coefficients"}
    assert "quadrature.fallback_integrate" not in names


def test_a_solve_whose_closed_form_fails(no_closed_form):
    spec = TubeSpec(TubeShape.COSH, 1.0, 3.0, 1.0)
    names = _traced(lambda: cdtube.pressure_drop(FLUID, spec, 1.0))
    assert names >= {"flow.pressure_drop", "flow.conductance",
                     "quadrature.fallback_integrate",
                     "kernels.inverse_radius_power"}
    assert "quadrature.integrate" not in names


def test_the_special_functions_that_compute_no_k():
    names = _traced(lambda: (cdtube.special.gauss_2f1_continued(
        0.3, 0.4, 1.2, 2.0, "above"), cdtube.special.appell_f1(
        0.5, 0.2, 0.3, 1.5, 0.3, 0.4)))
    assert names >= {"special.gauss_2f1_continued", "special.appell_f1",
                     "kernels.gauss_series"}
    # gauss_2f1's route map lives in cdtube._continued; its calls, direct
    # or from appell_f1's one-variable reduction (b2 = 0), still go
    # through cdtube.special.
    names = _traced(lambda: cdtube.special.gauss_2f1(0.5, 0.8, 1.9, -5.0))
    assert names == {"special.gauss_2f1", "kernels.gauss_series"}
    names = _traced(lambda: cdtube.special.appell_f1(
        0.5, 0.2, 0.0, 1.5, 0.3, 0.4))
    assert names == {"special.appell_f1", "special.gauss_2f1",
                     "kernels.gauss_series"}


def test_appell_past_the_cut_continues_through_special():
    # x = 1 and y > 1: the boundary reduction calls gauss_2f1_continued,
    # which the hook sees only when the call goes through cdtube.special.
    names = _traced(lambda: cdtube.special.appell_f1(
        -1.2, 0.5, 0.5, -0.2, 1.0, 3.0))
    assert names == {"special.appell_f1", "special.gauss_2f1_continued",
                     "kernels.gauss_series"}


@pytest.mark.parametrize("args,spans", [
    (["solve", *TUBE, "--flow-rate", "1"],
     {"cli.command", "flow.pressure_drop", "flow.conductance", "cli.emit"}),
    (["solve", *TUBE, "--pressure", "1"],
     {"cli.command", "flow.flow_rate", "flow.conductance", "cli.emit"}),
    (["sweep", *TUBE, "--start", "0", "--stop", "1", "--count", "3",
      "--validate"],
     {"cli.command", "flow.conductance", "quadrature.integrate",
      "kernels.inverse_radius_power", "cli.emit"}),
    (["validate", "--grid", "quick"],
     {"cli.command", "flow.conductance", "kernels.gauss_series",
      "quadrature.integrate", "cli.emit"}),
], ids=["solve", "solve-pressure", "sweep", "validate"])
def test_the_command_line(runner, args, spans):
    names = _traced(_cli(runner, *args))
    assert names >= spans
    # sweep and validate reuse one K through flow's private steps: no
    # per-row public solve.
    if args[0] != "solve":
        assert not names & {"flow.pressure_drop", "flow.flow_rate"}


def test_removing_the_hooks_restores_every_target():
    from cdtube import quadrature

    before = [layertrace._resolve(hook)[2] for hook in layertrace.HOOKS]
    installed = layertrace.Installed(layertrace.Tracer())
    assert installed.absent == []
    during = [layertrace._resolve(hook)[2] for hook in layertrace.HOOKS]
    assert not any(map(operator.is_, during, before))
    installed.remove()
    after = [layertrace._resolve(hook)[2] for hook in layertrace.HOOKS]
    assert all(map(operator.is_, after, before))
    # flow's module dict holds the quadrature's own functions again, so
    # its __getattr__ did not bind them anew.
    for name in ("integrate_inverse_radius_power", "pressure_drop_numeric"):
        assert vars(flow_module)[name] is getattr(quadrature, name)
