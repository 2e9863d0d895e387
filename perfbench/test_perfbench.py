"""Tests of the benchmark itself: its checker, reference, inputs and tracer.

Run from the root of the repository with ``python -m pytest -q perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
import types

import mpmath
import pytest
from scipy import integrate

import calibration
import layertrace
import population
import reference
import run
import workloads

sys.path.insert(0, str(workloads.SRC))


def _tube(shape="hyperbolic", ratio=40.0, n=0.7, direction=population.FORWARD,
          value=2e-12):
    return population.Tube(shape, n, 0.3, 1e-5, 1e-5 * ratio, 2e-4,
                           direction, value)


# --- checker -------------------------------------------------------------------

@pytest.mark.parametrize("shape", population.SHAPES)
def test_checker_accepts_the_reference_answer(shape):
    tube = _tube(shape)
    k_ref = reference.ReferenceCache().for_tube(tube)
    q = tube.value
    assert reference.check_k(shape, tube.n, k_ref * q**tube.n, q, k_ref) is None


@pytest.mark.parametrize("shape", population.SHAPES)
def test_checker_fails_k_perturbed_by_1e5(shape):
    tube = _tube(shape)
    k_ref = reference.ReferenceCache().for_tube(tube)
    q = tube.value
    for factor in (1.0 + 1e-5, 1.0 - 1e-5):
        p = factor * k_ref * q**tube.n
        assert reference.check_k(shape, tube.n, p, q, k_ref) is not None


def test_checker_fails_nan_and_swapped_p_q():
    tube = _tube()
    k_ref = reference.ReferenceCache().for_tube(tube)
    q = tube.value
    p = k_ref * q**tube.n
    assert reference.check_k(tube.shape, tube.n, math.nan, q, k_ref) is not None
    assert reference.check_k(tube.shape, tube.n, p, math.nan, k_ref) is not None
    assert reference.check_k(tube.shape, tube.n, q, p, k_ref) is not None


def test_library_check_reads_the_right_quantity_per_direction():
    fwd = _tube(direction=population.FORWARD, value=3e-12)
    inv = _tube(direction=population.INVERSE, value=50.0)
    k_ref = reference.ReferenceCache().for_tube(fwd)
    p = k_ref * fwd.value**fwd.n
    q = (inv.value / k_ref) ** (1.0 / inv.n)
    ok_fwd = types.SimpleNamespace(pressure_drop=p, flow_rate=None)
    ok_inv = types.SimpleNamespace(pressure_drop=None, flow_rate=q)
    assert workloads.check_solve(fwd, ok_fwd, k_ref, False) is None
    assert workloads.check_solve(inv, ok_inv, k_ref, False) is None
    # a forward result read as if it were an inverse one has no flow rate
    assert workloads.check_solve(inv, ok_fwd, k_ref, False) is not None


def test_validated_check_fails_a_wrong_oracle():
    tube = _tube()
    k_ref = reference.ReferenceCache().for_tube(tube)
    p = k_ref * tube.value**tube.n
    good = types.SimpleNamespace(pressure_drop=p, flow_rate=None,
                                 oracle_value=p, rel_error=0.0)
    bad = types.SimpleNamespace(pressure_drop=p, flow_rate=None,
                                oracle_value=p * (1 + 1e-5), rel_error=0.0)
    assert workloads.check_solve(tube, good, k_ref, True) is None
    assert workloads.check_solve(tube, bad, k_ref, True) is not None


# --- CLI property checks ---------------------------------------------------------

def _sweep_op(fmt="csv", rows=3, periods=2):
    tube = _tube(direction=population.FORWARD, value=math.nan)
    return population.CliOp("sweep", ("sweep",), fmt, tube, periods, rows)


def _sweep_rows(op, qs, scale=1.0):
    tube = op.tube
    k_ref = reference.ReferenceCache().for_tube(tube)
    return [{"shape": tube.shape, "n": tube.n, "C": tube.consistency,
             "r_min": tube.r_min, "r_max": tube.r_max, "length": tube.length,
             "periods": op.periods, "Q": q,
             "P": scale * op.periods * k_ref * q**tube.n, "method": "analytic",
             "branch": None, "note": "", "oracle": None, "rel_err": None}
            for q in qs]


def _document(fmt, rows):
    if fmt == "json":
        return json.dumps({"schema_version": 1, "config": {},
                           "results": rows}).encode()
    lines = [",".join(workloads.SOLVE_COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row[c] is None else
                              repr(row[c]) if isinstance(row[c], float)
                              else str(row[c])
                              for c in workloads.SOLVE_COLUMNS))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_check_accepts_a_correct_sweep(fmt):
    op = _sweep_op(fmt)
    out = _document(fmt, _sweep_rows(op, [1e-12, 1e-11, 1e-10]))
    assert workloads.check_cli(op, 0, out, reference.ReferenceCache()) == (None, True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_check_fails_wrong_outputs(fmt):
    op = _sweep_op(fmt)
    refs = reference.ReferenceCache()
    good = _sweep_rows(op, [1e-12, 1e-11, 1e-10])
    # one row off by 1e-5: misses the reference and P is not prop. to Q^n
    perturbed = good[:2] + _sweep_rows(op, [1e-10], scale=1 + 1e-5)
    assert workloads.check_cli(op, 0, _document(fmt, perturbed), refs)[0]
    # wrong row count
    assert workloads.check_cli(op, 0, _document(fmt, good[:2]), refs)[0]
    # a failed process counts as failed but not as a wrong answer
    reason, wrong = workloads.check_cli(op, 3, b"", refs)
    assert reason and not wrong


def test_cli_check_fails_periods_not_applied():
    op = _sweep_op(periods=3)
    rows = _sweep_rows(op, [1e-12, 1e-11, 1e-10], scale=1 / 3)
    assert workloads.check_cli(op, 0, _document("csv", rows),
                               reference.ReferenceCache())[0]


def test_cli_check_fails_invalid_json_and_wrong_columns():
    op = _sweep_op("json")
    refs = reference.ReferenceCache()
    rows = _sweep_rows(op, [1e-12, 1e-11, 1e-10])
    rows[0]["oracle"] = math.nan  # a column no other check reads
    nan_doc = json.dumps({"schema_version": 1, "results": rows}).encode()
    assert b"NaN" in nan_doc
    assert workloads.check_cli(op, 0, nan_doc, refs)[0]
    csv_op = _sweep_op("csv")
    doc = _document("csv", _sweep_rows(csv_op, [1e-12, 1e-11, 1e-10]))
    assert workloads.check_cli(csv_op, 0, doc.replace(b"rel_err", b"relerr"), refs)[0]


def test_cli_round_trip_check():
    tube = _tube(value=4e-12)
    op = population.CliOp("solve", ("solve",), "csv", tube, 1, round_trip=True)
    rows = _sweep_rows(_sweep_op(periods=1), [tube.value])
    refs = reference.ReferenceCache()
    assert workloads.check_cli(op, 0, _document("csv", rows), refs) == (None, True)
    rows = _sweep_rows(_sweep_op(periods=1), [tube.value * (1 + 1e-9)])
    assert workloads.check_cli(op, 0, _document("csv", rows), refs)[0]


# --- reference -------------------------------------------------------------------

def _mp_profile(shape, ratio):
    r = mpmath.mpf(ratio)
    return {
        "conic": lambda t: 1 + (r - 1) * t,
        "parabolic": lambda t: 1 + (r - 1) * t * t,
        "hyperbolic": lambda t: mpmath.sqrt(1 + (r * r - 1) * t * t),
        "cosh": lambda t: mpmath.cosh(mpmath.acosh(r) * t),
        "sinusoidal": lambda t: (r + 1) / 2 - (r - 1) / 2 * mpmath.cos(mpmath.pi * t),
    }[shape]


def test_reference_agrees_with_mpmath_on_a_seeded_subsample():
    tubes = population.pore_network(11)
    sample = [next(t for t in tubes if t.shape == s and t.r_max / t.r_min > r)
              for s in population.SHAPES for r in (1.01, 30.0, 500.0)]
    mpmath.mp.dps = 30
    for tube in sample:
        ratio, m = tube.r_max / tube.r_min, 3 * tube.n + 1
        rho = _mp_profile(tube.shape, ratio)
        edges = [0] + [mpmath.mpf(2) ** -k for k in range(24, -1, -1)]
        want = mpmath.quad(lambda t: rho(t) ** -m, edges)
        got = reference.scaled_integral(tube.shape, tube.n, ratio)
        assert abs(got - want) / want < 1e-11, (tube, got, want)


def test_conic_and_straight_closed_forms():
    for n, ratio in ((0.3, 1.5), (1.0, 20.0), (1.9, 700.0)):
        m = 3 * n + 1
        want = integrate.quad(lambda t: (1 + (ratio - 1) * t) ** -m, 0, 1,
                              points=[1 / (ratio - 1)] if ratio > 2 else None,
                              epsabs=0, epsrel=1e-13, limit=200)[0]
        got = reference.scaled_integral("conic", n, ratio)
        assert abs(got - want) / want < 1e-12
    n, c, r, length = 0.8, 2.0, 3e-6, 1e-4
    straight = (2 * c * (3 * n + 1) ** n * length
                / (math.pi**n * n**n * r ** (3 * n + 1)))
    for shape in population.SHAPES:
        k = reference.conductance(shape, n, c, r, r, length)
        assert abs(k - straight) / straight < 1e-14


# --- inputs ------------------------------------------------------------------------

@pytest.mark.parametrize("make", [population.pore_network,
                                  population.oracle_validation,
                                  population.cli_sequence])
def test_inputs_are_byte_identical_from_the_seed(make):
    assert population.to_bytes(make(7)) == population.to_bytes(make(7))
    assert population.to_bytes(make(7)) != population.to_bytes(make(8))


@pytest.mark.parametrize("make, per_shape, ratio_hi", [
    (population.pore_network, 600, 1000.0),
    (population.oracle_validation, 1200, 10.0),
])
def test_population_make_up(make, per_shape, ratio_hi):
    tubes = make(3)
    for shape in population.SHAPES:
        mine = [t for t in tubes if t.shape == shape]
        assert len(mine) == per_shape
        assert sum(t.n == 1.0 for t in mine) == per_shape // 10
        assert sum(t.direction == population.FORWARD for t in mine) == per_shape // 2
        assert all(0.2 <= t.n <= 2.0 for t in mine)
        assert all(1.01 <= t.r_max / t.r_min <= ratio_hi * (1 + 1e-12) for t in mine)
        assert all(1e-7 <= t.r_min <= 1e-4 for t in mine)


def test_high_ratio_share_counts_only_tubes_above_ratio_50():
    tubes = [_tube(ratio=40.0), _tube(ratio=60.0), _tube(ratio=1000.0)]
    share = workloads._high_ratio_share(tubes, [1.0, 2.0, 5.0])
    assert share == pytest.approx(87.5)


def test_calibration_scales_each_window_by_the_blocks_around_it():
    cal = calibration.Calibration()
    ref = calibration.REFERENCE_BLOCK_S
    cal.samples = [ref, 3 * ref, ref]  # blocks before, between, after
    scaled = cal.scale_windows([1.0, 1.0, 1.0, 1.0], every=2)
    assert scaled == pytest.approx([0.5, 0.5, 0.5, 0.5])
    cal.samples = [ref, ref, 3 * ref]
    assert cal.scale_windows([1.0, 1.0, 1.0], every=2) == pytest.approx(
        [1.0, 1.0, 0.5])


def test_cli_sequence_make_up():
    ops = population.cli_sequence(5)
    kinds = [op.kind for op in ops]
    assert kinds.count("solve") == 2 * population.SOLVE_PAIRS
    assert kinds.count("sweep") == len(population.SWEEP_SLOTS)
    assert kinds.count("validate") == 1
    assert sum(op.round_trip for op in ops) == population.SOLVE_PAIRS
    for op in ops:
        if op.kind == "sweep":
            assert op.args[op.args.index("--count") + 1] == "5000"
            assert op.args[op.args.index("--jobs") + 1] == "1"


def test_seed_is_a_required_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "cli", "--seconds", "1"])
    assert exc.value.code == 2


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    and prints no result."""
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pore_network",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- tracer ------------------------------------------------------------------------

def test_self_time_excludes_child_spans():
    spans = [
        ["flow.conductance", 0, 100, -1, None, False],
        ["special.gauss_2f1", 10, 90, 0, None, False],
        ["kernels.gauss_series", 20, 80, 1, (500, True), False],
        ["quadrature.fallback_integrate", 90, 99, 0, 3, False],
    ]
    m = layertrace.layer_metrics(spans)
    assert m["flow.self_s"] == pytest.approx(11e-9)
    assert m["special.gauss_2f1.self_s"] == pytest.approx(20e-9)
    assert m["kernels.series_s"] == pytest.approx(60e-9)
    assert m["flow.fallbacks"] == 1
    assert m["flow.fallback_s"] == pytest.approx(100e-9)
    assert m["quadrature.panels"] == 3


def test_missing_hook_is_reported_absent_without_failing():
    hooks = layertrace.HOOKS + (
        layertrace.Hook("special.gone", "cdtube.special", "no_such_function"),
        layertrace.Hook("backend.gone", "cdtube.no_such_module", "anything"),
    )
    installed = layertrace.Installed(layertrace.Tracer(), hooks)
    try:
        assert "cdtube.special.no_such_function" in installed.absent
        assert "cdtube.no_such_module.anything" in installed.absent
        assert installed.absent_spans == ["backend.gone", "special.gone"]
    finally:
        installed.remove()
    assert layertrace.absent_metrics(["kernels.gauss_series"])[:2] == [
        "kernels.series_calls", "kernels.series_capped"]


def test_hooks_see_a_fallback_and_are_removed_afterwards():
    import cdtube

    original = cdtube.special.gauss_series
    tracer = layertrace.Tracer()
    installed = layertrace.Installed(tracer)
    try:
        assert installed.absent == []
        tube = _tube("hyperbolic", ratio=300.0, n=1.5)
        workloads._solve(cdtube, tube, validate=False)
    finally:
        installed.remove()
    assert cdtube.special.gauss_series is original
    m = layertrace.layer_metrics(tracer.spans)
    assert m["kernels.series_capped"] >= 1
    assert m["flow.fallbacks"] == 1
    assert m["flow.solves"] == m["flow.conductance_evals"] == m["geometry.specs"] == 1
