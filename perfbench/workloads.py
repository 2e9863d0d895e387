"""The three workloads: closed loops over library calls, and a fixed
sequence of CLI processes run one at a time.

Each workload runs whole rounds of the same operations until the
requested seconds have passed, so the share of failed operations is the
same in every run.  An operation fails when it raises (library), exits
non-zero (CLI), or gives an answer that misses the independent reference
or a property of the method (see reference.py); a miss also clears
``correct``.
"""

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import calibration
import layertrace
import population
import reference
from population import FORWARD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# On a host shared with other work, CPU speed drifts by tens of percent
# over seconds, so every timing is a median of samples spread over the
# run: per-round figures for the library workloads, per-process walls for
# the CLI, and set-up processes taken between rounds, not all at the start.
SETUP_SAMPLES = 11
MIN_ROUNDS = 5
# Calibration blocks (see calibration.py): one before every CAL_EVERY-th
# library solve, and this many before and after each timed process.
CAL_EVERY = 100
CAL_BLOCKS_PER_PROCESS = 4
PROCESS_TIMEOUT_S = 120
# A library set-up ends with this solve, so lazy work in the first call counts.
SETUP_CODE = (
    "import cdtube\n"
    "cdtube.pressure_drop(cdtube.PowerLawFluid(1.0, 0.8),"
    " cdtube.TubeSpec(cdtube.TubeShape.HYPERBOLIC, 1.0, 4.0, 1.0), 1.0)\n"
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import cdtube.cli\n"
    "print(time.perf_counter() - t)\n"
)
# The CSV columns the README documents for each command.
SOLVE_COLUMNS = ["shape", "n", "C", "r_min", "r_max", "length", "periods",
                 "Q", "P", "method", "branch", "note", "oracle", "rel_err"]
VALIDATE_COLUMNS = ["shape", "n", "C", "r_min", "r_max", "length", "Q",
                    "P_analytic", "P_numeric", "rel_err", "method", "branch"]
# The oracle runs at rel_tol 1e-10; its P must match the reference this well.
TOL_ORACLE = 1e-8


class Tally:
    """Attempted and failed operations, and the first few misses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.misses = []

    def record(self, reason, wrong_answer):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.correct = self.correct and not wrong_answer
        if len(self.misses) < 10:
            self.misses.append(reason)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv, calibrate=False):
    """Run one child to completion.

    Returns (wall s, calibration factor, exit code, stdout, stderr); the
    factor is 1 unless ``calibrate``, which times calibration blocks just
    before and after the child.
    """
    cal = calibration.Calibration()
    if calibrate:
        cal.sample(CAL_BLOCKS_PER_PROCESS)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall = time.perf_counter() - start
    if calibrate:
        cal.sample(CAL_BLOCKS_PER_PROCESS)
    factor = cal.factor() if calibrate else 1.0
    return wall, factor, proc.returncode, proc.stdout, proc.stderr


def process_wall(argv, calibrate=True):
    """(wall s, calibration factor) of a child that must succeed."""
    wall, factor, code, _, err = run_process(argv, calibrate)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err.decode()[-500:]}")
    return wall, factor


def median_process_wall(argv, repeats=SETUP_SAMPLES):
    """Median raw wall of ``repeats`` runs (start-up probes of the trace)."""
    return statistics.median(process_wall(argv, False)[0] for _ in range(repeats))


def scaled_median(samples):
    """(scaled, raw) medians of (raw time, calibration factor) samples."""
    return (statistics.median(v * f for v, f in samples),
            statistics.median(v for v, _ in samples))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment():
    import numpy

    import cdtube

    backend = sys.modules.get("cdtube.backend")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "pinned_cpus": (sorted(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "cdtube": getattr(cdtube, "__version__", None),
        "active_backend": getattr(backend, "ACTIVE_BACKEND", "absent"),
        "CDTUBE_BACKEND": os.environ.get("CDTUBE_BACKEND"),
    }


# --- library workloads -------------------------------------------------------

def _solve(cdtube, tube, validate):
    """One operation: build the tube and fluid, then solve one direction.

    The functions are looked up on the package at each call, so hooks
    installed for a traced round are seen.
    """
    fluid = cdtube.PowerLawFluid(tube.consistency, tube.n)
    spec = cdtube.TubeSpec(cdtube.TubeShape(tube.shape), tube.r_min,
                           tube.r_max, tube.length)
    if tube.direction == FORWARD:
        return cdtube.pressure_drop(fluid, spec, tube.value, validate=validate)
    return cdtube.flow_rate(fluid, spec, tube.value, validate=validate)


def check_solve(tube, result, k_ref, validated):
    """Reason the library's answer for ``tube`` is wrong, or None."""
    if tube.direction == FORWARD:
        p, q = result.pressure_drop, tube.value
    else:
        p, q = tube.value, result.flow_rate
    reason = reference.check_k(tube.shape, tube.n, p, q, k_ref)
    if reason is not None or not validated:
        return reason
    p_ref = k_ref * q**tube.n
    oracle = result.oracle_value
    if not (isinstance(oracle, float) and reference.rel_diff(oracle, p_ref)
            <= TOL_ORACLE):
        return f"{tube.shape}: oracle P={oracle!r} vs reference {p_ref!r}"
    if not result.rel_error <= reference.tolerance(tube.shape):
        return f"{tube.shape}: reported rel_error {result.rel_error!r}"
    return None


def _library_round(cdtube, tubes, validate, cal=None):
    """Solve every tube once; returns (wall s, latencies in s, outcomes).

    With a calibration ``cal``, a block is timed before every CAL_EVERY-th
    solve; it is in the wall but not in the latencies.
    """
    clock = time.perf_counter
    latencies = []
    outcomes = []
    start = clock()
    for i, tube in enumerate(tubes):
        if cal is not None and i % CAL_EVERY == 0:
            cal.sample()
        t0 = clock()
        try:
            outcome = _solve(cdtube, tube, validate)
        except Exception as exc:  # counted as a failed operation
            outcome = exc
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    return clock() - start, latencies, outcomes


# The population's ratio range is assumed, not taken from measured pore
# networks, and above this ratio hyperbolic tubes cap the Gauss series and
# fall back to quadrature.  The share of solve time those tubes take is
# reported, so a gain confined to that corner shows as such.
HIGH_RATIO = 50.0
HIGH_RATIO_METRIC = "population.ratio_over_50_time_pct"


def _high_ratio_share(tubes, latencies):
    """Percent of a round's solve time spent on tubes with ratio > 50."""
    high = math.fsum(lat for tube, lat in zip(tubes, latencies)
                     if tube.r_max > HIGH_RATIO * tube.r_min)
    return 100.0 * high / math.fsum(latencies)


def _tally_round(tally, tubes, outcomes, k_refs, validate):
    for tube, outcome, k_ref in zip(tubes, outcomes, k_refs):
        if isinstance(outcome, Exception):
            tally.record(f"{tube.shape}: {type(outcome).__name__}: {outcome}",
                         wrong_answer=False)
        else:
            tally.record(check_solve(tube, outcome, k_ref, validate),
                         wrong_answer=True)


def run_library(name, seed, seconds, trace):
    import cdtube

    tubes = {"pore_network": population.pore_network,
             "oracle_validation": population.oracle_validation}[name](seed)
    validate = name == "oracle_validation"
    setup_argv = [sys.executable, "-c", SETUP_CODE]
    refs = reference.ReferenceCache()
    k_refs = [refs.for_tube(t) for t in tubes]
    for shape in population.SHAPES:  # warm-up: one solve per shape
        _solve(cdtube, next(t for t in tubes if t.shape == shape), validate)
    tally = Tally()

    def run_round(traced, cal=None):
        tracer = layertrace.Tracer()
        hooks = layertrace.Installed(tracer) if traced else None
        try:
            wall, latencies, outcomes = _library_round(cdtube, tubes, validate,
                                                       cal)
        finally:
            if hooks is not None:
                hooks.remove()
        _tally_round(tally, tubes, outcomes, k_refs, validate)
        if not traced:
            high_shares.append(_high_ratio_share(tubes, latencies))
            return wall, latencies
        return wall, layertrace.layer_metrics(tracer.spans), hooks

    high_shares = []
    report = {"operations_per_round": len(tubes),
              "high_ratio_tubes": sum(t.r_max > HIGH_RATIO * t.r_min
                                      for t in tubes)}
    if trace:
        per_layer, traced_report = _traced_rounds(seconds, run_round)
        per_layer.update({key: (0, unit) for key, unit in CLI_ONLY.items()})
        per_layer[HIGH_RATIO_METRIC] = (statistics.median(high_shares), "%")
        return tally, per_layer, {**report, **traced_report}
    # (scaled, raw) per round
    rates, p50s, tails, setups, factors = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_ROUNDS or time.perf_counter() < deadline:
        cal = calibration.Calibration()
        failed_before = tally.failed
        _, latencies = run_round(False, cal)
        cal.sample()  # closes the last window
        done = len(tubes) - (tally.failed - failed_before)
        scaled = cal.scale_windows(latencies, CAL_EVERY)
        rates.append((done / math.fsum(scaled), done / math.fsum(latencies)))
        p50s.append(tuple(percentile(v, 50) * 1e6 for v in (scaled, latencies)))
        tails.append(tuple(percentile(v, 99) * 1e6 for v in (scaled, latencies)))
        factors.append(cal.factor())
        if len(setups) < SETUP_SAMPLES:
            setups.append(process_wall(setup_argv))
    while len(setups) < SETUP_SAMPLES:
        setups.append(process_wall(setup_argv))
    report["high_ratio_time_pct"] = statistics.median(high_shares)
    return tally, *_end_to_end(
        report, len(rates), 99, factors, setup_s=scaled_median(setups),
        solves_per_s=_medians(rates), solve_us_p50=_medians(p50s),
        solve_us_tail=_medians(tails))


def _medians(pairs):
    return tuple(statistics.median(column) for column in zip(*pairs))


E2E_UNITS = {"setup_s": "s", "solves_per_s": "1/s", "solve_us_p50": "us",
             "solve_us_tail": "us"}


def _end_to_end(report, rounds, tail_percentile, factors, **values):
    """Metrics from (scaled, raw) pairs: the scaled values are the
    metrics; the raw ones and the calibration factors go in the report."""
    metrics = {name: (scaled, E2E_UNITS[name])
               for name, (scaled, _) in values.items()}
    return metrics, {**report, "rounds": rounds,
                     "tail_percentile": tail_percentile,
                     "raw_metrics": {name: raw for name, (_, raw) in values.items()},
                     "calibration_factor": statistics.median(factors)}


# --- tracing: alternate untraced and traced rounds -----------------------

# Per-layer metrics measured outside the hooks, by the CLI workload only.
CLI_ONLY = {"cli.interpreter_s": "s", "cli.import_s": "s",
            "cli.emit_bytes": "bytes"}
UNITS = {**{k: unit for k, (unit, _) in layertrace.LAYER_METRICS.items()},
         **CLI_ONLY}


def _traced_rounds(seconds, run_round, min_rounds=1):
    """Run untraced/traced round pairs until ``seconds`` pass.

    ``run_round(False)`` returns ``(wall, ...)`` and ``run_round(True)``
    returns ``(wall, layer metrics, hooks)``.  Per-layer numbers are per
    round, averaged over the traced rounds (maxima for ``*_max``); the
    tracing overhead is the traced minus the untraced median round wall.
    """
    untraced_walls, traced_walls, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        untraced_walls.append(run_round(False)[0])
        wall, metrics, hooks = run_round(True)
        traced_walls.append(wall)
        rounds.append(metrics)
    per_layer = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        value = max(values) if key.endswith("_max") else statistics.fmean(values)
        per_layer[key] = (value, UNITS[key])
    traced, untraced = (statistics.median(traced_walls),
                        statistics.median(untraced_walls))
    per_layer["trace.round_s"] = (traced, "s")
    per_layer["trace.untraced_round_s"] = (untraced, "s")
    per_layer["trace.overhead_s"] = (traced - untraced, "s")
    report = {"rounds": len(rounds), "absent_hooks": sorted(hooks.absent),
              "absent_metrics": layertrace.absent_metrics(hooks.absent_spans)}
    return per_layer, report


# --- CLI workload --------------------------------------------------------------

CLI_MIN_ROUNDS = 2  # 2 x 20 solve processes: ten samples beyond p75
CLI_TAIL_PERCENTILE = 75


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(token):
        raise ValueError(f"invalid JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def parse_rows(fmt, stdout, columns):
    """Rows of a CLI document as dicts; raises ValueError if it does not
    have the documented layout."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        doc = _strict_json(text)
        if doc.get("schema_version") != 1:
            raise ValueError(f"schema_version {doc.get('schema_version')!r}")
        rows = doc["results"]
        if any(list(row) != columns for row in rows):
            raise ValueError("JSON result keys differ from the documented columns")
        return rows
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != columns:
        raise ValueError(f"CSV header {lines[:1]} is not {columns}")
    if any(len(line) != len(columns) for line in lines[1:]):
        raise ValueError("CSV row with a wrong number of cells")
    return [dict(zip(columns, line)) for line in lines[1:]]


def _check_solve_rows(op, rows, refs):
    tube = op.tube
    k_ref = refs.for_tube(tube)
    ks = []
    for row in rows:
        if (row["shape"] != tube.shape or float(row["n"]) != tube.n
                or int(row["periods"]) != op.periods):
            return f"row does not echo its inputs: {row}"
        p, q = float(row["P"]), float(row["Q"])
        reason = reference.check_k(tube.shape, tube.n, p, q, k_ref, op.periods)
        if reason is not None:
            return reason
        ks.append(p / q**tube.n)
    if max(ks) / min(ks) - 1.0 > reference.TOL_PROPORTIONAL:
        return f"P / Q^n varies over the rows: {min(ks)!r} .. {max(ks)!r}"
    q = float(rows[0]["Q"])
    if op.kind == "solve" and not op.round_trip and q != tube.value:
        return f"Q {q!r} is not the requested {tube.value!r}"
    if op.round_trip and reference.rel_diff(q, tube.value) > reference.TOL_ROUND_TRIP:
        return f"round trip Q -> P -> Q gave {q!r} from {tube.value!r}"
    return None


def _check_validate_rows(rows, refs):
    for row in rows:
        shape, n, q = row["shape"], float(row["n"]), float(row["Q"])
        if float(row["C"]) != 1.0 or float(row["r_min"]) != 1.0:
            return f"validate row off the documented grid: {row}"
        k_ref = refs.k(shape, n, 1.0, 1.0, float(row["r_max"]),
                       float(row["length"]))
        p_ref = k_ref * q**n
        tol = reference.tolerance(shape)
        if not reference.rel_diff(float(row["P_analytic"]), p_ref) <= tol:
            return (f"validate {shape} n={n}: P_analytic {row['P_analytic']} "
                    f"vs {p_ref!r}")
        if not reference.rel_diff(float(row["P_numeric"]), p_ref) <= TOL_ORACLE:
            return f"validate {shape} n={n}: P_numeric {row['P_numeric']} vs {p_ref!r}"
        if not float(row["rel_err"]) <= tol:
            return f"validate {shape} n={n}: rel_err {row['rel_err']}"
    return None


def check_cli(op, code, stdout, refs):
    """(reason, wrong_answer) for one process, reason None when it passed."""
    if code != 0:
        return f"{op.args[0]} exited {code}", False
    columns = VALIDATE_COLUMNS if op.kind == "validate" else SOLVE_COLUMNS
    try:
        rows = parse_rows(op.fmt, stdout, columns)
        if len(rows) != op.rows:
            return f"{op.kind}: {len(rows)} rows, asked for {op.rows}", True
        if op.kind == "validate":
            return _check_validate_rows(rows, refs), True
        return _check_solve_rows(op, rows, refs), True
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"{op.kind} output unreadable: {type(exc).__name__}: {exc}", True


def _printed_p(fmt, stdout):
    """P of a one-row solve document, as printed, or None."""
    try:
        row = parse_rows(fmt, stdout, SOLVE_COLUMNS)[0]
    except (ValueError, KeyError, IndexError):
        return None
    return repr(row["P"]) if fmt == "json" else row["P"]


def _cli_round(ops, spans_stem=None, after_sweep=None):
    """Run the sequence once.

    Returns (wall s, [(op, wall, calibration factor, code, stdout, spans
    path)]).  With ``spans_stem`` each process runs under cli_shim.py and
    writes its spans next to it; otherwise each is calibrated.  A
    round-trip solve whose forward half printed no P is not run and gets
    exit code None.  ``after_sweep`` is called after each sweep process;
    its time is not part of the round's wall.
    """
    results = []
    printed_p = None
    start = time.perf_counter()
    for k, op in enumerate(ops):
        args = list(op.args)
        if op.round_trip:
            if printed_p is None:
                results.append((op, 0.0, 1.0, None, b"", None))
                continue
            args.append(printed_p)
        spans = None
        if spans_stem is None:
            argv = [sys.executable, "-m", "cdtube", *args]
        else:
            spans = OUT / f"{spans_stem}-op{k:02d}.spans.json"
            argv = [sys.executable, str(HERE / "cli_shim.py"), str(spans), *args]
        wall, factor, code, out, _ = run_process(argv, spans is None)
        if op.kind == "solve" and not op.round_trip:
            printed_p = _printed_p(op.fmt, out) if code == 0 else None
        results.append((op, wall, factor, code, out, spans))
        if after_sweep is not None and op.kind == "sweep":
            pause = time.perf_counter()
            after_sweep()
            start += time.perf_counter() - pause
    return time.perf_counter() - start, results


def run_cli(seed, seconds, trace):
    ops = population.cli_sequence(seed)
    setup_argv = [sys.executable, "-m", "cdtube", "--version"]
    refs = reference.ReferenceCache()
    tally = Tally()

    def tally_round(results):
        for op, _, _, code, out, _ in results:
            tally.record(*check_cli(op, code, out, refs))

    report = {"operations_per_round": len(ops)}
    if trace:
        OUT.mkdir(exist_ok=True)
        sweeps = []

        def run_round(traced):
            wall, results = _cli_round(ops, f"cli-seed{seed}" if traced else None)
            tally_round(results)
            if not traced:
                return wall, results
            totals = dict.fromkeys(layertrace.LAYER_METRICS, 0)
            totals["cli.emit_bytes"] = 0
            absent = types.SimpleNamespace(absent=set(), absent_spans=set())
            for op, _, _, _, out, spans in results:
                totals["cli.emit_bytes"] += len(out)
                if spans is None or not spans.exists():
                    continue
                with open(spans, encoding="utf-8") as fh:
                    doc = json.load(fh)
                absent.absent.update(doc["absent"])
                absent.absent_spans.update(doc["absent_spans"])
                metrics = layertrace.layer_metrics(doc["spans"])
                for key, value in metrics.items():
                    totals[key] = (max(totals[key], value) if key.endswith("_max")
                                   else totals[key] + value)
                if op.kind == "sweep" and len(sweeps) < len(population.SWEEP_SLOTS):
                    evals = metrics["flow.conductance_evals"]
                    sweeps.append({"shape": op.tube.shape, "rows": op.rows,
                                   "conductance_evals": evals})
            return wall, totals, absent

        per_layer, traced_report = _traced_rounds(seconds, run_round, CLI_MIN_ROUNDS)
        per_layer["cli.interpreter_s"] = (
            median_process_wall([sys.executable, "-c", "pass"]), "s")
        per_layer["cli.import_s"] = (_median_import_s(), "s")
        report.update(traced_report)
        report["sweep_conductance_evals"] = sweeps
        per_layer[HIGH_RATIO_METRIC] = (0, "%")
        return tally, per_layer, report

    solve_walls, bulk_walls, setups = [], {}, []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < CLI_MIN_ROUNDS or time.perf_counter() < deadline:
        _, results = _cli_round(ops, after_sweep=lambda: setups.append(
            process_wall(setup_argv)))
        tally_round(results)
        rounds += 1
        for k, (op, wall, factor, code, _, _) in enumerate(results):
            if code != 0:
                continue
            if op.kind == "solve":
                solve_walls.append((wall * 1e6, factor))
            else:
                bulk_walls.setdefault(k, []).append((wall, factor))
    # rows of one round's sweeps and validate over the sum of each one's
    # median wall
    bulk_rows = sum(ops[k].rows for k in bulk_walls)
    bulk_medians = {k: scaled_median(w) for k, w in bulk_walls.items()}
    bulk_s = [math.fsum(pair) for pair in zip(*bulk_medians.values())]
    # validate is about a seventh of bulk_s, so solves_per_s guards it
    # loosely (see the README); its scaled wall is reported on its own
    report["bulk_process_s"] = {
        f"{ops[k].kind}:{ops[k].tube.shape if ops[k].tube else 'grid'}": scaled
        for k, (scaled, _) in bulk_medians.items()}
    tail = (percentile([v * f for v, f in solve_walls], CLI_TAIL_PERCENTILE),
            percentile([v for v, _ in solve_walls], CLI_TAIL_PERCENTILE))
    return tally, *_end_to_end(
        report, rounds, CLI_TAIL_PERCENTILE,
        [f for _, f in solve_walls + setups],
        setup_s=scaled_median(setups),
        solves_per_s=tuple(bulk_rows / s for s in bulk_s),
        solve_us_p50=scaled_median(solve_walls), solve_us_tail=tail)


def _median_import_s():
    values = []
    for _ in range(SETUP_SAMPLES):
        _, _, code, out, err = run_process([sys.executable, "-c", IMPORT_CODE])
        if code != 0:
            raise RuntimeError(f"import cdtube.cli failed: {err.decode()[-500:]}")
        values.append(float(out))
    return statistics.median(values)
