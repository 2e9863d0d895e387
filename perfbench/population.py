"""Seeded inputs for the three workloads.

Everything here depends only on the seed, through ``random.Random(seed)``,
so one seed always gives byte-identical inputs (see :func:`to_bytes`).
The library populations are stratified: every shape gets the same number
of tubes, one in each cell of a grid over (flow index, log radius ratio),
at a uniformly drawn point of its cell, plus a fixed number of Newtonian
tubes with one log ratio drawn per stratum.  The cost of a solve depends
mostly on shape, n and ratio, so this keeps the mix of cheap, expensive
and fallback tubes nearly the same for every seed, and seed-to-seed
spread in the timings comes from the program, not from an unlucky draw.
"""

import json
import math
import random
from dataclasses import asdict, dataclass

SHAPES = ("conic", "parabolic", "hyperbolic", "cosh", "sinusoidal")

FORWARD = "forward"  # given Q, solve for P (pressure_drop)
INVERSE = "inverse"  # given P, solve for Q (flow_rate)


@dataclass(frozen=True)
class Tube:
    """One operating point: geometry, fluid and the given quantity.

    ``value`` is the flow rate Q (m^3/s) for a forward solve and the
    pressure drop P (Pa) for an inverse one.
    """

    shape: str
    n: float
    consistency: float
    r_min: float
    r_max: float
    length: float
    direction: str
    value: float


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _stratified(rng, count, lo, hi):
    """One uniform draw from each of ``count`` equal strata of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _tube_population(rng, grid, ratio_range, newtonian):
    """Mixed-shape population; half forward, half inverse solves per shape.

    Each shape gets one tube per cell of a ``grid = (n cells, ratio cells)``
    grid over n in [0.2, 2] x log ratio in ``ratio_range``, and
    ``newtonian`` tubes with n = 1.
    """
    n_cells, ratio_cells = grid
    log_lo, log_hi = math.log(ratio_range[0]), math.log(ratio_range[1])
    tubes = []
    for shape in SHAPES:
        points = [(n, log_ratio)
                  for n in _stratified(rng, n_cells, 0.2, 2.0)
                  for log_ratio in _stratified(rng, ratio_cells, log_lo, log_hi)]
        points += [(1.0, log_ratio)
                   for log_ratio in _stratified(rng, newtonian, log_lo, log_hi)]
        directions = [FORWARD] * (len(points) // 2)
        directions += [INVERSE] * (len(points) - len(directions))
        rng.shuffle(directions)
        for (n, log_ratio), direction in zip(points, directions):
            r_min = _log_uniform(rng, 1e-7, 1e-4)
            r_max = r_min * math.exp(log_ratio)
            length = 2.0 * r_max * _log_uniform(rng, 1.0, 10.0)
            consistency = _log_uniform(rng, 1e-3, 10.0)
            if direction == FORWARD:
                # mean throat velocity 1 um/s .. 10 cm/s
                value = math.pi * r_min**2 * _log_uniform(rng, 1e-6, 1e-1)
            else:
                value = _log_uniform(rng, 1.0, 1e6)
            tubes.append(Tube(shape, n, consistency, r_min, r_max, length,
                              direction, value))
    rng.shuffle(tubes)
    return tubes


def pore_network(seed):
    """Tubes of a pore-network model: 600 per shape, ratio 1.01-1000,
    10% Newtonian."""
    rng = random.Random(f"pore_network:{seed}")
    return _tube_population(rng, (27, 20), (1.01, 1000.0), 60)


def oracle_validation(seed):
    """Tubes for validated solves: 1200 per shape, ratio 1.01-10,
    10% Newtonian."""
    rng = random.Random(f"oracle_validation:{seed}")
    return _tube_population(rng, (36, 30), (1.01, 10.0), 120)


# --- CLI sequence ------------------------------------------------------------

SOLVE_PAIRS = 10
SWEEP_ROWS = 5000
# (shape, quantity, format, spacing, periods, n, ratio): one sweep per slot
# per round.  n and ratio are drawn within 5% of the slot's values: the
# cost of a row depends on them, and wider draws moved the sweep rate by
# 15% from seed to seed.
SWEEP_SLOTS = (
    ("parabolic", "flow-rate", "csv", "log", 1, 0.7, 3.0),
    ("hyperbolic", "pressure", "json", "log", 3, 1.3, 2.5),
    ("cosh", "flow-rate", "json", "linear", 2, 0.6, 3.5),
    ("sinusoidal", "pressure", "csv", "log", 4, 1.1, 3.0),
)


def _geometry_args(tube):
    return ["--shape", tube.shape, "--rmin", repr(tube.r_min),
            "--rmax", repr(tube.r_max), "--length", repr(tube.length),
            "--n", repr(tube.n), "--consistency", repr(tube.consistency)]


@dataclass(frozen=True)
class CliOp:
    """One ``cdtube`` process of the CLI sequence.

    ``args`` are the arguments after ``cdtube``.  A ``round_trip`` solve is
    the inverse half of a pair: its ``args`` end with ``--pressure``, the
    value is the P printed by the forward process just before it, and the
    Q it prints must be the forward's ``tube.value`` again.
    """

    kind: str  # "solve", "sweep" or "validate"
    args: tuple
    fmt: str
    tube: Tube | None = None
    periods: int = 1
    rows: int = 1
    round_trip: bool = False


def cli_sequence(seed):
    """Fixed sequence of one CLI round: solve pairs, sweeps, validate."""
    rng = random.Random(f"cli:{seed}")
    ops = []
    for k in range(SOLVE_PAIRS):
        shape = SHAPES[k % len(SHAPES)]
        fmt = "csv" if k % 2 == 0 else "json"
        r_min = _log_uniform(rng, 1e-7, 1e-4)
        r_max = r_min * _log_uniform(rng, 1.01, 100.0)
        tube = Tube(shape, rng.uniform(0.2, 2.0), _log_uniform(rng, 1e-3, 10.0),
                    r_min, r_max, 2.0 * r_max * _log_uniform(rng, 1.0, 10.0),
                    FORWARD, math.pi * r_min**2 * _log_uniform(rng, 1e-6, 1e-1))
        periods = rng.randint(1, 3)
        base = ("solve", *_geometry_args(tube), "--periods", str(periods),
                "--format", fmt)
        ops.append(CliOp("solve", base + ("--flow-rate", repr(tube.value)),
                         fmt, tube, periods))
        ops.append(CliOp("solve", base + ("--pressure",), fmt, tube, periods,
                         round_trip=True))
    for shape, quantity, fmt, spacing, periods, n, ratio in SWEEP_SLOTS:
        r_min = _log_uniform(rng, 1e-7, 1e-4)
        r_max = r_min * ratio * rng.uniform(0.95, 1.05)
        direction = FORWARD if quantity == "flow-rate" else INVERSE
        tube = Tube(shape, n * rng.uniform(0.95, 1.05),
                    _log_uniform(rng, 1e-3, 10.0),
                    r_min, r_max, 2.0 * r_max * _log_uniform(rng, 1.0, 10.0),
                    direction, math.nan)
        if quantity == "flow-rate":
            start = math.pi * r_min**2 * _log_uniform(rng, 1e-6, 1e-5)
            stop = start * 1e4
        else:
            start = _log_uniform(rng, 1.0, 10.0)
            stop = start * 1e5
        args = ("sweep", *_geometry_args(tube), "--quantity", quantity,
                "--start", repr(start), "--stop", repr(stop),
                "--count", str(SWEEP_ROWS), "--spacing", spacing,
                "--periods", str(periods), "--jobs", "1", "--format", fmt)
        ops.append(CliOp("sweep", args, fmt, tube, periods, SWEEP_ROWS))
    ops.append(CliOp("validate", ("validate", "--grid", "default",
                                  "--format", "csv"), "csv", rows=480))
    return ops


def to_bytes(items):
    """Canonical serialisation, used to check that a seed fixes its inputs."""
    return json.dumps([asdict(item) for item in items],
                      sort_keys=True).encode()
