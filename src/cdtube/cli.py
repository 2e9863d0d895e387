"""Command-line front end: the ``solve``, ``sweep``, ``validate``,
``profile`` and ``rheology`` commands, which ``--help`` lists.

Output is CSV or JSON on stdout (or ``--output``), deterministic across
repeated invocations: fixed column order, shortest round-trip float
formatting, LF line endings.  All quantities are SI: radii and lengths in
m, flow rates in m^3/s, pressures in Pa, consistency in Pa*s^n.

Exit codes: 0 success, 2 argument or validation errors, 3 numerical
failure (neither the analytic route nor the quadrature oracle converged).

Each command declares one table of options; the parser and ``--help``
are both generated from it, with the standard library alone.  The
oracle of ``--validate`` and ``validate`` comes from :mod:`cdtube.flow`,
which imports the quadrature on first use.
"""

import functools
import io
import itertools
import math
import os
import stat
import sys
import warnings

from . import __version__, flow
from .errors import (
    CdtubeError,
    ConvergenceError,
    DomainError,
    EvaluationError,
    require_finite_non_negative,
)
from .fluid import (
    DEFAULT_REL_TOL,
    MAX_PANELS,
    PowerLawFluid,
    _require_rel_tol,
    apparent_viscosity,
)
from .flow import METHOD_FALLBACK, flow_rate as solve_flow_rate
from .flow import pressure_drop as solve_pressure_drop
from .geometry import TubeShape, TubeSpec, sample_profile

SCHEMA_VERSION = 1

SHAPE_NAMES = [shape.value for shape in TubeShape]

# Acceptance-style grids by --grid name (r_min = 1 m, C = 1 Pa*s^n).
GRIDS = {
    "default": {
        "n": (0.4, 0.6, 0.8, 1.0, 1.2, 1.6),
        "ratio": (1.1, 2.0, 4.0, 10.0),
        "length": (1.0, 10.0),
        "flow_rate": (1e-3, 1.0),
    },
    "quick": {
        "n": (0.6, 1.0, 1.2),
        "ratio": (2.0,),
        "length": (1.0,),
        "flow_rate": (1.0,),
    },
}

# The relative error that no row of the validate report may exceed.
TOL = 1e-8
# Fallback rows come from quadrature at FALLBACK_REL_TOL, so their oracle
# runs at this tighter tolerance, whatever --rel-tol says.
ORACLE_TIGHT = 1e-12


def _json_document(config: dict, rows, floats=None) -> str:
    """The output document as ``json.dumps(doc, indent=2)`` writes it, and
    a final newline.

    ``rows`` is a non-empty list of non-empty dicts of scalars, as every
    subcommand emits.  With ``floats``, it is ``_emit``'s template row:
    the results come last, so the dump ends with the row's text, which is
    cut from it, its ``"%r"`` strings unquoted, and filled once per tuple
    of floats.
    """
    import json

    text = json.dumps({"schema_version": SCHEMA_VERSION, "config": config,
                       "results": rows}, indent=2)
    if floats is not None:
        # What follows the results' "[" is the row and the closing "\n  ]\n}".
        head, start, row = text.rpartition('"results": [\n    ')
        row, end = row[:-6].replace('"%r"', "%r"), row[-6:]
        text = head + start + ",\n    ".join(map(row.__mod__, floats)) + end
    return text + "\n"


def _emit(fmt: str, output, config: dict, rows, floats=None) -> None:
    """Write the rows to stdout, or to the file ``output``; a file that
    cannot be opened raises :class:`DomainError`, and nothing is written.

    ``rows`` is never empty, and a row's keys, in order, are its table's
    columns: the CSV header is the first row's keys.  With ``floats``,
    ``rows`` is one template row, encoded once by the format's own writer
    (``csv.writer``, or the document's one ``json.dumps``), and its text
    is a ``%`` format: a cell that varies holds the string ``"%r"``, and a
    text cell has each ``%`` doubled.  Each tuple of ``floats`` is a row,
    whose floats fill the ``"%r"`` cells in order.
    """
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        # csv writes None as "" and a float as its shortest repr.
        writer.writerows(map(dict.values, rows))
        text = buf.getvalue()
        if floats is not None:
            head, _, line = text.partition("\n")
            text = head + "\n" + "".join(map(line.__mod__, floats))
    else:
        text = _json_document(config, rows, floats)
    if output is None:
        sys.stdout.write(text)
        return
    try:
        fh = open(output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DomainError(f"Invalid value for '--output': {output!r}: "
                          f"{exc.strerror}") from None
    with fh:
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


def _solve_table(fluid, spec, periods, values, pressure_given, solve_unit):
    """``_emit``'s ``rows, floats`` for the ``solve``/``sweep`` table: a
    template row in ``_emit``'s form, ``"%r"`` in the Q and P cells and in
    any oracle and rel_err, and the note's ``%`` doubled (shape and method
    hold none).  ``solve_unit`` solves one corrugation unit at each flow
    rate, or at each pressure / ``periods``.
    """
    floats = []
    for given in values:
        result = solve_unit(given / periods if pressure_given else given)
        if pressure_given:
            p = given
            row = (result.flow_rate, p)
        else:
            p = periods * result.pressure_drop
            row = (given, p)
        finite = math.isfinite(p)
        if result.oracle_value is not None:
            oracle_p = periods * result.oracle_value
            row += (oracle_p, result.rel_error)
            finite = finite and math.isfinite(oracle_p)
        if not finite:
            raise DomainError(f"pressure drop over {periods} periods "
                              "overflows the float range")
        floats.append(row)
    checked = "%r" if len(row) == 4 else None
    return [{
        "shape": spec.shape.value, "n": fluid.index, "C": fluid.consistency,
        "r_min": spec.r_min, "r_max": spec.r_max, "length": spec.length,
        "periods": periods, "Q": "%r", "P": "%r", "method": result.method,
        "branch": None, "note": result.diagnostics.replace("%", "%%"),
        "oracle": checked, "rel_err": checked,
    }], floats


# ---------------------------------------------------------------------------
# Command-line parsing: one option table per command
# ---------------------------------------------------------------------------

_ABOUT = ("Pressure-drop/flow-rate solver for power-law fluids in "
          "converging-diverging capillaries.")


class _Float:
    """A float, as ``float`` reads it ("nan" and "-inf" included)."""

    metavar = "FLOAT"

    def parse(self, text):
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid float.") from None


class _AtLeast:
    """An integer no less than ``minimum``."""

    metavar = "INTEGER RANGE"

    def __init__(self, minimum):
        self.minimum = minimum
        self.bounds = f"x>={minimum}"

    def parse(self, text):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"{text!r} is not a valid integer range.") from None
        if value < self.minimum:
            raise ValueError(f"{value} is not in the range {self.bounds}.")
        try:
            float(value)  # every count and period is used as a float
        except OverflowError:
            raise ValueError(f"{value} is outside the float range.") from None
        return value


class _Choice:
    """One of ``names``, spelled exactly."""

    def __init__(self, *names):
        self.names = names
        self.metavar = f"[{'|'.join(names)}]"

    def parse(self, text):
        if text not in self.names:
            raise ValueError(f"{text!r} is not one of "
                             f"{', '.join(map(repr, self.names))}.")
        return text


class _File:
    """A path to write: not a directory, nor a file that cannot be read,
    nor a new file in a directory that does not exist (or ``""``), nor a
    name that ends in "/" and is no directory, nor any path that
    ``os.stat`` rejects otherwise (one under a regular file, a symlink
    loop, a name too long), so a command with such an ``--output`` exits
    2 before any work.  What ``stat`` cannot foresee, such as a read-only
    file system or a file that a user other than root may read but not
    write, ``_emit`` reports after the work, with the same exit 2."""

    metavar = "FILE"

    def parse(self, text):
        try:
            mode = os.stat(text).st_mode
        except FileNotFoundError:
            if not text or not os.path.exists(
                    os.path.dirname(text.rstrip("/")) or "."):
                raise ValueError(
                    f"{text!r}: No such file or directory") from None
            if text.endswith("/"):  # "newdir/": open() cannot create it
                raise ValueError(f"{text!r}: Is a directory") from None
            return text
        except OSError as exc:
            # open() reports "afile/", a regular file taken for a
            # directory, as a directory; any other errno of stat (a path
            # under a regular file, a symlink loop, a name too long) is
            # open()'s too.
            if text.endswith("/") and os.path.exists(text.rstrip("/")):
                raise ValueError(f"{text!r}: Is a directory") from None
            raise ValueError(f"{text!r}: {exc.strerror}") from None
        if stat.S_ISDIR(mode):
            raise ValueError(f"File {text!r} is a directory.")
        if not os.access(text, os.R_OK):
            raise ValueError(f"File {text!r} is not readable.")
        return text


_FLOAT = _Float()
_FILE = _File()


class _Option:
    """One row of an option table.

    ``kind`` reads the value, which is the token after the option or the
    text after its ``=``; an option without a kind is a flag, True when
    given.  ``dest`` names the callback's parameter.
    """

    __slots__ = ("flag", "kind", "dest", "default", "required", "help")

    def __init__(self, flag, kind=None, *, dest=None, default=None,
                 required=False, help=""):
        self.flag = flag
        self.kind = kind
        self.dest = dest or flag[2:].replace("-", "_")
        self.default = False if kind is None else default
        self.required = required
        self.help = help

    def row(self):
        """The option's two ``--help`` columns."""
        name = self.flag if self.kind is None else \
            f"{self.flag} {self.kind.metavar}"
        extra = []
        if self.kind is not None and self.default is not None:
            extra.append(f"default: {self.default}")
        if isinstance(self.kind, _AtLeast):
            extra.append(self.kind.bounds)
        if self.required:
            extra.append("required")
        if not extra:
            return name, self.help
        extra = f"[{'; '.join(extra)}]"
        return name, f"{self.help}  {extra}" if self.help else extra


_HELP = _Option("--help", help="Show this message and exit.")
_VERSION = _Option("--version", help="Show the version and exit.")


def _no_such(kind, name, known=()):
    message = f"No such {kind} {name!r}."
    if not known:
        return message
    from difflib import get_close_matches
    close = sorted(get_close_matches(name, known))
    if len(close) == 1:
        return f"{message} Did you mean {close[0]!r}?"
    if close:
        return (f"{message} (Did you mean one of: "
                f"{', '.join(map(repr, close))}?)")
    return message


def _scan(table, args, *, stop_at_command=False):
    """The options given in ``args``, as {option: value text, or True for a
    flag} in the order each first appears, and the other arguments.

    ``table`` maps flags to options.  A value is the next token, whatever
    it is, so ``--start -1e-3`` reaches the command's own check.  A flag
    is matched whole: ``--flow`` is not ``--flow-rate``.  Everything after
    ``--`` is an argument; with ``stop_at_command``, so is everything from
    the first argument on.  Later values of an option replace earlier ones.
    """
    given = {}
    rest = []
    tokens = iter(args)
    for arg in tokens:
        if arg == "--":
            rest.extend(tokens)
            break
        if arg[:1] != "-" or arg == "-":
            rest.append(arg)
            if stop_at_command:
                rest.extend(tokens)
                break
            continue
        flag, has_value, value = arg.partition("=")
        option = table.get(flag)
        if option is None:
            if arg[:2] == "--":
                raise DomainError(_no_such("option", flag, table))
            raise DomainError(_no_such("option", arg[:2]))
        if option.kind is None:
            if has_value:
                raise DomainError(f"Option {flag!r} does not take a value.")
            value = True
        elif not has_value:
            value = next(tokens, None)
            if value is None:
                raise DomainError(f"Option {flag!r} requires an argument.")
        given[option] = value
    return given, rest


def _help_page(usage, about, sections):
    """A ``--help`` page: the usage line, ``about``, and titled sections of
    (name, description) rows in two columns, wrapped to fit 80 columns."""
    import textwrap

    def fill(text, width, indent=""):
        return textwrap.fill(text, width, initial_indent=indent,
                             subsequent_indent=indent,
                             replace_whitespace=False)

    about = "\n\n".join(fill(" ".join(paragraph.split()), 78, "  ")
                        for paragraph in about.strip().split("\n\n"))
    lines = [f"Usage: {usage}", "", about]
    for title, rows in sections:
        lines += ["", f"{title}:"]
        column = min(max(len(name) for name, _ in rows), 30) + 2
        for name, text in rows:
            # Descriptions start at 2 + column and end by column 76.
            wrapped = fill(text, 76 - column).split("\n")
            if len(name) <= column - 2:
                lines.append(f"  {name:<{column}}{wrapped[0]}")
            else:
                lines += [f"  {name}", f"{'':<{column + 2}}{wrapped[0]}"]
            lines += [f"{'':<{column + 2}}{line}" for line in wrapped[1:]]
    return "\n".join(lines) + "\n"


class _Command:
    """A command: its option table, and the callback it runs with the
    options' values.  ``callback`` is read when the command runs, so it
    can be replaced on ``main.commands[name]``."""

    __slots__ = ("callback", "options", "_table")

    def __init__(self, callback, options):
        self.callback = callback
        self.options = options
        self._table = {option.flag: option for option in (*options, _HELP)}

    def parse(self, args, path):
        """The callback's keyword arguments from ``args``; ``--help``
        prints this command's page and exits 0."""
        given, extra = _scan(self._table, args)
        if _HELP in given:
            rows = [option.row() for option in (*self.options, _HELP)]
            sys.stdout.write(_help_page(f"{path} [OPTIONS]",
                                        self.callback.__doc__,
                                        [("Options", rows)]))
            sys.exit(0)
        params = {}
        # Options given are read first, in command-line order; then the
        # others, whose first missing required one is reported.
        for option in [*given, *(o for o in self.options if o not in given)]:
            if option in given:
                value = given[option]
                if option.kind is not None:
                    try:
                        value = option.kind.parse(value)
                    except ValueError as exc:
                        raise DomainError(f"Invalid value for "
                                          f"{option.flag!r}: {exc}") from None
            elif option.required:
                message = f"Missing option {option.flag!r}."
                if isinstance(option.kind, _Choice):
                    message += " Choose from:\n\t" + ",\n\t".join(
                        option.kind.names)
                raise DomainError(message)
            else:
                value = option.default
            params[option.dest] = value
        if extra:
            plural = "s" if len(extra) > 1 else ""
            raise DomainError(f"Got unexpected extra argument{plural} "
                              f"({' '.join(extra)})")
        return params


def _group_options(args, prog_name):
    """The arguments from the command name on; ``--help`` and
    ``--version`` before it print and exit 0, the first given acting."""
    given, rest = _scan({"--version": _VERSION, "--help": _HELP}, args,
                        stop_at_command=True)
    for option in given:
        if option is _VERSION:
            sys.stdout.write(f"cdtube, version {__version__}\n")
        else:
            sys.stdout.write(_group_help(prog_name))
        sys.exit(0)
    return rest


def _group_help(prog_name):
    commands = [(name, command.callback.__doc__.strip().split("\n")[0])
                for name, command in sorted(main.commands.items())]
    return _help_page(f"{prog_name} [OPTIONS] COMMAND [ARGS]...", _ABOUT,
                      [("Options", [_VERSION.row(), _HELP.row()]),
                       ("Commands", commands)])


def _default_prog_name():
    """``python -m cdtube`` under ``-m``, else the script's file name."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    script = os.path.basename(sys.argv[0])
    if not package:
        return script
    name = os.path.splitext(script)[0]
    module = package if name == "__main__" else f"{package}.{name}"
    return f"python -m {module.lstrip('.')}"


def _format_warning(message, category, filename, lineno, line=None):
    """``warnings.formatwarning`` while a command runs."""
    return f"Warning: {message}\n"


def main(args=None, prog_name=None):
    """Run the command line ``args`` (default ``sys.argv[1:]``); always
    ends in :class:`SystemExit`.

    Exit 0 on success.  A numerical failure (:class:`ConvergenceError`
    or :class:`EvaluationError`) prints ``numerical failure: <message>``
    and exits 3.  Any other :class:`CdtubeError` prints the usage line, a
    ``--help`` hint and ``Error: <message>``, and exits 2; a command line
    that does not parse, or an ``--output`` that cannot be opened, raises
    :class:`DomainError` to get there.  numpy's overflow warnings are not
    printed while a command runs: an integrand that overflows makes the
    quadrature raise a DomainError that says so.  Other warnings print as
    ``Warning: <message>``, without a source path or line.

    ``main.commands`` maps each command's name to its :class:`_Command`.
    """
    if args is None:
        args = sys.argv[1:]
    if prog_name is None:
        prog_name = _default_prog_name()
    if not args:
        sys.stderr.write(_group_help(prog_name))
        sys.exit(2)
    path, usage = prog_name, "[OPTIONS] COMMAND [ARGS]..."
    try:
        rest = _group_options(args, prog_name)
        if not rest:
            raise DomainError("Missing command.")
        name = rest[0]
        command = main.commands.get(name)
        if command is None:
            if name[:1] and not name[:1].isalnum():
                _group_options(rest, prog_name)
            raise DomainError(_no_such("command", name, main.commands))
        path, usage = f"{prog_name} {name}", "[OPTIONS]"
        params = command.parse(rest[1:], path)
        # catch_warnings does not restore formatwarning.
        format_warning = warnings.formatwarning
        warnings.formatwarning = _format_warning
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "overflow encountered",
                                        RuntimeWarning)
                command.callback(**params)
        finally:
            warnings.formatwarning = format_warning
    except (ConvergenceError, EvaluationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        sys.exit(3)
    except CdtubeError as exc:
        sys.stderr.write(f"Usage: {path} {usage}\nTry '{path} --help' for "
                         f"help.\n\nError: {exc}\n")
        sys.exit(2)
    except BrokenPipeError:
        # The reader of stdout has gone: exit 1, and point stdout at
        # /dev/null so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        sys.exit(1)
    sys.exit(0)


main.commands = {}


def _command(*options):
    """Register the decorated function as the command of its name, with
    the option table ``options``; its docstring is the command's help."""
    def register(callback):
        main.commands[callback.__name__] = _Command(callback, options)
        return callback
    return register


_GEOMETRY = (
    _Option("--shape", _Choice(*SHAPE_NAMES), required=True,
            help="Tube profile."),
    _Option("--rmin", _FLOAT, required=True, help="Throat radius (m)."),
    _Option("--rmax", _FLOAT, required=True, help="Entry/exit radius (m)."),
    _Option("--length", _FLOAT, required=True,
            help="Length of one corrugation unit (m)."),
)
_FLUID = (
    _Option("--n", _FLOAT, required=True,
            help="Flow behavior index (dimensionless)."),
    _Option("--consistency", _FLOAT, required=True,
            help="Consistency factor C (Pa*s^n)."),
)
_FORMAT = _Choice("csv", "json")
_OUTPUT_FILE = _Option("--output", _FILE,
                       help="Write to this path instead of stdout.")
_OUTPUT = (_Option("--format", _FORMAT, dest="fmt", default="json"),
           _OUTPUT_FILE)
_PERIODS = _Option("--periods", _AtLeast(1), default=1,
                   help="Number of corrugation units in series.")
_VALIDATE = _Option("--validate", help="Co-evaluate the quadrature oracle "
                                       "and report the relative deviation.")
_REL_TOL = _Option("--rel-tol", _FLOAT, default=DEFAULT_REL_TOL,
                   help="Oracle relative tolerance.")


@_command(
    *_GEOMETRY, *_FLUID,
    _Option("--flow-rate", _FLOAT,
            help="Volumetric flow rate (m^3/s); solves for pressure drop."),
    _Option("--pressure", _FLOAT,
            help="Total pressure drop (Pa); solves for flow rate."),
    _PERIODS, _VALIDATE, _REL_TOL,
    _Option("--max-subdivisions", _AtLeast(1), default=MAX_PANELS,
            help="Panel cap for each quadrature run: the fallback and "
                 "the --validate oracle."),
    *_OUTPUT,
)
def solve(shape, rmin, rmax, length, n, consistency, flow_rate, pressure,
          periods, validate, rel_tol, max_subdivisions, fmt, output):
    """Solve one operating point."""
    _require_rel_tol(rel_tol)
    if (flow_rate is None) == (pressure is None):
        raise DomainError(
            "exactly one of --flow-rate or --pressure is required"
        )
    pressure_given = pressure is not None
    given = pressure if pressure_given else flow_rate
    require_finite_non_negative(
        "--pressure" if pressure_given else "--flow-rate", given)
    config = {
        "subcommand": "solve", "shape": shape, "n": n,
        "consistency": consistency, "r_min": rmin, "r_max": rmax,
        "length": length, "periods": periods, "flow_rate": flow_rate,
        "pressure": pressure, "validate": validate, "rel_tol": rel_tol,
        "max_subdivisions": max_subdivisions, "format": fmt,
    }
    fluid = PowerLawFluid(consistency=consistency, index=n)
    spec = TubeSpec(shape=shape, r_min=rmin, r_max=rmax, length=length)
    solve_unit = functools.partial(
        solve_flow_rate if pressure_given else solve_pressure_drop,
        fluid, spec, validate=validate, oracle_rel_tol=rel_tol,
        max_panels=max_subdivisions)
    _emit(fmt, output, config, *_solve_table(
        fluid, spec, periods, [given], pressure_given, solve_unit))


@_command(
    *_GEOMETRY, *_FLUID,
    _Option("--quantity", _Choice("flow-rate", "pressure"),
            default="flow-rate", help="Which quantity the sweep varies."),
    _Option("--start", _FLOAT, required=True),
    _Option("--stop", _FLOAT, required=True),
    _Option("--count", _AtLeast(2), required=True),
    _Option("--spacing", _Choice("linear", "log"), default="linear"),
    _PERIODS, _VALIDATE, _REL_TOL,
    _Option("--jobs", _AtLeast(1), default=1,
            help="Accepted for compatibility and ignored: every row reuses "
                 "one K, so there is no work to share out."),
    *_OUTPUT,
)
def sweep(shape, rmin, rmax, length, n, consistency, quantity, start, stop,
          count, spacing, periods, validate, rel_tol, jobs, fmt, output):
    """Sweep flow rate or pressure over a range."""
    _require_rel_tol(rel_tol)
    require_finite_non_negative("--start", start)
    require_finite_non_negative("--stop", stop)
    if not start < stop:
        raise DomainError("--start must be less than --stop")
    if spacing == "log" and start <= 0:
        raise DomainError("log spacing requires --start > 0")
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
    oracle = (flow.pressure_drop_oracle(fluid, spec, rel_tol) if validate
              else None)
    pressure_given = quantity == "pressure"

    def solve_unit(given):
        return flow._operating_point(fluid, cond, given, pressure_given,
                                     oracle)

    _emit(fmt, output, config, *_solve_table(
        fluid, spec, periods, values, pressure_given, solve_unit))


@_command(
    _Option("--grid", _Choice(*GRIDS), default="default"),
    _REL_TOL,
    _Option("--format", _FORMAT, dest="fmt", default="csv"),
    _OUTPUT_FILE,
)
def validate(grid, rel_tol, fmt, output):
    """Cross-validate every closed form against the quadrature oracle.

    Exits 3 if any grid point's relative error exceeds 1e-8.  A row whose
    K fell back to quadrature is checked against an oracle at 1e-12.
    """
    _require_rel_tol(rel_tol)
    grid_def = GRIDS[grid]
    config = {"subcommand": "validate", "grid": grid, "rel_tol": rel_tol,
              "format": fmt}
    rows = []
    failures = 0
    tubes = itertools.product(SHAPE_NAMES, grid_def["n"], grid_def["ratio"],
                              grid_def["length"])
    for shape, n, ratio, length in tubes:
        fluid = PowerLawFluid(consistency=1.0, index=n)
        spec = TubeSpec(shape=shape, r_min=1.0, r_max=ratio, length=length)
        # As in sweep: K and the oracle's integral once per tube.
        cond = flow._conductance(fluid, spec)
        _, method, _ = cond
        oracle_tol = ORACLE_TIGHT if method == METHOD_FALLBACK else rel_tol
        oracle = flow.pressure_drop_oracle(fluid, spec, oracle_tol)
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
            if not result.rel_error <= TOL:
                failures += 1
    _emit(fmt, output, config, rows)
    if failures:
        sys.stderr.write(f"validate: {failures} of {len(rows)} grid "
                         "points exceeded their tolerance\n")
        sys.exit(3)


@_command(*_GEOMETRY, _Option("--samples", _AtLeast(2), default=101),
          *_OUTPUT)
def profile(shape, rmin, rmax, length, samples, fmt, output):
    """Sample the tube radius along the axis as (x, r) pairs."""
    spec = TubeSpec(shape=shape, r_min=rmin, r_max=rmax, length=length)
    xs, rs = sample_profile(spec, samples)
    config = {"subcommand": "profile", "shape": shape, "r_min": rmin,
              "r_max": rmax, "length": length, "samples": samples,
              "format": fmt}
    rows = [{"x": x, "r": r} for x, r in zip(xs.tolist(), rs.tolist())]
    _emit(fmt, output, config, rows)


@_command(
    *_FLUID,
    _Option("--gamma-min", _FLOAT, default=1e-2,
            help="Lowest strain rate (1/s)."),
    _Option("--gamma-max", _FLOAT, default=1e3,
            help="Highest strain rate (1/s)."),
    _Option("--samples", _AtLeast(2), default=61),
    *_OUTPUT,
)
def rheology(n, consistency, gamma_min, gamma_max, samples, fmt, output):
    """Sample the fluid model on a log grid of strain rates."""
    require_finite_non_negative("--gamma-min", gamma_min)
    require_finite_non_negative("--gamma-max", gamma_max)
    if not 0 < gamma_min < gamma_max:
        raise DomainError("require 0 < --gamma-min < --gamma-max")
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
    _emit(fmt, output, config, rows)


if __name__ == "__main__":
    main()
