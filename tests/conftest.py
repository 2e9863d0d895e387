import contextlib
import io
import itertools
from dataclasses import dataclass

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "cdtube",
    max_examples=120,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("cdtube")


@pytest.fixture(scope="session")
def extreme_geometries():
    """``(r_min, r_max, length)`` from the smallest subnormal to near the
    largest float, each with ``r_min <= r_max``: 156 per shape."""
    r_mins = (5e-324, 1e-300, 1e-8, 1.0, 1e300)
    r_maxs = (1.797e308, 1e300, 1e200, 1e155, 1e10, 1.0)
    lengths = (5e-324, 1e-300, 1e-3, 1.0, 1e300, 1.797e308)
    return [(r_min, r_max, length)
            for r_min, r_max, length in itertools.product(r_mins, r_maxs,
                                                          lengths)
            if r_min <= r_max]


@dataclass(frozen=True)
class CliResult:
    """One in-process run of the command line.  ``output`` holds stdout and
    stderr interleaved, as a terminal shows them."""
    exit_code: int
    stdout: str
    stderr: str
    output: str


class _Tee(io.StringIO):
    """A captured stream that also writes to the shared ``output``."""

    def __init__(self, output):
        super().__init__()
        self._output = output

    def write(self, text):
        self._output.write(text)
        return super().write(text)


class CliRunner:
    """Runs ``cdtube.cli.main`` in this process with stdout and stderr
    captured."""

    def invoke(self, main, args, prog_name="cdtube", catch_exceptions=True):
        """``main(args, prog_name)`` as a :class:`CliResult`.  An exception
        other than :class:`SystemExit` is exit code 1, or is raised again
        without ``catch_exceptions``."""
        output = io.StringIO()
        stdout, stderr = _Tee(output), _Tee(output)
        exit_code = 0
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                main(args=list(args), prog_name=prog_name)
            except SystemExit as exc:
                exit_code = exc.code or 0
            except Exception:
                if not catch_exceptions:
                    raise
                exit_code = 1
        return CliResult(exit_code, stdout.getvalue(), stderr.getvalue(),
                         output.getvalue())


@pytest.fixture()
def runner():
    return CliRunner()
