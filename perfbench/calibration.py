"""Scale timings to a reference machine speed.

On a host whose cores are shared with other work, speed drifts by 20-30%
over seconds to minutes (seen on a 2-vCPU virtual machine at 2.1 GHz).
CPU time drifts with wall time, so the drift is not descheduling that
CPU time would hide.  A fixed block of work shaped like the program's
own is timed next to the measured operations: an interpreted float loop
like the Gauss series, and numpy arithmetic on 17-node arrays like a
quadrature panel.  With both parts the block tracked the drift better on
every workload than with either part alone.  Each timing is multiplied
by ``REFERENCE_BLOCK_S / (block time measured next to it)``: on a quiet
machine, where a block takes ``REFERENCE_BLOCK_S``, the factor is 1 and
the scaled figures equal the raw ones.  The raw figures are reported
next to the scaled ones.
"""

import statistics
import time

import numpy as np

BLOCK_TERMS = 4000
BLOCK_PANELS = 150
_NODES = np.linspace(0.0, 0.5, 17)
_WEIGHTS = np.linspace(0.1, 1.0, 17)
# Median block time in a quiet period on that 2-vCPU, 2.1 GHz machine
# under Python 3.11.7.
REFERENCE_BLOCK_S = 1.15e-3


def block():
    term = total = 1.0
    for k in range(BLOCK_TERMS):
        term *= (0.5 + k) * (1.7 + k) / ((1.5 + k) * (k + 1.0)) * 0.3
        total += term
    for _ in range(BLOCK_PANELS):
        total += float(_WEIGHTS @ np.sqrt(1.0 + 3.0 * _NODES * _NODES) ** -2.5)
    return total


class Calibration:
    """Block times sampled over one stretch of measurement."""

    def __init__(self):
        self.samples = []

    def sample(self, blocks=1):
        clock = time.perf_counter
        for _ in range(blocks):
            start = clock()
            block()
            self.samples.append(clock() - start)

    def factor(self):
        """Multiplier that takes a raw time to the reference speed."""
        return REFERENCE_BLOCK_S / statistics.fmean(self.samples)

    def scale_windows(self, times, every):
        """``times`` scaled window by window.

        A block was sampled before each run of ``every`` times and one
        after the last; each time is scaled by the mean of the two blocks
        around its window.  Speed drifts within a round, and a round-wide
        factor under-corrected the slowest solves when the host was busy.
        """
        blocks = self.samples
        return [t * 2.0 * REFERENCE_BLOCK_S
                / (blocks[i // every] + blocks[i // every + 1])
                for i, t in enumerate(times)]
