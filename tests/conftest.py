import itertools

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
