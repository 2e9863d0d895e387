"""The package's public names, and the types its kernels return."""

import pytest

import cdtube
from cdtube import EvaluationReport, appell_f1, gauss_2f1_continued

PUBLIC_NAMES = [
    "CdtubeError",
    "ConvergenceError",
    "DegenerateParameterError",
    "DomainError",
    "EvaluationError",
    "EvaluationReport",
    "FlowResult",
    "PowerLawFluid",
    "ProfileCoefficients",
    "QuadratureResult",
    "TubeShape",
    "TubeSpec",
    "appell_f1",
    "apparent_viscosity",
    "coefficients",
    "conductance_coefficient",
    "flow_rate",
    "gauss_2f1",
    "gauss_2f1_continued",
    "integrate_inverse_radius_power",
    "master_prefactor",
    "pressure_drop",
    "pressure_drop_numeric",
    "radius_at",
    "radius_profile",
    "sample_profile",
    "straight_tube_conductance",
    "straight_tube_flow_rate",
    "straight_tube_pressure_drop",
    "__version__",
]


def test_all_is_the_public_surface():
    assert cdtube.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(cdtube, name) is not None, name


# One call per route, with the arguments that select it.
ROUTES = {
    "one_minus_inverse_z": (gauss_2f1_continued, (0.3, 1.9, 2.4, 1.7)),
    "inverse_z": (gauss_2f1_continued, (0.25, 0.75, 2.0, 5.0, "below")),
    "polynomial": (gauss_2f1_continued, (-5.0, 2.3, 1.7, 7.5)),
    "polydisc": (appell_f1, (-1.5, 0.5, 0.5, -0.5, 0.3, 0.4)),
    "b2_zero": (appell_f1, (0.3, 0.7, 0.0, 1.1, 0.5, 0.99)),
    "boundary": (appell_f1, (-1.2, 0.5, 0.5, -0.2, 1.0, 0.5)),
    "boundary_continued": (appell_f1, (-1.2, 0.5, 0.5, -0.2, 1.0, 3.0)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_continued_kernels_return_builtin_complex(route):
    kernel, args = ROUTES[route]
    assert type(kernel(*args)) is complex
    # Only gauss_2f1 reports how it got its value.
    with pytest.raises(TypeError, match="full_output"):
        kernel(*args, full_output=True)


def test_evaluation_report_summary():
    assert (EvaluationReport(17, "pfaff").summary()
            == "converged after 17 series terms")
