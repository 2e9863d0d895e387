"""Analytic pressure-drop/flow-rate relations for power-law fluids in
converging-diverging capillaries, cross-validated against an adaptive
quadrature oracle of the underlying pressure integral.
"""

__version__ = "0.1.0"

from .errors import (
    CdtubeError,
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    EvaluationError,
)
from .fluid import PowerLawFluid, apparent_viscosity
from .geometry import (
    ProfileCoefficients,
    TubeShape,
    TubeSpec,
    coefficients,
    radius_at,
    radius_profile,
    sample_profile,
)
from .special import (
    EvaluationReport,
    appell_f1,
    gauss_2f1,
    gauss_2f1_continued,
)
from .quadrature import (
    QuadratureResult,
    integrate_inverse_radius_power,
    master_prefactor,
    pressure_drop_numeric,
)
from .flow import (
    FlowResult,
    conductance_coefficient,
    flow_rate,
    pressure_drop,
    straight_tube_conductance,
    straight_tube_flow_rate,
    straight_tube_pressure_drop,
)

__all__ = [
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
