"""Analytic pressure-drop/flow-rate relations for power-law fluids in
converging-diverging capillaries, cross-validated against an adaptive
quadrature oracle of the underlying pressure integral.

The quadrature oracle, ``gauss_2f1``'s route map and the paper's
continued kernels (``gauss_2f1_continued``, ``appell_f1``) compute no
closed-form K, so their modules are imported by the first call, not with
the package.  The package keeps no ``__getattr__`` (PEP 562) to do so: in CPython one keeps
every attribute load on the module, such as ``cdtube.pressure_drop``,
from being specialized.
"""

__version__ = "0.1.0"

from .errors import (
    CdtubeError,
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    EvaluationError,
)
from .fluid import (
    DEFAULT_REL_TOL,
    MAX_PANELS,
    PowerLawFluid,
    QuadratureResult,
    apparent_viscosity,
    master_prefactor,
)
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


def integrate_inverse_radius_power(spec: TubeSpec, exponent: float,
                                   rel_tol: float = DEFAULT_REL_TOL,
                                   *, max_panels: int = MAX_PANELS):
    """:func:`cdtube.quadrature.integrate_inverse_radius_power`, whose
    module the first call imports."""
    from .quadrature import integrate_inverse_radius_power

    return integrate_inverse_radius_power(spec, exponent, rel_tol,
                                          max_panels=max_panels)


def pressure_drop_numeric(fluid: PowerLawFluid, spec: TubeSpec,
                          flow_rate: float, rel_tol: float = DEFAULT_REL_TOL,
                          *, max_panels: int = MAX_PANELS):
    """:func:`cdtube.quadrature.pressure_drop_numeric`, whose module the
    first call imports."""
    from .quadrature import pressure_drop_numeric

    return pressure_drop_numeric(fluid, spec, flow_rate, rel_tol,
                                 max_panels=max_panels)
