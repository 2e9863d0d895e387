"""The package's public names, the types its kernels return, and no
private name left unread."""

import ast
from pathlib import Path

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


SOURCE = Path(cdtube.__file__).parent


def _module_level_names(tree):
    """Names that a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_every_private_module_name_is_read_somewhere():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SOURCE.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unread = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if name.startswith("_") and not name.endswith("__")
        and name not in loaded)
    assert unread == []
