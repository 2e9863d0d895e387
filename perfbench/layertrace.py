"""Per-layer tracing from outside the program.

:class:`Installed` replaces module attributes of cdtube with wrappers that
record one span per call (name, start, end, parent span, and a small
per-call detail such as the series term count).  Nothing inside
``src/cdtube`` is changed.  Spans stay in memory; :func:`layer_metrics`
turns them into per-layer counts and self times, a span's self time being
its duration minus the time its child spans cover.

A hook whose module or attribute no longer exists is reported as absent
instead of failing, so a refactor that renames or deletes a function
leaves the run working and says which metrics it could not measure.
"""

import functools
import importlib
import json
import time
from dataclasses import dataclass

NAME, START, END, PARENT, DETAIL, ERROR = range(6)


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    path: str  # dotted attribute path from the module; dict keys allowed
    detail: object = None  # (args, result) -> number recorded on the span


def _series_detail(args, result):
    _, terms, converged = result
    return (int(terms), bool(converged))


def _panels_detail(args, result):
    return int(result.subdivisions)


def _nodes_detail(args, result):
    return len(args[-1])


HOOKS = (
    # _kernels, as seen by special (it imports gauss_series by name)
    Hook("kernels.gauss_series", "cdtube.special", "gauss_series", _series_detail),
    # the quadrature integrand reaches the kernel through the module
    Hook("kernels.inverse_radius_power", "cdtube._kernels",
         "inverse_radius_power", _nodes_detail),
    Hook("special.gauss_2f1", "cdtube.special", "gauss_2f1"),
    Hook("special.gauss_2f1_continued", "cdtube.special", "gauss_2f1_continued"),
    Hook("special.appell_f1", "cdtube.special", "appell_f1"),
    Hook("flow.pressure_drop", "cdtube", "pressure_drop"),
    Hook("flow.pressure_drop", "cdtube.cli", "solve_pressure_drop"),
    Hook("flow.flow_rate", "cdtube", "flow_rate"),
    Hook("flow.flow_rate", "cdtube.cli", "solve_flow_rate"),
    Hook("flow.conductance", "cdtube.flow", "_conductance"),
    # flow's own reference to the quadrature is the fallback route
    Hook("quadrature.fallback_integrate", "cdtube.flow",
         "integrate_inverse_radius_power", _panels_detail),
    Hook("quadrature.pressure_drop_numeric", "cdtube.flow",
         "pressure_drop_numeric", _panels_detail),
    Hook("quadrature.integrate", "cdtube.quadrature",
         "integrate_inverse_radius_power", _panels_detail),
    Hook("geometry.TubeSpec", "cdtube.geometry", "TubeSpec.__init__"),
    Hook("geometry.coefficients", "cdtube.geometry", "coefficients"),
    Hook("cli.command", "cdtube.cli", "main.commands.solve.callback"),
    Hook("cli.command", "cdtube.cli", "main.commands.sweep.callback"),
    Hook("cli.command", "cdtube.cli", "main.commands.validate.callback"),
    Hook("cli.emit", "cdtube.cli", "_emit"),
)


class Tracer:
    """In-memory span recorder; one per traced round or process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, func, detail=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if detail is not None:
                span[DETAIL] = detail(args, result)
            return result

        return traced


def _resolve(hook):
    """(owner, attribute name, current value) of a hook target."""
    owner = importlib.import_module(hook.module)
    parts = hook.path.split(".")
    for part in parts[:-1]:
        owner = owner[part] if isinstance(owner, dict) else getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Installed:
    """Hooks in place; :meth:`remove` puts the original attributes back.

    ``absent`` names the hook targets that could not be found and
    ``absent_spans`` the span names left with no hook at all.
    """

    def __init__(self, tracer, hooks=HOOKS):
        self.absent = []
        self._originals = []
        present = set()
        for hook in hooks:
            try:
                owner, attr, original = _resolve(hook)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{hook.module}.{hook.path}")
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(hook.span, original, hook.detail))
            present.add(hook.span)
        self.absent_spans = sorted({h.span for h in hooks} - present)

    def remove(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []


def write_spans(path, spans, installed):
    """Write spans and the absent hook targets as JSON (see cli_shim.py)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                              "detail", "error"],
                   "spans": spans, "absent": installed.absent,
                   "absent_spans": installed.absent_spans}, fh)




# Per-layer metric -> (unit, spans it is computed from).  A metric is
# absent when every span it needs is absent.
LAYER_METRICS = {
    "kernels.series_calls": ("count", ("kernels.gauss_series",)),
    "kernels.series_terms": ("count", ("kernels.gauss_series",)),
    "kernels.series_terms_max": ("count", ("kernels.gauss_series",)),
    "kernels.series_capped": ("count", ("kernels.gauss_series",)),
    "kernels.series_terms_wasted": ("count", ("kernels.gauss_series",)),
    "kernels.series_s": ("s", ("kernels.gauss_series",)),
    "kernels.integrand_calls": ("count", ("kernels.inverse_radius_power",)),
    "kernels.integrand_nodes": ("count", ("kernels.inverse_radius_power",)),
    "kernels.integrand_s": ("s", ("kernels.inverse_radius_power",)),
    "special.gauss_2f1.calls": ("count", ("special.gauss_2f1",)),
    "special.gauss_2f1.self_s": ("s", ("special.gauss_2f1",)),
    "special.gauss_2f1_continued.calls": ("count", ("special.gauss_2f1_continued",)),
    "special.gauss_2f1_continued.self_s": ("s", ("special.gauss_2f1_continued",)),
    "special.appell_f1.calls": ("count", ("special.appell_f1",)),
    "special.appell_f1.self_s": ("s", ("special.appell_f1",)),
    "special.failed_calls": ("count", ("special.gauss_2f1",
                                       "special.gauss_2f1_continued",
                                       "special.appell_f1")),
    "flow.solves": ("count", ("flow.pressure_drop", "flow.flow_rate")),
    "flow.self_s": ("s", ("flow.pressure_drop", "flow.flow_rate",
                          "flow.conductance")),
    "flow.conductance_evals": ("count", ("flow.conductance",)),
    "flow.fallbacks": ("count", ("quadrature.fallback_integrate",)),
    "flow.fallback_s": ("s", ("flow.conductance",)),
    "quadrature.calls": ("count", ("quadrature.integrate",
                                   "quadrature.fallback_integrate")),
    "quadrature.self_s": ("s", ("quadrature.integrate",
                                "quadrature.fallback_integrate",
                                "quadrature.pressure_drop_numeric")),
    "quadrature.panels": ("count", ("quadrature.integrate",
                                    "quadrature.fallback_integrate")),
    "quadrature.panels_max": ("count", ("quadrature.integrate",
                                        "quadrature.fallback_integrate")),
    "geometry.specs": ("count", ("geometry.TubeSpec",)),
    "geometry.spec_s": ("s", ("geometry.TubeSpec", "geometry.coefficients")),
    "geometry.coefficients_calls": ("count", ("geometry.coefficients",)),
    "cli.compute_s": ("s", ("cli.command",)),
    "cli.emit_s": ("s", ("cli.emit",)),
}


def layer_metrics(spans):
    """Counts and self times per layer from one set of spans."""
    self_ns = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_ns[s[PARENT]] -= s[END] - s[START]
    fallback_parents = {s[PARENT] for s in spans
                        if s[NAME] == "quadrature.fallback_integrate"}
    emit_ns = {}  # command span -> time of the emission inside it
    for s in spans:
        if s[NAME] == "cli.emit" and s[PARENT] >= 0:
            emit_ns[s[PARENT]] = emit_ns.get(s[PARENT], 0) + s[END] - s[START]
    m = dict.fromkeys(LAYER_METRICS, 0)

    def add(key, value):
        m[key] += value

    for i, s in enumerate(spans):
        name, own = s[NAME], self_ns[i] * 1e-9
        layer = name.split(".")[0]
        if name == "kernels.gauss_series":
            terms, converged = s[DETAIL] if s[DETAIL] else (0, True)
            add("kernels.series_calls", 1)
            add("kernels.series_terms", terms)
            m["kernels.series_terms_max"] = max(m["kernels.series_terms_max"], terms)
            if not converged:
                add("kernels.series_capped", 1)
                add("kernels.series_terms_wasted", terms)
            add("kernels.series_s", own)
        elif name == "kernels.inverse_radius_power":
            add("kernels.integrand_calls", 1)
            add("kernels.integrand_nodes", s[DETAIL] or 0)
            add("kernels.integrand_s", own)
        elif layer == "special":
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", own)
            add("special.failed_calls", int(s[ERROR]))
        elif layer == "flow":
            add("flow.self_s", own)
            if name in ("flow.pressure_drop", "flow.flow_rate"):
                add("flow.solves", 1)
            elif name == "flow.conductance":
                add("flow.conductance_evals", 1)
                if i in fallback_parents:
                    add("flow.fallback_s", (s[END] - s[START]) * 1e-9)
        elif layer == "quadrature":
            add("quadrature.self_s", own)
            if name != "quadrature.pressure_drop_numeric":
                add("quadrature.calls", 1)
                add("quadrature.panels", s[DETAIL] or 0)
                m["quadrature.panels_max"] = max(m["quadrature.panels_max"],
                                                 s[DETAIL] or 0)
            if name == "quadrature.fallback_integrate":
                add("flow.fallbacks", 1)
        elif layer == "geometry":
            add("geometry.spec_s", own)
            if name == "geometry.TubeSpec":
                add("geometry.specs", 1)
            else:
                add("geometry.coefficients_calls", 1)
        elif name == "cli.command":
            add("cli.compute_s", (s[END] - s[START] - emit_ns.get(i, 0)) * 1e-9)
        elif name == "cli.emit":
            add("cli.emit_s", (s[END] - s[START]) * 1e-9)
    return m


def absent_metrics(absent_spans):
    gone = set(absent_spans)
    return sorted(k for k, (_, needs) in LAYER_METRICS.items()
                  if all(span in gone for span in needs))
