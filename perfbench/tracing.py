"""Span tracing of linksig's layers from outside the package.

``Tracer.install`` replaces each traced function with a wrapper under every
name a linksig module binds it to (``linksig.sampler.inertia`` and
``linksig.hermitian.inertia`` are the same function), so calls made through
any import are recorded.  Each call leaves one span (name, start, end,
parent) in memory; a layer's self time is its spans' durations minus the
durations of their direct children.  A function that no longer exists is
reported with 0 calls.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path).  A dotted attribute path names a method.
TARGETS = (
    ("sampler.points", "linksig.sampler", "grid"),
    ("sampler.points", "linksig.sampler", "tbang_points"),
    ("sampler.sample_map", "linksig.sampler", "sample_map"),
    ("sampler.format", "linksig.sampler", "records_to_csv"),
    ("sampler.format", "linksig.sampler", "records_to_json"),
    ("sampler.format", "linksig.sampler", "records_to_ppm"),
    ("clink.hermitian_with_scale", "linksig.clink", "hermitian_with_scale"),
    ("clink.slope_matrix_at", "linksig.clink", "slope_matrix_at"),
    ("hermitian.inertia", "linksig.hermitian", "inertia"),
    ("hermitian.solve", "linksig.hermitian", "solve"),
    ("kernels.jacobi_eigenvalues", "linksig._kernels", "jacobi_eigenvalues"),
    ("invariants.face_parts", "linksig.invariants", "face_parts"),
    ("invariants.slope", "linksig.invariants", "slope"),
    ("strata.stratum_index", "linksig.strata", "stratum_index"),
    ("strata.elementary_ideal", "linksig.strata", "PresentationMatrix.elementary_ideal"),
    ("laurent.eval_at", "linksig.laurent", "eval_at"),
)

ROOT = "cli.main"

# Counters kept beside the spans: name -> (unit, better).  sampler.format.bytes
# is the size of the command's output, which the child measures.
COUNTERS = {
    "hermitian.inertia.uncertain": ("count", "lower"),
    "hermitian.inertia.min_gap": ("ratio", "higher"),
    "kernels.jacobi_eigenvalues.dim3_sum": ("count", "lower"),
    "invariants.slope.infinite": ("count", "lower"),
    "sampler.format.bytes": ("B", "lower"),
}

# Spans reported as .calls and .self_s, then spans reported as .self_s only.
CALL_SPANS = (
    "sampler.points",
    "clink.hermitian_with_scale",
    "hermitian.inertia",
    "kernels.jacobi_eigenvalues",
    "invariants.face_parts",
    "invariants.slope",
    "clink.slope_matrix_at",
    "hermitian.solve",
    "strata.stratum_index",
    "laurent.eval_at",
    "strata.elementary_ideal",
)
SELF_ONLY_SPANS = ("sampler.sample_map", "sampler.format", ROOT)


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for span in CALL_SPANS:
        specs.append((f"{span}.calls", "count", "lower"))
        specs.append((f"{span}.self_s", "s", "lower"))
    for span in SELF_ONLY_SPANS:
        specs.append((f"{span}.self_s", "s", "lower"))
    specs += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _on_inertia(tracer: "Tracer", args, result) -> None:
    tracer.counts["hermitian.inertia.uncertain"] += not result.certified
    if math.isfinite(result.min_gap):
        tracer.minima["hermitian.inertia.min_gap"] = min(
            tracer.minima.get("hermitian.inertia.min_gap", math.inf), result.min_gap)


def _on_jacobi(tracer: "Tracer", args, result) -> None:
    n = len(args[0])
    tracer.counts["kernels.jacobi_eigenvalues.dim3_sum"] += n ** 3


def _on_slope(tracer: "Tracer", args, result) -> None:
    tracer.counts["invariants.slope.infinite"] += not result.is_finite


HOOKS = {
    "hermitian.inertia": _on_inertia,
    "kernels.jacobi_eigenvalues": _on_jacobi,
    "invariants.slope": _on_slope,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.minima: dict[str, float] = {}
        self.absent: list[str] = []

    def wrap(self, name: str, fn, materialize: bool = False):
        """fn with a span per call; ``materialize`` drains a returned iterator inside it."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            finally:
                spans[index] = (name_id, start, perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under each linksig name bound to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "linksig" or key.startswith("linksig."))]
        for span, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(span, original, materialize=span == "sampler.points")
            if owner_path:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Calls, self times and counters by metric name; absent spans read 0.

        ``output_bytes`` is the size of what the command wrote: the report
        and ideals commands format their text inside cli, not in sampler.
        """
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
        out: dict[str, float] = {}
        for span in CALL_SPANS:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for span in SELF_ONLY_SPANS:
            out[f"{span}.self_s"] = self_s[span]
        for name in COUNTERS:
            out[name] = self.minima.get(name, self.counts.get(name, 0))
        out["sampler.format.bytes"] = output_bytes
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")
