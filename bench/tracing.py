"""Spans around the public entry points of `pcompliance`, and the per-layer
metrics computed from them.

The tracer wraps functions from outside the package: each entry point is
replaced in every module that binds it by name, the `fun` handed to
`descent.minimize` is wrapped so objective time can be split by the solve
that asked for it, and `splu` inputs are fingerprinted to count distinct
factorizations.  Spans stay in memory until the workload ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from pathlib import Path

# (module, attribute, span name); a span name's prefix is its layer
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("quadratics", "stiffness_matrix", "quadratics.assemble"),
    ("quadratics", "mass_matrix", "quadratics.assemble"),
    ("quadratics", "edge_stiffness_matrix", "quadratics.assemble"),
    ("quadratics", "node_mass_matrix", "quadratics.assemble"),
    ("quadratics", "solve_pinned", "quadratics.solve_pinned"),
    ("quadratics", "spla.splu", "quadratics.factor"),
    ("quadratics", "spla.cg", "quadratics.cg"),
    ("descent", "minimize", "descent.minimize"),
    ("solver", "solve", "solver.solve"),
    ("capacity", "variational_capacity", "capacity.solve"),
    ("poincare", "best_poincare_constant", "poincare.solve"),
    ("poincare", "spla.eigsh", "poincare.eig"),
    ("poincare", "scipy.linalg.eigh", "poincare.eig"),
    ("construction", "vanishing_sequence_experiment", "construction.ladder"),
    ("construction", "local_solve", "construction.local_solve"),
    ("construction", "assemble_flux", "construction.assemble_flux"),
    ("construction", "connected_baseline", "construction.baseline"),
    ("geometry", "rasterize", "geometry.rasterize"),
    ("sources", "sample_on_grid", "sources.sample"),
    ("reporting", "write_csv", "reporting.write"),
    ("reporting", "write_field", "reporting.write"),
    ("reporting", "write_compliance_report", "reporting.write"),
    ("reporting", "write_heatmap", "reporting.write"),
)

SOLVE_SPANS = {"solver.solve": "solver", "capacity.solve": "capacity",
               "poincare.solve": "poincare"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=0.0, parent=None, attrs=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.attrs = parent, attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


class _Overlay:
    """A module stand-in whose listed attributes are replaced."""

    def __init__(self, base, **overrides):
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def _fingerprint(matrix) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(matrix.shape).encode())
    for array in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(array.tobytes())
    return digest.hexdigest()


def _after(name: str, span: Span, args, result) -> None:
    """Counts taken from an entry point's arguments or result."""
    if name == "descent.minimize":
        span.attrs.update(iterations=result.iterations,
                          evaluations=result.evaluations,
                          unconverged=int(not result.converged))
    elif name == "quadratics.solve_pinned":
        span.attrs["iterations"] = result[1]
    elif name == "quadratics.factor":
        span.attrs["fingerprint"] = _fingerprint(args[0])
    elif name == "reporting.write" and isinstance(result, Path):
        span.attrs["bytes"] = result.stat().st_size


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self.clock(), parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack.pop()
        span.end = self.clock()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "descent.minimize":
                args = (self._objective(args[0]),) + args[1:]
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            _after(name, span, args, result)
            return result
        return traced

    def _objective(self, fun):
        def objective(x):
            span = self._open("descent.objective")
            span.attrs["nodes"] = x.size
            try:
                return fun(x)
            finally:
                self._close(span)
        return objective

    def install(self, package: str = "pcompliance") -> None:
        """Wrap every entry point; record the ones that cannot be found."""
        importlib.import_module(package)
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for module_name, attr, span_name in ENTRY_POINTS:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
                *path, leaf = attr.split(".")
                owner = functools.reduce(getattr, path, module)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                print(f"warning: entry point {package}.{module_name}.{attr} "
                      f"not found; its metrics read null", file=sys.stderr)
                continue
            traced = self.wrap(span_name, original)
            if path:
                self._overlay(module, path + [leaf], traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    @staticmethod
    def _overlay(module, keys: list[str], traced) -> None:
        """Point module.k0.k1...leaf at `traced` through overlays, leaving
        the library module that really owns the leaf untouched."""
        chain = [module]
        for key in keys[:-1]:
            chain.append(getattr(chain[-1], key))
        replacement = traced
        for depth in range(len(keys) - 1, 0, -1):
            replacement = _Overlay(chain[depth], **{keys[depth]: replacement})
        setattr(module, keys[0], replacement)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans in `names` with no ancestor in `names`."""
    found = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            found.append(s)
    return found


def _outermost_s(spans: list[Span], names: set[str]) -> float:
    return sum((s.duration for s in _outermost(spans, names)), 0.0)


def _owner(spans: list[Span], index: int) -> str | None:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in SOLVE_SPANS:
            return SOLVE_SPANS[spans[parent].name]
        parent = spans[parent].parent
    return None


def layer_metrics(spans: list[Span], missing: list[str] = ()) -> dict[str, float | None]:
    """Per-layer metrics of one traced workload run.

    Ratios over zero calls read 0; metrics of a layer with a missing entry
    point read None.
    """
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum((s.duration for s in named(name)), 0.0)

    def count_attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    traced_s = total("cli.main")
    factors = named("quadratics.factor")
    layer_spans = {s.name for s in spans if s.name.startswith("quadratics.")}
    minimize_s = total("descent.minimize")
    objective_s = total("descent.objective")
    calls = len(named("descent.minimize"))
    iterations = count_attr("descent.minimize", "iterations")
    evaluations = count_attr("descent.minimize", "evaluations")
    m = {
        "quadratics.assemble_s": total("quadratics.assemble"),
        "quadratics.assemble_calls": len(named("quadratics.assemble")),
        "quadratics.factor_s": total("quadratics.factor"),
        "quadratics.factor_calls": len(factors),
        "quadratics.factor_distinct": len({s.attrs["fingerprint"] for s in factors}),
        "quadratics.factor_useful_ratio": (
            len({s.attrs["fingerprint"] for s in factors}) / len(factors)
            if factors else 0.0),
        "quadratics.cg_s": total("quadratics.cg"),
        "quadratics.cg_iterations": count_attr("quadratics.solve_pinned", "iterations"),
        "quadratics.solve_pinned_s": total("quadratics.solve_pinned"),
        "quadratics.time_share": (_outermost_s(spans, layer_spans) / traced_s
                                  if traced_s else None),
        "descent.minimize_s": minimize_s,
        "descent.self_s": minimize_s - objective_s,
        "descent.calls": calls,
        "descent.iterations": iterations,
        "descent.evaluations": evaluations,
        "descent.extra_evals": evaluations - iterations - calls,
        "descent.unconverged": count_attr("descent.minimize", "unconverged"),
        "descent.time_share": minimize_s / traced_s if traced_s else None,
    }
    for span_name, layer in SOLVE_SPANS.items():
        objectives = [s for i, s in enumerate(spans)
                      if s.name == "descent.objective" and _owner(spans, i) == layer]
        seconds = sum((s.duration for s in objectives), 0.0)
        nodes = sum(s.attrs["nodes"] for s in objectives)
        m[f"{layer}.solve_s"] = _outermost_s(spans, {span_name})
        m[f"{layer}.solve_calls"] = len(named(span_name))
        m[f"{layer}.objective_s"] = seconds
        m[f"{layer}.objective_calls"] = len(objectives)
        m[f"{layer}.objective_ns_per_node"] = 1e9 * seconds / nodes if nodes else 0.0
    m["poincare.eig_s"] = total("poincare.eig")
    m.update({
        "construction.local_solve_s": total("construction.local_solve"),
        "construction.local_solve_calls": len(named("construction.local_solve")),
        "construction.assemble_flux_s": total("construction.assemble_flux"),
        "construction.baseline_s": total("construction.baseline"),
        "construction.self_s": sum(t for s, t in zip(spans, own)
                                   if s.name.startswith("construction.")),
        "geometry.rasterize_s": total("geometry.rasterize"),
        "geometry.rasterize_calls": len(named("geometry.rasterize")),
        "sources.sample_s": total("sources.sample"),
        "reporting.write_s": _outermost_s(spans, {"reporting.write"}),
        "reporting.bytes": sum(s.attrs.get("bytes", 0)
                               for s in _outermost(spans, {"reporting.write"})),
        "config.load_s": total("config.load_config"),
        "cli.self_s": sum(t for s, t in zip(spans, own) if s.name == "cli.main"),
    })
    for entry in missing:
        layer = entry.split(".", 1)[0]
        for key in m:
            if key.startswith(layer + ".") or (layer == "descent"
                                               and ".objective" in key):
                m[key] = None
    return m
