"""Span tracing of trapdiff's public functions, installed from outside.

`install()` wraps every public function and public method of the traced
modules and replaces each reference to the original in every loaded
trapdiff module. That matters because several callers import a function
by name (`harness` holds its own `invert`, `de_map` and `gauss_legendre`,
`waiting` its own `gen_exp_integral_scaled`); patching only the defining
module would miss their calls. `scipy.integrate.quad`, as `fde` imported
it, is wrapped too so that QUADPACK calls and integrand evaluations count.

Each span stores its name, its parent span and its start and end, in
memory; the summary derives a span's self time as its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

TRACED_MODULES = ("cli", "harness", "transport", "ilt", "waiting", "specfun",
                  "fde")

# per-layer metric -> (spans whose calls it counts, if any; spans whose
# self time it sums); a helper that only its layer calls is folded in
LAYERS = {
    "transport.spectrum": (("transport.ado_spectrum",),
                           ("transport.ado_spectrum", "transport.sigma_t")),
    "transport.density": (("transport.laplace_density",),
                          ("transport.laplace_density",)),
    "ilt.invert": (("ilt.invert",), ("ilt.invert",)),
    "ilt.node_map": (("ilt.de_map", "ilt.de_map_derivative"),
                     ("ilt.de_map", "ilt.de_map_derivative")),
    "waiting.laplace_survival": (
        ("waiting.WaitingTimeModel.laplace_survival",),
        ("waiting.WaitingTimeModel.laplace_survival",
         "waiting.WaitingTimeModel.laplace_pdf")),
    "specfun.expint": (("specfun.gen_exp_integral_scaled",),
                       ("specfun.gen_exp_integral_scaled",)),
    "fde.density": (("fde.density_half", "fde.density"),
                    ("fde.density_half", "fde.density")),
    "fde.quad": (("fde.quad",), ("fde.quad",)),
    "fde.normal": (("fde.normal_diffusion",), ("fde.normal_diffusion",)),
    "harness.run_scenario": ((),
                             ("harness.run_scenario",
                              "harness.Scenario.fingerprint",
                              "harness.SpatialGrid.points",
                              "fde.from_transport")),
    "harness.emit_csv": ((),
                         ("harness.emit_csv", "harness.SpatialProfile.xs")),
    "cli.main": ((), ("cli.main",)),
}


class Tracer:
    """In-memory span store plus the counters kept at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.spectrum_keys: set = set()
        self.survival_keys: set = set()
        self.quad_neval = 0
        self.csv_bytes = 0

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, kwargs, result)`
        runs inside the span to update counters."""
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(idx)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return traced

    # counters -----------------------------------------------------------

    def _spectrum_key(self, args, kwargs, result):
        params, quadrature, s = args[:3]
        self.spectrum_keys.add((params, quadrature.order, complex(s)))

    def _survival_key(self, args, kwargs, result):
        model, s = args[:2]
        self.survival_keys.add((model, complex(s)))

    def _quad_neval(self, args, kwargs, result):
        if kwargs.get("full_output") and len(result) > 2:
            self.quad_neval += int(result[2].get("neval", 0))

    def _csv_bytes(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.csv_bytes += os.path.getsize(path)

    # summary ------------------------------------------------------------

    def span_table(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        table = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            row = table[self.names[self.name_of[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i] - child[i]
        return {k: (c, s) for k, (c, s) in table.items()}

    def metrics(self) -> dict[str, float]:
        table = self.span_table()
        out = {}
        for layer, (counted, timed) in LAYERS.items():
            if counted:
                out[f"{layer}.calls"] = sum(table.get(n, (0, 0.0))[0]
                                            for n in counted)
            out[f"{layer}.self_s"] = sum(table.get(n, (0, 0.0))[1]
                                         for n in timed)
        out["transport.spectrum.solved"] = len(self.spectrum_keys)
        out["waiting.laplace_survival.distinct"] = len(self.survival_keys)
        out["fde.quad.neval"] = self.quad_neval
        out["harness.emit_csv.bytes"] = self.csv_bytes
        out["trace.spans"] = len(self.start)
        return out


def _public_callables(module):
    """(qualified name, owner, attribute, function) for every public
    function and public method defined in `module`."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{short}.{attr}.{meth}", obj, meth, fn


def install() -> Tracer:
    """Wrap the traced modules of the already importable trapdiff package."""
    tracer = Tracer()
    hooks = {"transport.ado_spectrum": tracer._spectrum_key,
             "waiting.WaitingTimeModel.laplace_survival": tracer._survival_key,
             "harness.emit_csv": tracer._csv_bytes}
    wrapped = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"trapdiff.{short}")
        for name, owner, attr, fn in list(_public_callables(module)):
            wrapper = tracer.wrap(name, fn, hooks.get(name))
            setattr(owner, attr, wrapper)
            wrapped[id(fn)] = (fn, wrapper)
    fde = sys.modules["trapdiff.fde"]
    wrapped[id(fde.quad)] = (fde.quad, tracer.wrap("fde.quad", fde.quad,
                                                   tracer._quad_neval))
    # rebind names imported with `from .module import name`
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "trapdiff" and not mod_name.startswith("trapdiff."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
    return tracer
