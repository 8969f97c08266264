"""Spans recorded from outside the program.

``Tracer.install`` wraps the public functions of every layer module of
``nxfem_ocp`` (and the sparse direct factorizations and triangular solves
of scipy) at every place the package holds a reference to them, so calls
between modules are recorded without touching the program.  Spans stay in
memory as (name, start, end, parent) rows and are written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("mesh", "interface_geometry", "xfem_space", "assembly", "solver",
          "errors", "study")

# Per-element quadrature and geometry kernels.  They are called once per
# element or per integration cell (tens of thousands of times on the finest
# meshes), so a span each would cost more than the work it records; their
# time stays in the self time of the layer that calls them.
KERNELS = {
    "mesh": {"triangle_area"},
    "interface_geometry": {"classify_element", "compute_cut_geometry",
                           "triangle_rule", "map_rule_to_triangle",
                           "subtriangle_quadrature", "segment_quadrature",
                           "refined_triangle_quadrature"},
}

# Methods that do a layer's work on behalf of another module.  Wrapping the
# constructor keeps ``xfem_space.build_s`` measured whichever way the space
# is built.
METHODS = {"xfem_space": {"ExtendedSpace": ("__init__", "boundary_values")}}

# The drivers of the pipeline only dispatch to the layers below them; time
# spent in them outside any other span counts as not covered by a layer.
DRIVERS = {"study.run_convergence_study", "study.discretize",
           "study.solve_discretized"}

SPARSE_DIRECT = "scipy"


class Tracer:
    """In-memory span recorder; one per traced sweep."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []

    # -- recording ------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    # -- installation ---------------------------------------------------
    def _replace_everywhere(self, original, replacement, holders):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, replacement)
                    self._undo.append((holder, attr, original))

    def install(self):
        """Wrap every layer's public functions and the sparse direct calls."""
        import scipy.sparse.linalg as spla
        package = importlib.import_module("nxfem_ocp")
        holders = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith("nxfem_ocp.")]
        for layer in LAYERS:
            module = importlib.import_module(f"nxfem_ocp.{layer}")
            skip = KERNELS.get(layer, set())
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if (inspect.isfunction(obj) and name not in skip
                        and obj.__module__ == module.__name__):
                    self._replace_everywhere(
                        obj, self.wrap(f"{layer}.{name}", obj), holders)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    label = (cls_name if meth == "__init__"
                             else f"{cls_name}.{meth}")
                    setattr(cls, meth, self.wrap(f"{layer}.{label}", original))
                    self._undo.append((cls, meth, original))

        spsolve, splu = spla.spsolve, spla.splu
        tracer = self

        class TracedLU:
            """SuperLU factor whose triangular solves are spans."""

            def __init__(self, lu):
                self._lu = lu
                self.solve = tracer.wrap(f"{SPARSE_DIRECT}.SuperLU.solve",
                                         lu.solve)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        traced_splu = self.wrap(f"{SPARSE_DIRECT}.splu",
                                lambda *a, **k: TracedLU(splu(*a, **k)))
        self._replace_everywhere(spsolve, self.wrap(f"{SPARSE_DIRECT}.spsolve",
                                                    spsolve),
                                 [spla] + holders)
        self._replace_everywhere(splu, traced_splu, [spla] + holders)

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans, root_name="sweep"):
    """Per-layer figures of one traced sweep.

    Self time of a span is its duration minus that of its direct children;
    spans of one process never overlap except by nesting.  The uncovered
    share is the part of the root span that lies in no span other than the
    root and the pipeline drivers.
    """
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def total(pred):
        return sum((d for (n, _, _, _), d in zip(spans, dur) if pred(n)), 0.0)

    def outermost(layer):
        return sum(d for (n, _, _, p), d in zip(spans, dur)
                   if layer_of(n) == layer
                   and (p < 0 or layer_of(spans[p][0]) != layer))

    root = [i for i, s in enumerate(spans) if s[0] == root_name]
    if len(root) != 1:
        raise ValueError(f"expected one {root_name!r} span, found {len(root)}")
    sweep = dur[root[0]]
    uncovered = self_t[root[0]] + sum(
        t for (n, _, _, _), t in zip(spans, self_t) if n in DRIVERS)

    out = {
        "mesh.build_s": total(lambda n: n == "mesh.build_uniform_mesh"),
        "interface_geometry.cut_info_s":
            total(lambda n: n == "interface_geometry.build_cut_info"),
        "xfem_space.build_s": total(lambda n: n == "xfem_space.ExtendedSpace"),
        "assembly.stiffness_s":
            total(lambda n: n == "assembly.assemble_stiffness"),
        "assembly.mass_s": total(lambda n: n == "assembly.assemble_mass"),
        "assembly.load_s": total(lambda n: n == "assembly.assemble_load"),
        "solver.solve_s": outermost("solver"),
        "solver.sparse_direct_s": outermost(SPARSE_DIRECT),
        "solver.sparse_direct_calls":
            sum(1 for s in spans if layer_of(s[0]) == SPARSE_DIRECT),
        "errors.compute_s": total(lambda n: n == "errors.compute_errors"),
        "study.activeset_s":
            total(lambda n: n == "study.extract_active_set_boundary"),
        "study.write_s": total(lambda n: n in (
            "study.write_errors_csv", "study.format_table",
            "study.write_activeset_csv")),
        "trace.uncovered_share": uncovered / sweep,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, self_t) if layer_of(s[0]) == layer)
    return out
