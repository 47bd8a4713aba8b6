"""Outside-in span tracing of the `dpg_elast` modules.

`instrument` replaces every public function of each layer module with a
wrapper that records a span, under every name a `dpg_elast` module looks it
up by (`dpg_elast.study.solve_condensed`, `dpg_elast.rankone.element_full_bmat`,
...).  The sparse factorization `splu` is wrapped where `assembly` and
`rankone` import it, and the factor it returns times its `solve` calls.  The
benchmark callables `f`, `g` and `exact` are wrapped as they leave
`make_benchmark`.  No file of the package changes.

A span holds its name, start, end and parent span; all spans of one worker
share the run id.  Spans stay in memory until `write_spans` dumps them.  A
layer's self time is its spans' durations minus the time their child spans
cover.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import importlib
import sys
import time
from array import array

LAYERS = ("study", "assembly", "local", "basis", "exact", "mesh", "rankone")


class Tracer:
    """Span recorder: parallel arrays indexed by span id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.facts: dict[str, list] = {}

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def fact(self, key: str, value) -> None:
        """Record a count or size observed at a layer boundary."""
        self.facts.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(tracer, args, result)`
        runs once the span has ended."""
        nid = self._intern(name)
        clock = time.perf_counter
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def per_name(self):
        """{name: (calls, inclusive seconds, self seconds)}."""
        import numpy as np

        n = len(self.name_of)
        names = np.frombuffer(self.name_of, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, count=n)
               - np.frombuffer(self.start, count=n))
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> None:
        """Gzipped CSV: run_id, span, parent, name, start_s, end_s."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("run_id", "span", "parent", "name", "start_s", "end_s"))
            for sid in range(len(self.name_of)):
                w.writerow((self.run_id, sid, self.parent[sid],
                            self.names[self.name_of[sid]],
                            f"{self.start[sid] - t0:.9f}",
                            f"{self.end[sid] - t0:.9f}"))


class _TracedFactor:
    """A SuperLU factor whose `solve` calls are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _layer_functions(module):
    prefix = module.__name__ + "."
    out = {}
    for name, obj in vars(module).items():
        if (name.startswith("_") or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__):
            continue
        out[id(obj)] = (prefix + name, obj)
    return out


def _after_layout(tracer, args, layout):
    mesh = args[0]
    tracer.fact("n_active", len(mesh.active_elements))
    tracer.fact("n_dofs", int(layout.n_dofs))


def _after_refine(tracer, args, new_mesh):
    old, marked = args[0], args[1]
    tracer.fact("marked", len(set(marked)))
    split = (len(new_mesh.active_elements) - len(old.active_elements)) // 3
    tracer.fact("split", split)


def _traced_splu(tracer, layer, splu):
    backsolve = f"{layer}.backsolve"

    def after(tr, args, lu):
        A = args[0]
        tr.fact(f"{layer}.factor", (int(A.shape[0]), int(A.nnz),
                                    int(lu.L.nnz + lu.U.nnz)))

    traced = tracer.wrap(f"{layer}.splu", splu, after=after)

    @functools.wraps(splu)
    def factor(*args, **kwargs):
        lu = traced(*args, **kwargs)
        return _TracedFactor(lu, tracer.wrap(backsolve, lu.solve))

    return factor


def instrument(tracer: Tracer) -> None:
    """Replace the layer functions of the imported package by traced ones."""
    modules = {layer: importlib.import_module(f"dpg_elast.{layer}")
               for layer in LAYERS}
    after = {"dpg_elast.assembly.build_dof_layout": _after_layout,
             "dpg_elast.mesh.refine_marked": _after_refine}
    originals = {}
    for module in modules.values():
        originals.update(_layer_functions(module))
    wrapped = {key: tracer.wrap(qual[len("dpg_elast."):], fn,
                                after=after.get(qual))
               for key, (qual, fn) in originals.items()}

    # the benchmark callables leave make_benchmark as closures; wrap them
    make_benchmark = wrapped[id(modules["study"].make_benchmark)]

    def traced_make_benchmark(*args, **kwargs):
        bench = make_benchmark(*args, **kwargs)
        return dataclasses.replace(bench, **{
            name: tracer.wrap(f"exact.{name}", getattr(bench, name))
            for name in ("f", "g", "exact")
            if getattr(bench, name) is not None})

    wrapped[id(modules["study"].make_benchmark)] = traced_make_benchmark

    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "dpg_elast"
                                     or name.startswith("dpg_elast."))]
    for module in package:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped and originals[id(obj)][1] is obj:
                setattr(module, name, wrapped[id(obj)])
    for layer in ("assembly", "rankone"):
        module = modules[layer]
        module.splu = _traced_splu(tracer, layer, module.splu)


def layer_metrics(tracer: Tracer, study_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced study (see bench/README.md)."""
    stats = tracer.per_name()

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def last(key, default=None):
        values = tracer.facts.get(key)
        return values[-1] if values else default

    def ratio(a, b):
        return a / b if b else 0.0

    facts = tracer.facts
    element_steps = sum(facts.get("n_active", []))
    kernel_calls = calls("assembly.element_full_bmat")
    factor = last("assembly.factor", (0, 0, 0))
    rfactor = last("rankone.factor", (0, 0, 0))
    solves = calls("rankone.solve_second_method")
    m = {
        "local.kernel_s": incl("assembly.element_full_bmat",
                               "local.local_stiffness",
                               "local.error_representation"),
        "local.gram_s": own("local.local_gram"),
        "local.bmat_s": own("local.local_bmat"),
        "local.stiffness_s": own("local.local_stiffness"),
        "local.errrep_s": own("local.error_representation"),
        "local.kernel_calls": kernel_calls,
        "local.kernel_calls_per_element": ratio(kernel_calls, element_steps),
        "basis.eval_s": own("basis.q_basis_eval", "basis.edge_basis_eval",
                            "basis.edge_basis_eval_deriv"),
        "basis.eval_calls": calls("basis.q_basis_eval",
                                  "basis.edge_basis_eval"),
        "exact.eval_s": sum(v[2] for k, v in stats.items()
                            if k.startswith("exact.")),
        "exact.point_calls": calls("exact.f", "exact.g", "exact.exact"),
        "study.l2_errors_s": own("study.l2_errors"),
        "assembly.condense_s": own("assembly.solve_condensed"),
        "assembly.factor_s": incl("assembly.splu"),
        "assembly.factor_calls": calls("assembly.splu"),
        "assembly.backsolve_s": incl("assembly.backsolve"),
        "assembly.matrix_nnz": factor[1],
        "assembly.lu_nnz": factor[2],
        "assembly.fill_ratio": ratio(factor[2], factor[1]),
        "assembly.n_dofs": last("n_dofs", 0),
        "assembly.n_free": factor[0],
        "assembly.estimate_s": own("assembly.error_indicators"),
        "assembly.layout_s": own("assembly.build_dof_layout"),
        "assembly.dirichlet_s": own("assembly.dirichlet_values",
                                    "assembly.apply_dirichlet"),
        "assembly.assemble_s": own("assembly.assemble"),
        "mesh.refine_s": own("mesh.refine_marked", "mesh.refine_uniform"),
        "mesh.n_elements": last("n_active", 0),
        "mesh.closure_ratio": ratio(sum(facts.get("split", [])),
                                    sum(facts.get("marked", []))),
        "rankone.ell_s": own("rankone.ell_vector"),
        "rankone.border_s": own("rankone.border_terms"),
        "rankone.restrict_s": own("rankone.build_bordered_system"),
        "rankone.sm_s": own("rankone.solve_second_method"),
        "rankone.factor_s": incl("rankone.splu"),
        "rankone.backsolve_s": incl("rankone.backsolve"),
        "rankone.lu_nnz": rfactor[2],
        "rankone.factors_per_solve": ratio(calls("rankone.splu"), solves),
        "rankone.backsolves_per_solve": ratio(calls("rankone.backsolve"),
                                              solves),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v[2] for k, v in stats.items()
                                   if k.split(".", 1)[0] == layer)
    m["trace.study_s"] = study_s
    m["trace.spans"] = len(tracer.name_of)
    return m
