"""Per-layer tracing of acmslab from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper in
every acmslab namespace that holds it, so calls through `charts.evaluate`,
`curvature.christoffel` or `cli.modified_connection_suite` are all seen.
Methods are patched on their class. `Tracer.uninstall` puts the originals
back. Nothing in the package is edited, and untraced runs pay nothing.

A traced call either records a span (op, id, parent, name, start, end, ok)
or, for the boundaries crossed once per tensor component or parsed entry,
only adds to its function's counters. Each open call knows how much of its
duration its traced children took, which gives self time. Spans stay in
memory until `write_spans` is called at the end of the run.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time

#: (metric name, module under acmslab, attribute path) of every traced call.
TARGETS = (
    ("exprs.evaluate", "exprs", "evaluate"),
    ("exprs.differentiate", "exprs", "differentiate"),
    ("exprs.parse", "exprs", "parse"),
    ("charts.g_at", "charts", "Chart.g_at"),
    ("charts.phi_at", "charts", "Chart.phi_at"),
    ("charts.dg_at", "charts", "Chart.dg_at"),
    ("charts.ddg_at", "charts", "Chart.ddg_at"),
    ("charts.dphi_at", "charts", "Chart.dphi_at"),
    ("charts.christoffel", "charts", "christoffel"),
    ("charts.christoffel_derivative", "charts", "christoffel_derivative"),
    ("charts.nabla_xi", "charts", "nabla_xi"),
    ("charts.nabla_phi", "charts", "nabla_phi"),
    ("charts.contact_volume_coefficient", "charts", "contact_volume_coefficient"),
    ("curvature.riemann", "curvature", "riemann"),
    ("curvature.modified_riemann", "curvature", "modified_riemann"),
    ("curvature.modified_christoffel", "curvature", "modified_christoffel"),
    ("curvature.PointGeometry", "curvature", "PointGeometry.__init__"),
    ("curvature.contact_residuals", "curvature", "contact_residuals"),
    ("curvature.horizontal_sectional_values", "curvature", "horizontal_sectional_values"),
    ("curvature.modified_connection_suite", "curvature", "modified_connection_suite"),
    ("curvature.defect_collapse_suite", "curvature", "defect_collapse_suite"),
    ("curvature.defect_factorization_suite", "curvature", "defect_factorization_suite"),
    ("curvature.curvature_reconstruction_suite", "curvature",
     "curvature_reconstruction_suite"),
    ("structure.validate_acms", "structure", "validate_acms"),
    ("structure.horizontal_basis", "structure", "horizontal_basis"),
    ("structure.check_eta_parallel", "structure", "check_eta_parallel"),
    ("linalg.symmetric_eigen", "linalg", "symmetric_eigen"),
    ("linalg.g_singular_values", "linalg", "g_singular_values"),
    ("linalg.gram_schmidt", "linalg", "gram_schmidt"),
    ("linalg.project_out", "linalg", "project_out"),
    ("quadruples.constrained_operator_basis", "quadruples", "constrained_operator_basis"),
    ("quadruples.random_constrained_operator", "quadruples", "random_constrained_operator"),
    ("quadruples.quadruple_decomposition", "quadruples", "quadruple_decomposition"),
    ("quadruples.find_generic_vector", "quadruples", "find_generic_vector"),
    ("quadruples.find_orthogonal_witness", "quadruples", "find_orthogonal_witness"),
    ("cli.main", "cli", "main"),
)

#: Boundaries crossed once per tensor component (or parsed entry): one span
#: each would cost more than the call, so they are counted and timed only.
AGGREGATED = frozenset({"exprs.evaluate", "exprs.differentiate", "exprs.parse"})

#: Calls whose per-point rate shows duplicated geometry work.
PER_POINT = ("curvature.riemann", "curvature.modified_riemann",
             "curvature.PointGeometry", "exprs.evaluate")

_CHILD_FIELDS = ("left", "right", "base", "arg")


class Tracer:
    """Counters and spans for one traced run; create, install, run ops,
    uninstall, then read `metrics`."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}  # calls, s, self_s
        self.scoped_calls: dict[tuple[str, str], int] = {}
        self.points: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.nodes = 0
        self.op = None
        self.scope = ""
        self._sizes: dict[int, tuple[object, int]] = {}
        self._stack: list[list] = []  # open calls: [span id, children's seconds]
        self._active: set[str] = set()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import acmslab  # noqa: F401  (loads every submodule)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "acmslab" or n.startswith("acmslab.")]
        for name, modname, path in TARGETS:
            home = sys.modules[f"acmslab.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original)
            # A function that recurses through its own global name is left
            # alone in its home module: wrapping every tree node would
            # multiply the cost of expression evaluation.
            recursive = path in original.__code__.co_names
            for ns in namespaces:
                if ns is home and recursive:
                    continue
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        record_span = name not in AGGREGATED
        count_nodes = name == "exprs.evaluate"
        active = self._active
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:  # reentrant call: the outer call already times it
                return fn(*args, **kwargs)
            active.add(name)
            parent = stack[-1][0] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                active.discard(name)
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                key = (self.scope, name)
                self.scoped_calls[key] = self.scoped_calls.get(key, 0) + 1
                if count_nodes:
                    self.nodes += self._size(args[0])
                if record_span:
                    self.spans.append((self.op, frame[0], parent, name, t0, t1, ok))

        return wrapper

    def _size(self, expr) -> int:
        hit = self._sizes.get(id(expr))
        if hit is None:
            kids = [getattr(expr, f) for f in _CHILD_FIELDS if hasattr(expr, f)]
            hit = (expr, 1 + sum(self._size(k) for k in kids))  # keeps expr alive
            self._sizes[id(expr)] = hit
        return hit[1]

    # -- results --------------------------------------------------------------

    def add_points(self, scope: str, count: int) -> None:
        self.points[scope] = self.points.get(scope, 0) + count

    def draw_acceptance(self) -> float:
        """Accepted operators per `g_singular_values` draw made directly
        inside `random_constrained_operator`; 0 when no such draw ran."""
        draws_by_parent: dict[int, int] = {}
        rco = {}
        for _, span_id, parent, name, _, _, ok in self.spans:
            if name == "linalg.g_singular_values" and parent is not None:
                draws_by_parent[parent] = draws_by_parent.get(parent, 0) + 1
            elif name == "quadruples.random_constrained_operator":
                rco[span_id] = ok
        draws = sum(n for p, n in draws_by_parent.items() if p in rco)
        accepted = sum(1 for p in draws_by_parent if rco.get(p))
        return accepted / draws if draws else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, total, self_s) in self.stats.items():
            if name == "cli.main":
                out["cli.self_s"] = (self_s, "s")
                continue
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")
        out["exprs.evaluate.nodes"] = (self.nodes, "count")
        # Per point of the op's point-verifying subcommand: identities where
        # the workload runs it, validate otherwise.
        scope = next((s for s in ("identities", "validate") if self.points.get(s)), None)
        for name in PER_POINT:
            rate = (self.scoped_calls.get((scope, name), 0) / self.points[scope]
                    if scope else 0.0)
            out[f"{name}.per_point"] = (rate, "1/point")
        out["quadruples.draw_acceptance"] = (self.draw_acceptance(), "ratio")
        return out

    def write_spans(self, path) -> None:
        doc = {"fields": ["op", "id", "parent", "name", "start_s", "end_s", "ok"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
