"""Per-layer tracing of kdclassical from outside the package.

Each layer is timed by swapping a module attribute that its callers look up
at call time (``kdclassical.harness.hull_membership``,
``kdclassical.geometry.simplex_least_squares``, ...) for a wrapper that
records a span. Nothing under ``src/`` is edited, and the originals are put
back when tracing ends. A span is (id, parent id, name, start ns, end ns,
attribute); ids follow call order, parents follow the call stack, and the
benchmark's own operations are the root spans. Spans stay in memory and are
written out once, at the end of the run, under one trace id.

When a wrapped name no longer exists (a later change renames or removes it),
its span is not recorded and every metric built on it is reported as absent.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import time
import uuid
from collections import defaultdict

import numpy as np


def _nbytes(args, result):
    return int(result.nbytes)


def _projector_bytes(args, result):
    return int(sum(p.nbytes for p in result[0]))


def _free_size(args, result):
    return len(args[2])


def _is_classical(args, result):
    return bool(result.classical)


# (span name, module, attribute, attribute recorder)
TARGETS = (
    ("harness.sample", "kdclassical.harness", "sample_kd_boundary", None),
    ("harness.sample", "kdclassical", "sample_kd_boundary", None),
    ("harness.directions", "kdclassical.harness", "traceless_real_table_directions", None),
    ("kdreal.condition", "kdclassical.harness", "kd_real_condition", None),
    ("kdreal.basis", "kdclassical.harness", "kd_real_basis", None),
    ("kdreal.basis", "kdclassical", "kd_real_basis", None),
    ("dft.pair", "kdclassical.harness", "dft_pair", None),
    ("dft.pair", "kdclassical", "dft_pair", None),
    ("families.build", "kdclassical.harness", "pure_kd_set", None),
    ("families.build", "kdclassical", "pure_kd_set", None),
    ("families.flatten", "kdclassical.harness", "all_projectors", _projector_bytes),
    ("families.flatten", "kdclassical", "all_projectors", _projector_bytes),
    ("engine.table", "kdclassical.harness", "kd_table", None),
    ("engine.table", "kdclassical.geometry", "kd_table", None),
    ("engine.classicality", "kdclassical.harness", "classicality", _is_classical),
    ("engine.classicality", "kdclassical.geometry", "classicality", _is_classical),
    ("geometry.hull", "kdclassical.harness", "hull_membership", None),
    ("geometry.hull", "kdclassical", "hull_membership", None),
    ("geometry.stack", "kdclassical.geometry", "stack_real", _nbytes),
    ("geometry.decompose_p2", "kdclassical", "decompose_p2", None),
    ("solver.solve", "kdclassical.geometry", "simplex_least_squares", None),
    ("solver.kkt", "kdclassical.solver", "_solve_free", _free_size),
)

# per-layer metric name -> (unit, span names it is built on)
LAYER_METRICS = {
    "harness.sample_share": ("share", ("harness.sample",)),
    "harness.directions_ms": ("ms/sample", ("harness.directions",)),
    "harness.directions_calls_per_sample": ("calls/sample", ("harness.directions",)),
    "kdreal.condition_calls_per_sample": ("calls/sample", ("kdreal.condition",)),
    "dft.pair_calls_per_sample": ("calls/sample", ("dft.pair",)),
    "solver.solve_share": ("share", ("solver.solve",)),
    "solver.solve_ms.p50": ("ms", ("solver.solve",)),
    "solver.solve_ms.p99": ("ms", ("solver.solve",)),
    "solver.kkt_per_solve.mean": ("steps/solve", ("solver.solve", "solver.kkt")),
    "solver.kkt_per_solve.max": ("steps/solve", ("solver.solve", "solver.kkt")),
    "solver.kkt_us": ("us/step", ("solver.kkt",)),
    "solver.max_free": ("count", ("solver.kkt",)),
    "geometry.hull_calls_per_sample": ("calls/sample", ("geometry.hull",)),
    "geometry.useful_hull_share": ("share", ("geometry.hull", "engine.classicality")),
    "geometry.hull_self_ms": ("ms/sample", ("geometry.hull", "geometry.stack", "solver.solve")),
    "geometry.stack_ms": ("ms/sample", ("geometry.stack",)),
    "geometry.stack_bytes": ("bytes", ("geometry.stack",)),
    "geometry.decompose_p2_ms": ("ms/sample", ("geometry.decompose_p2",)),
    "families.bytes": ("bytes", ("families.flatten",)),
    "families.build_ms": ("ms/call", ("families.build", "families.flatten")),
    "kdreal.basis_ms": ("ms/call", ("kdreal.basis",)),
    "engine.table_ms": ("ms/sample", ("engine.table",)),
    "engine.classicality_ms": ("ms/sample", ("engine.classicality",)),
    "engine.table_calls_per_sample": ("calls/sample", ("engine.table",)),
    "trace.overhead_share": ("share", ()),
}


class Tracer:
    """Spans of one traced run, recorded by wrappers over module attributes."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack: list[int | None] = [None]
        targets = [(name, importlib.import_module(mod), attr, rec) for name, mod, attr, rec in TARGETS]
        missing = {name for name, module, attr, _ in targets if not hasattr(module, attr)}
        self.available = {name for name, *_ in targets} - missing
        self._targets = [t for t in targets if t[0] in self.available]

    @contextlib.contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for _, module, attr, _ in self._targets]
        try:
            for (name, module, attr, rec), (_, _, fn) in zip(self._targets, originals):
                setattr(module, attr, self._wrap(name, fn, rec))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _wrap(self, name, fn, rec):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                attr = rec(args, result) if rec is not None and result is not None else None
                spans.append((sid, parent, name, t0, t1, attr))

        return traced

    @contextlib.contextmanager
    def root(self, kind: str, samples: int):
        """One operation of the benchmark; ``samples`` states are drawn or decided in it."""
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, None, "root." + kind, t0, t1, samples))

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"trace_id": self.trace_id, **header}) + "\n")
            for sid, parent, name, t0, t1, attr in sorted(self.spans):
                out.write(json.dumps({"trace_id": self.trace_id, "span_id": sid, "parent_id": parent,
                                      "name": name, "start_ns": t0, "end_ns": t1, "attr": attr}) + "\n")

    def layer_metrics(self, overhead_share: float) -> dict[str, dict]:
        """Every per-layer metric whose spans were recorded, as {name: {value, unit}}."""
        spans = sorted(self.spans)
        by_name: dict[str, list[tuple]] = defaultdict(list)
        child_ns: dict[int, int] = defaultdict(int)
        kkt_steps: dict[int, int] = defaultdict(int)
        root_of: dict[int, int] = {}
        last_verdict: dict[int, bool] = {}
        useful = 0
        for span in spans:
            sid, parent, name, t0, t1, attr = span
            root_of[sid] = sid if parent is None else root_of[parent]
            by_name[name].append(span)
            if parent is not None:
                child_ns[parent] += t1 - t0
            if name == "solver.kkt" and parent is not None:
                kkt_steps[parent] += 1
            elif name == "engine.classicality":
                last_verdict[root_of[sid]] = attr
            elif name == "geometry.hull":
                useful += last_verdict.get(root_of[sid]) is True

        def samples(*kinds):
            return sum(s[5] for kind in kinds for s in by_name["root." + kind])

        def total_ms(name):
            return sum(s[4] - s[3] for s in by_name[name]) / 1e6

        def count(name):
            return len(by_name[name])

        drawn = samples("probe", "draw")
        decided = samples("probe", "query")
        setups = count("root.probe") + count("root.setup")
        wall_ms = sum(total_ms("root." + kind) for kind in ("probe", "draw", "query", "setup"))
        solve_ms = np.array([s[4] - s[3] for s in by_name["solver.solve"]]) / 1e6
        steps = np.array([kkt_steps[s[0]] for s in by_name["solver.solve"]])
        hulls = by_name["geometry.hull"]

        values = {
            "harness.sample_share": lambda: total_ms("harness.sample") / wall_ms,
            "harness.directions_ms": lambda: total_ms("harness.directions") / drawn,
            "harness.directions_calls_per_sample": lambda: count("harness.directions") / drawn,
            "kdreal.condition_calls_per_sample": lambda: count("kdreal.condition") / drawn,
            "dft.pair_calls_per_sample": lambda: count("dft.pair") / drawn,
            "solver.solve_share": lambda: total_ms("solver.solve") / wall_ms,
            "solver.solve_ms.p50": lambda: float(np.percentile(solve_ms, 50)),
            "solver.solve_ms.p99": lambda: float(np.percentile(solve_ms, 99)),
            "solver.kkt_per_solve.mean": lambda: float(steps.sum()) / len(steps),
            "solver.kkt_per_solve.max": lambda: int(steps.max()),
            "solver.kkt_us": lambda: 1000 * total_ms("solver.kkt") / count("solver.kkt"),
            "solver.max_free": lambda: max(s[5] for s in by_name["solver.kkt"]),
            "geometry.hull_calls_per_sample": lambda: len(hulls) / decided,
            "geometry.useful_hull_share": lambda: useful / len(hulls),
            "geometry.hull_self_ms": lambda: sum(s[4] - s[3] - child_ns[s[0]] for s in hulls) / 1e6 / decided,
            "geometry.stack_ms": lambda: total_ms("geometry.stack") / decided,
            "geometry.stack_bytes": lambda: max((s[5] for s in by_name["geometry.stack"]), default=0),
            "geometry.decompose_p2_ms": lambda: total_ms("geometry.decompose_p2") / decided,
            "families.bytes": lambda: max((s[5] for s in by_name["families.flatten"]), default=0),
            "families.build_ms": lambda: (total_ms("families.build") + total_ms("families.flatten")) / setups,
            "kdreal.basis_ms": lambda: total_ms("kdreal.basis") / setups,
            "engine.table_ms": lambda: total_ms("engine.table") / decided,
            "engine.classicality_ms": lambda: total_ms("engine.classicality") / decided,
            "engine.table_calls_per_sample": lambda: count("engine.table") / decided,
            "trace.overhead_share": lambda: overhead_share,
        }
        out = {}
        for metric, (unit, needs) in LAYER_METRICS.items():
            if not set(needs) <= self.available:
                continue
            try:
                out[metric] = {"value": values[metric](), "unit": unit}
            except (ZeroDivisionError, ValueError, IndexError):  # no spans to take a ratio or percentile of
                continue
        return out
