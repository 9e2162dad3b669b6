"""In-memory span tracing around the program's public layer functions.

:class:`Tracer` replaces the listed module attributes and ``Norm`` /
``Polyhedron`` methods with timing wrappers while it is installed, and
puts every original back when it is removed, so untraced runs execute
the unmodified functions.  Each call records one span: name, start, end,
parent span and job id.  A span's self time is its duration minus the
durations of its direct children; calls nest on one thread, so children
never overlap.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from subfinsler import certify, cli, convex, flow, groups, polyhedra

NORM_METHODS = ("dual_value", "value", "unit_face", "grad_dual_energy",
                "regime_id")


def _count_trajectory(tracer: "Tracer", args, result) -> None:
    tracer.count("flow.steps", len(result.times) - 1)
    tracer.count("flow.events", len(result.events))


def _count_csv(tracer: "Tracer", args, result) -> None:
    tracer.count("flow.csv_bytes", os.path.getsize(args[1]))


def _targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, after-call hook) for every layer."""
    mod = [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "cli.load_scenario", None),
        (convex, "norm_from_json", "convex.norm_from_json", None),
        (flow, "integrate_smooth", "flow.integrate_smooth", _count_trajectory),
        (flow, "integrate_polyhedral", "flow.integrate_polyhedral",
         _count_trajectory),
        (flow, "detect_branching", "flow.detect_branching", None),
        (flow, "check_constant_speed", "flow.check_constant_speed", None),
        (flow, "write_trajectory_csv", "flow.write_trajectory_csv",
         _count_csv),
        (certify, "certify_trajectory", "certify.certify_trajectory", None),
        (certify, "adjoint_bracket_bound", "certify.adjoint_bracket_bound",
         None),
        (certify, "verify_face_stability", "certify.verify_face_stability",
         None),
        (certify, "abelianized_minimality", "certify.abelianized_minimality",
         None),
        (polyhedra, "linprog", "polyhedra.lp", None),
    ]
    mod += [(groups, name, f"groups.{name}", None)
            for name in ("exp", "adjoint_matrix", "coadjoint_dual_point",
                         "ad_matrix")]
    mod += [(polyhedra.Polyhedron, name, f"polyhedra.{name}", None)
            for name in ("face_of", "faces", "star_covering", "from_vertices")]
    norm_classes = [cls for cls in vars(convex).values()
                    if isinstance(cls, type) and issubclass(cls, convex.Norm)]
    mod += [(cls, name, f"convex.{name}", None)
            for cls in norm_classes for name in NORM_METHODS
            if name in vars(cls)]
    return mod


class Tracer:
    """Span recorder; install it with :meth:`installed`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = -1
        self.counters: dict[tuple[int, str], float] = defaultdict(float)

    def count(self, key: str, amount: float) -> None:
        self.counters[(self.job_id, key)] += amount

    def _wrap(self, name: str, fn, after):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, after in _targets():
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self._wrap(name, original.__func__,
                                                     after))
                else:
                    patched = self._wrap(name, original, after)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int64),
                "job": np.array(self.job, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=n)
        total = np.bincount(spans["name_id"], weights=dur, minlength=n)
        self_s = np.bincount(spans["name_id"], weights=own, minlength=n)
        return {name: {"calls": float(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
