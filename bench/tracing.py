"""Spans around the cmadof layers, recorded from outside the package.

The benchmark does not change the program. It replaces public functions of
the cmadof modules with timing wrappers for the duration of a traced job,
then puts the originals back. A function that another module imported by
name (``from .quadrature import static_potential_integrals``) is bound in
both namespaces, so every binding in every loaded ``cmadof`` module that is
the original object gets the wrapper. The lazy ``ChannelOperator.singulars``
property is wrapped so that only the first access, which runs the SVD, is
timed.

Spans stay in memory. Pool workers are forked from the benchmark process
and inherit the wrappers; each worker starts an empty span list after the
fork and writes it to ``<worker_dir>/spans-<pid>.json`` when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.util
import os
import sys
import time

#: (module, attribute, span name) of every wrapped function
TARGETS = (
    ("cmadof.mesh", "build_plate_mesh", "mesh.build_plate_mesh"),
    ("cmadof.mesh", "extract_rwg", "mesh.extract_rwg"),
    ("cmadof.mesh", "face_sampling_operator", "mesh.face_sampling_operator"),
    ("cmadof.mesh", "locate_port_edges", "mesh.locate_port_edges"),
    ("cmadof.efie", "assemble_impedance", "efie.assemble_impedance"),
    ("cmadof.quadrature", "static_potential_integrals",
     "quadrature.static_potential_integrals"),
    ("cmadof.cma", "solve_modes", "cma.solve_modes"),
    ("cmadof.cma", "excitation_matrix", "cma.excitation_matrix"),
    ("cmadof.cma", "mode_patterns", "cma.mode_patterns"),
    ("cmadof.channel", "assemble_channel", "channel.assemble_channel"),
    ("cmadof.dofcore", "transmitter_map", "dofcore.transmitter_map"),
    ("cmadof.dofcore", "receiver_map", "dofcore.receiver_map"),
    ("cmadof.dofcore", "equivalent_channel", "dofcore.equivalent_channel"),
    ("cmadof.dofcore", "gamma_decomposition", "dofcore.gamma_decomposition"),
    ("cmadof.dofcore", "build_report", "dofcore.build_report"),
    ("cmadof.ga", "evaluate", "ga.evaluate"),
    ("cmadof.ga", "run_ga", "ga.run_ga"),
)

#: 7-point rule on both faces of every face pair in the regular assembly
_REGULAR_POINTS = 7 * 7
#: 7x7 smooth-remainder rule of each touching pair
_SMOOTH_POINTS = 7 * 7


def rebind(original, replacement) -> list:
    """Point every cmadof binding of `original` at `replacement`.

    Returns (namespace, name, previous) triples for `restore`.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cmadof"
                                  or mod_name.startswith("cmadof.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))
    return undo


def restore(undo) -> None:
    for namespace, name, previous in reversed(undo):
        setattr(namespace, name, previous)


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index]; counts hold work measures
    taken at the same boundaries (kernel evaluations, G bytes).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.worker_dir: str | None = None
        self.captured = []  # the problem of each traced run_ga call
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def reset(self) -> None:
        self.spans, self.stack, self.counts, self.captured = [], [], {}, []

    def _after_fork(self) -> None:
        self.reset()
        if self.worker_dir is not None:
            multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self) -> None:
        path = os.path.join(self.worker_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, amount: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), amount)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, time.perf_counter(), None,
                  self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        self.stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        import cmadof.channel

        undo = []
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            undo += rebind(original,
                           self.wrap(original, name, _AFTER.get(name)))

        prop = cmadof.channel.ChannelOperator.__dict__["singulars"]
        tracer = self

        def singulars(op):
            if op._singulars is not None:
                return prop.fget(op)
            with tracer.span("channel.singulars"):
                return prop.fget(op)

        cmadof.channel.ChannelOperator.singulars = property(
            singulars, doc=prop.__doc__)
        undo.append((cmadof.channel.ChannelOperator, "singulars", prop))
        try:
            yield self
        finally:
            restore(undo)


def _after_assemble(tracer, args, result):
    n_faces = args[0].mesh.n_faces
    tracer.add("efie.kernel_evals", _REGULAR_POINTS * n_faces * n_faces)


def _after_static(tracer, args, result):
    # closed-form static integrals at each outer point, plus the smooth
    # remainder rule of the same touching pair
    tracer.add("efie.kernel_evals", len(args[0]) + _SMOOTH_POINTS)


def _after_channel(tracer, args, result):
    tracer.peak("channel.g_bytes", result.matrix.nbytes)


def _after_run_ga(tracer, args, result):
    tracer.captured.append(args[0])


_AFTER = {
    "efie.assemble_impedance": _after_assemble,
    "quadrature.static_potential_integrals": _after_static,
    "channel.assemble_channel": _after_channel,
    "ga.run_ga": _after_run_ga,
}


def load_worker_spans(worker_dir: str) -> list[dict]:
    """Span dumps the pool workers wrote, one per worker process."""
    out = []
    for name in sorted(os.listdir(worker_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(worker_dir, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: count, inclusive seconds, self seconds, durations.

    Self time is a span's duration minus the durations of its direct
    children (spans of one process never overlap their siblings).
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        t = totals.setdefault(name, {"count": 0, "s": 0.0, "self_s": 0.0,
                                     "durations": []})
        t["count"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child[i]
        t["durations"].append(end - start)
    return totals
