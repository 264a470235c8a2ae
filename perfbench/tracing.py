"""In-memory span recorder for the traced run.

``Tracer.install`` rebinds public functions of the library modules to
wrappers that record a span per call: name, start, end, parent span and the
request it belongs to (a node id, or a node id plus a step). Spans live in
flat arrays and are written out once, when the run ends. Nothing inside the
library is edited; ``uninstall`` restores the original attributes.
"""

from __future__ import annotations

import csv
import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from gptdf import data_io, edge_sim, evaluation, fusion, gp_core


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``gp_core`` so that
    ``minimize`` can be wrapped without touching scipy itself."""

    def __init__(self, module):
        self._module = module
        self.minimize = module.minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


def _source_id(args):
    record = args[1]
    return record["source_id"] if isinstance(record, dict) else record.source_id


def _count_minimize(tracer, args, result):
    tracer.counts["gp_core.minimize.nfev"] += int(result.nfev)
    tracer.counts["gp_core.minimize.nit"] += int(result.nit)
    tracer.counts["gp_core.minimize.failed"] += int(not result.success)


def _count_floor_hits(tracer, args, result):
    scores = np.asarray(args[0], dtype=float) * np.asarray(args[1], dtype=float)
    total = scores.sum()
    if total > 0.0:
        floor = fusion.WEIGHT_FLOOR / scores.size
        tracer.counts["fusion.weight_floor_hits"] += int((scores / total < floor).sum())


class Tracer:
    def __init__(self):
        self.names = []
        self.requests = []
        self._name_ids = {}
        self._request_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.span_request = array("i")
        self.span_step = array("i")
        self.counts = Counter()
        self.step = -1  # set by the node loop around each gptdf_step
        self._request = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def _intern(self, table, ids, key):
        index = ids.get(key)
        if index is None:
            with self._lock:
                index = ids.setdefault(key, len(table))
                if index == len(table):
                    table.append(key)
        return index

    def _begin(self, name_id, request, step):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.span_request.append(request)
            self.span_step.append(step)
            self.end.append(float("nan"))
            self.counts[self.names[name_id] + ".calls"] += 1
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def _finish(self, index):
        self.end[index] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def request(self, name, node_id):
        """Root span of one node operation; spans opened in this thread
        until it closes belong to ``node_id``."""
        self._request = self._intern(self.requests, self._request_ids, node_id)
        index = self._begin(self._intern(self.names, self._name_ids, name), self._request, -1)
        try:
            yield
        finally:
            self._finish(index)
            self._request = -1

    def wrap(self, owner, attr, name, request_of=None, after=None):
        fn = getattr(owner, attr)
        name_id = self._intern(self.names, self._name_ids, name)
        tracer = self

        def traced(*args, **kwargs):
            if request_of is None:
                request, step = tracer._request, tracer.step
            else:
                request = tracer._intern(tracer.requests, tracer._request_ids, request_of(args))
                step = -1
            index = tracer._begin(name_id, request, step)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(index)
            if after is not None:
                after(tracer, args, result)
            return result

        self._rebind(owner, attr, traced)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        proxy = _OptimizeProxy(gp_core.sopt)
        self.wrap(proxy, "minimize", "gp_core.minimize", after=_count_minimize)
        self._rebind(gp_core, "sopt", proxy)
        for module, attrs in (
            (gp_core, ("fit_hyperparameters", "predict", "build_covariance")),
            (fusion, ("gptdf_step", "fuse_predictions", "predictive_weights",
                      "ensemble_from_features", "write_prediction_log")),
            (data_io, ("normalize", "prepare_stream", "load_csv")),
            (evaluation, ("nll", "mae", "mse", "delay")),
        ):
            for attr in attrs:
                self.wrap(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")
        self.wrap(fusion, "update_weights", "fusion.update_weights", after=_count_floor_hits)
        for method in ("report", "query"):
            self.wrap(edge_sim.SocketChannel, method, f"edge_sim.SocketChannel.{method}")
        self.wrap(edge_sim.CloudRegistry, "report", "edge_sim.CloudRegistry.report",
                  request_of=_source_id)
        self.wrap(edge_sim.CloudRegistry, "query", "edge_sim.CloudRegistry.query",
                  request_of=lambda args: args[1].requester_id)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def spans(self):
        """Columns of every finished span, with self time (the span minus
        the time its child spans cover)."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n).copy()
        end = np.frombuffer(self.end, dtype=float, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).copy()
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - children,
            "parent": parent,
            "request": np.frombuffer(self.span_request, dtype=np.int32, count=n).copy(),
            "step": np.frombuffer(self.span_step, dtype=np.int32, count=n).copy(),
        }

    def write_csv(self, path):
        cols = self.spans()
        t0 = float(cols["start"].min()) if len(cols["start"]) else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_us", "end_us", "self_us", "parent", "request"))
            for i in range(len(cols["start"])):
                request = cols["request"][i]
                rid = self.requests[request] if request >= 0 else ""
                if cols["step"][i] >= 0:
                    rid = f"{rid}/{cols['step'][i]}"
                writer.writerow((i, self.names[cols["name"][i]],
                                 f"{(cols['start'][i] - t0) * 1e6:.3f}",
                                 f"{(cols['end'][i] - t0) * 1e6:.3f}",
                                 f"{cols['self'][i] * 1e6:.3f}", cols["parent"][i], rid))
