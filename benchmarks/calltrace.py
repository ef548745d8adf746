"""Call-site tracing of the xms layers, for the benchmark's traced runs.

xms imports names by value (``from .numerics import solve_gev``), so a layer
is traced where its name is looked up: each patch point below replaces one
module attribute with a wrapper for the duration of one traced call and puts
the original back afterwards.  Untraced calls run the unpatched program.

A wrapper records a span around the call.  A layer's self time is its spans'
time minus the time of the traced spans they contain.  Probes that count work
(input fingerprints for ``unique_ratio``, ``ops`` computed from argument
shapes, solver iterations read from the returned models, report bytes) run
outside the spans, and their cost is charged to no layer; it shows only in
``trace.overhead_ratio``.

A patch point that a later refactor removes is reported as missing; its
layer's metrics then read 0 and the untraced run is unaffected.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pca_fit_probe(tracer, args, kwargs, result):
    x = np.asarray(getattr(_arg(args, kwargs, 0, "x"), "values"))
    d, n = x.shape
    tracer.add("preprocess.pca_fit.ops", d * n * min(d, n))
    options = sorted((k, v) for k, v in kwargs.items() if k != "x")
    tracer.seen("preprocess.pca_fit", _digest(x) + repr((args[1:], options)))


def _solve_gev_probe(tracer, args, kwargs, result):
    m = np.shape(_arg(args, kwargs, 0, "a"))[0]
    tracer.add("numerics.solve_gev.ops", m**3)


def _multimodal_graph_probe(tracer, args, kwargs, result):
    ds = _arg(args, kwargs, 0, "dataset")
    key = _digest(ds.xa.values, ds.xb.values, np.asarray(ds.labels)) + repr(_arg(args, kwargs, 1, "k"))
    tracer.seen("numerics.multimodal_graph", key)


def _iterations_probe(layer):
    def probe(tracer, args, kwargs, result):
        hp = getattr(result, "hyperparams", None) or {}
        if "iterations" not in hp or "max_iters" not in hp:
            tracer.missing.add(f"{layer}.iterations")
            return
        tracer.add(f"{layer}.iterations", int(hp["iterations"]))
        tracer.add(f"{layer}.at_max_iters", int(hp["iterations"] >= hp["max_iters"]))

    return probe


def _report_bytes_probe(tracer, args, kwargs, result):
    tracer.add("bench.report.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


# (module, attribute looked up at the call site, layer, probe)
PATCH_POINTS = (
    ("xms.cli", "_write_json", "bench.report", _report_bytes_probe),
    ("xms.bench", "run_benchmark", "bench.protocol", None),
    ("xms.bench", "lambda_sweep", "bench.protocol", None),
    ("xms.bench", "compute_ttests", "bench.stats", None),
    ("xms.bench", "summary_stats", "bench.stats", None),
    ("xms.bench", "box_stats", "bench.stats", None),
    ("xms.bench", "write_report_json", "bench.report", _report_bytes_probe),
    ("xms.bench", "write_report_csv", "bench.report", _report_bytes_probe),
    ("xms.bench", "load_dataset", "dataset_io.load", None),
    ("xms.bench", "random_split", "dataset_io.split", None),
    ("xms.bench", "subset", "dataset_io.split", None),
    ("xms.bench", "fit_method", "methods.fit_method", None),
    ("xms.bench", "project", "methods.model.project", None),
    ("xms.bench", "evaluate_direction", "retrieval_eval.evaluate_direction", None),
    ("xms.methods", "pca_fit", "preprocess.pca_fit", _pca_fit_probe),
    ("xms.methods", "pca_apply", "preprocess.pca_apply", None),
    ("xms.methods.model", "pca_apply", "preprocess.pca_apply", None),
    ("xms.methods", "fit_cca", "methods.cca", None),
    ("xms.methods", "fit_pls", "methods.pls", None),
    ("xms.methods", "fit_gma", "methods.gma", None),
    ("xms.methods", "fit_cdfe", "methods.cdfe", None),
    ("xms.methods", "fit_cca3v", "methods.cca3v", None),
    ("xms.methods", "fit_lcfs", "methods.lcfs", _iterations_probe("methods.lcfs")),
    ("xms.methods", "fit_jfssl", "methods.jfssl", _iterations_probe("methods.jfssl")),
    ("xms.methods.cca", "solve_gev", "numerics.solve_gev", _solve_gev_probe),
    ("xms.methods.gma", "solve_gev", "numerics.solve_gev", _solve_gev_probe),
    ("xms.methods.cdfe", "solve_gev", "numerics.solve_gev", _solve_gev_probe),
    ("xms.methods.gma", "class_knn_graphs", "numerics.graph", None),
    ("xms.methods.cdfe", "knn_graph", "numerics.graph", None),
    ("xms.methods.coupled", "multimodal_graph", "numerics.graph", _multimodal_graph_probe),
    ("xms.retrieval_eval", "rank_by_cosine", "retrieval_eval.rank", None),
    ("xms.retrieval_eval", "average_precision", "retrieval_eval.ap", None),
    ("xms.retrieval_eval", "cmc_curve", "retrieval_eval.cmc", None),
)

# Names whose values are counts of distinct inputs, turned into unique_ratio.
FINGERPRINTED = ("preprocess.pca_fit", "numerics.multimodal_graph")
TOP_LAYER = "cli"


class Tracer:
    """Span and counter accounting for one traced top-level call."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.seen_calls: dict[str, int] = {}
        self.missing: set[str] = set()
        self._open: list[float] = []  # traced child time of each open span

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def seen(self, key: str, fingerprint: str) -> None:
        self.distinct.setdefault(key, set()).add(fingerprint)
        self.seen_calls[key] = self.seen_calls.get(key, 0) + 1

    def call(self, layer, fn, args, kwargs, probe=None):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            children = self._open.pop()
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - children
            if self._open:
                self._open[-1] += elapsed
        if probe is not None:
            p0 = time.perf_counter()
            probe(self, args, kwargs, result)
            if self._open:  # keep probe cost out of the parent's self time
                self._open[-1] += time.perf_counter() - p0
        return result

    def metrics(self, layers) -> dict:
        """Flat per-call metrics: ``<layer>.calls``/``.self_s`` plus counters and ratios."""
        out = {}
        for layer in layers:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out.update(self.counts)
        for key in FINGERPRINTED:
            n = self.seen_calls.get(key, 0)
            out[f"{key}.unique_ratio"] = len(self.distinct.get(key, ())) / n if n else 0.0
        return out


def _wrap(tracer, layer, fn, probe):
    def traced(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, probe)

    return traced


def traced_call(fn, args):
    """Run ``fn(*args)`` with every patch point wrapped; return (result, tracer)."""
    tracer = Tracer()
    patched = []
    try:
        for module_name, attr, layer, probe in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, _wrap(tracer, layer, original, probe))
            patched.append((module, attr, original))
        result = tracer.call(TOP_LAYER, fn, args, {})
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
    return result, tracer


def layers() -> list[str]:
    """Every traced layer, in patch-table order, the top layer first."""
    names = [TOP_LAYER]
    for _, _, layer, _ in PATCH_POINTS:
        if layer not in names:
            names.append(layer)
    return names
