"""In-memory span recording around binpdf's public layer functions.

A span is one call into a layer: its name, start, end (``time.perf_counter``
seconds within one process), the index of the span that was open when it
started (its parent, -1 at top level), and a few work counts. Spans are
kept in a list and written out once, when the traced process ends.

``install`` wraps the layer functions from outside the package: it replaces
module attributes and class methods of an imported ``binpdf``, so ``src/``
stays untouched and an untraced run executes none of this code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
import tracemalloc


class Recorder:
    """Collects spans; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.paused = False

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": stack[-1] if stack else -1, "attrs": {}}
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p and os.path.exists(p))


def install(recorder: Recorder) -> None:
    """Wrap every traced layer function of the ``binpdf`` package."""
    import binpdf
    from binpdf import analysis, baselines, cli, estimator, grid, sampling

    modules = [binpdf, analysis, baselines, cli, estimator, grid, sampling]

    def replace_function(original, wrapper):
        # ``from .x import f`` copies the function into other modules, so
        # every module-level reference to the original is rebound.
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def traced(name, counts=None):
        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if recorder.paused:
                    return func(*args, **kwargs)
                index = recorder.open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    recorder.close(index)
                if counts is not None:
                    recorder.spans[index]["attrs"].update(counts(args, kwargs, result))
                return result
            return wrapper
        return decorate

    def wrap_function(module, attr, name, counts=None):
        original = getattr(module, attr)
        replace_function(original, traced(name, counts)(original))

    def wrap_method(cls, attr, name, counts=None):
        setattr(cls, attr, traced(name, counts)(getattr(cls, attr)))

    wrap_function(sampling, "sample", "sampling.sample",
                  lambda a, k, r: {"points": int(r.shape[0])})
    wrap_function(sampling, "write_samples_csv", "sampling.write_csv",
                  lambda a, k, r: {"bytes": _file_bytes(a[0])})
    wrap_function(sampling, "read_samples_csv", "sampling.read_csv",
                  lambda a, k, r: {"bytes": _file_bytes(a[0]), "points": int(r.shape[0])})
    wrap_method(sampling.DistributionSpec, "pdf", "sampling.exact_pdf",
                lambda a, k, r: {"points": int(r.shape[0])})
    wrap_method(grid.TensorGrid, "check_in_domain", "grid.check_in_domain",
                lambda a, k, r: {"points": len(a[1])})
    wrap_method(grid.TensorGrid, "basis_integrals", "grid.basis_integrals",
                lambda a, k, r: {"nodes": int(r.shape[0])})
    wrap_method(estimator.PiecewiseLinearPdf, "evaluate_batch", "estimator.evaluate",
                lambda a, k, r: {"points": int(r.shape[0])})
    wrap_function(estimator, "save_pdf", "estimator.save",
                  lambda a, k, r: {"bytes": _file_bytes(a[1], r)})
    wrap_function(baselines, "fit_histogram", "baselines.fit_histogram",
                  lambda a, k, r: {"points": int(r.sample_count)})
    wrap_method(baselines.Histogram, "evaluate_batch", "baselines.histogram_evaluate",
                lambda a, k, r: {"points": int(r.shape[0])})
    wrap_function(analysis, "estimate_support", "analysis.estimate_support")
    wrap_function(analysis, "rmse_vs_histogram", "analysis.rmse_vs_histogram")
    wrap_function(analysis, "rmse_vs_exact", "analysis.rmse_vs_exact",
                  lambda a, k, r: {"points": len(a[2])})
    wrap_function(analysis, "convergence_study", "analysis.convergence_study")
    wrap_function(analysis, "averaged_study", "analysis.averaged_study")

    fit = estimator.fit

    @functools.wraps(fit)
    def traced_fit(grid_, samples, *args, **kwargs):
        if recorder.paused:
            return fit(grid_, samples, *args, **kwargs)
        index = recorder.open("estimator.fit")
        tracemalloc.start()
        try:
            pdf = fit(grid_, samples, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            recorder.close(index)
        m = int(pdf.sample_count)
        recorder.spans[index]["attrs"].update(
            samples=m, corner_deposits=m * 2 ** grid_.dim, nodes=int(grid_.n_nodes),
            peak_alloc_mb=peak / 2**20,
        )
        # fit locates through a private method; time the public locate on the
        # same points as a sibling span, with the nested domain check untraced
        recorder.paused = True
        try:
            start = time.perf_counter()
            grid_.locate_bins(samples)
            end = time.perf_counter()
        finally:
            recorder.paused = False
        stack = recorder._stack()
        recorder.spans.append({"name": "grid.locate", "start": start, "end": end,
                               "parent": stack[-1] if stack else -1,
                               "attrs": {"points": m, "probe": True}})
        return pdf

    replace_function(fit, traced_fit)


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, inclusive and self seconds, and summed counts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span["name"], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["inclusive_s"] += duration
        entry["self_s"] += duration - child_time[i]
        for key, value in span["attrs"].items():
            if key == "peak_alloc_mb":
                entry[key] = max(entry.get(key, 0.0), value)
            elif key != "probe":
                entry[key] = entry.get(key, 0) + value
    return out
