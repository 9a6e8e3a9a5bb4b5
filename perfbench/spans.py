"""Call spans around the public functions of each pdla layer.

The traced run rebinds module attributes to timing wrappers. A name pulled
in with ``from ... import`` is rebound in the importing module; a name a
module calls through its own globals is rebound where it is defined. Every
call records one span (name, start, end, parent span, op id) in memory; self
time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute, layer name). Several bindings of one function share a
# layer name, so each call is counted once whichever path reached it.
BINDINGS = [
    ("pdla.instances", "validate_row", "instances.validate_row"),
    ("pdla.covering_lp", "validate_row", "instances.validate_row"),
    ("pdla.covering_lp", "process_row", "covering_lp.process_row"),
    ("pdla.covering_lp_box", "process_row", "covering_lp.process_row"),
    ("pdla.experiments", "process_row", "covering_lp.process_row"),
    ("pdla.covering_lp_box", "process_row_box", "covering_lp_box.process_row_box"),
    ("pdla.applications", "process_row_box", "covering_lp_box.process_row_box"),
    ("pdla.experiments", "process_row_box", "covering_lp_box.process_row_box"),
    ("pdla.covering_lp", "find_stop", "growth.find_stop"),
    ("pdla.covering_sdp", "find_stop", "growth.find_stop"),
    ("pdla.growth", "first_crossing", "growth.first_crossing"),
    ("pdla.covering_lp", "coefficient_vector", "growth.coefficient_vector"),
    ("pdla.covering_sdp", "coefficient_vector", "growth.coefficient_vector"),
    ("pdla.covering_lp", "advance", "growth.advance"),
    ("pdla.covering_sdp", "advance", "growth.advance"),
    ("pdla.covering_sdp", "min_eigpair", "symmetric.min_eigpair"),
    ("pdla.covering_sdp", "is_psd", "symmetric.is_psd"),
    ("pdla.covering_sdp", "process_matrix", "covering_sdp.process_matrix"),
    ("pdla.baselines", "offline_solve", "baselines.offline_solve"),
    ("pdla.experiments", "offline_solve", "baselines.offline_solve"),
    ("pdla.experiments", "gen_synthetic", "experiments.gen_synthetic"),
    ("pdla.experiments", "write_csv", "experiments.write_csv"),
    ("pdla.applications", "max_flow", "applications.max_flow"),
    ("pdla.applications", "gst_oracle", "applications.gst_oracle"),
]

LAYERS = sorted({layer for _, _, layer in BINDINGS})
OP = "op"        # the benchmark's own span around one op; its self time is unattributed
SETUP = -1       # op id of spans recorded outside any op


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list = []   # (name, start_ns, end_ns, parent index, op id)
        self._stack: list[int] = []
        self.op_id = SETUP

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def self_ns(self) -> list[int]:
        """Self time of every span, aligned with self.spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, op_ids) -> tuple[Counter, dict]:
        """Calls and self seconds per span name over the spans of `op_ids`."""
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_ns()):
            if span[4] in op_ids:
                calls[span[0]] += 1
                self_s[span[0]] += own / 1e9
        return calls, self_s

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")


@contextmanager
def installed(tracer: Tracer, only=None):
    """Rebind every binding (or those of the layers in `only`) to a wrapper,
    restoring the original attributes on exit."""
    saved = []
    try:
        for module_name, attr, layer in BINDINGS:
            if only is not None and layer not in only:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
