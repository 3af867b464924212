"""In-memory span recorder that wraps fedfair's public layer functions.

Tracing is done from outside the package: each traced function is rebound
on the module where its caller looks the name up, for the duration of an
``installed()`` block. A span is ``[name, start, end, parent]``; the parent
is the index of the span open when the call started, so self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import ExitStack, contextmanager

# (module the caller looks the name up in, attribute, reported layer).
# federation imports stream, generate_federation and transform_responses by
# name, and cli imports run_federation by name, so those are rebound on the
# importing module; everything else is called through its own module.
SPANNED = [
    ("cli", "parse_config", "cli"),
    ("cli", "run_suite", "cli"),
    ("cli", "run_log_lines", "cli"),
    ("cli", "summary_from_log", "cli"),
    ("cli", "run_federation", "federation"),
    ("federation", "generate_federation", "datasets"),
    ("federation", "stream", "datasets"),
    ("federation", "transform_responses", "transform"),
    ("federation", "client_update", "federation"),
    ("federation", "sample_clients", "federation"),
    ("federation", "evaluate_clients", "federation"),
    ("decision", "decision_loss", "decision"),
    ("decision", "decision_gradient", "decision"),
    ("decision", "linearized_gradient", "decision"),
    ("decision", "dr_estimate", "decision"),
    ("aggregators", "ons_step", "aggregators"),
    ("aggregators", "ftrl_eg_step", "aggregators"),
    ("aggregators", "hindsight_best", "aggregators"),
    ("simplex", "project_mahalanobis", "simplex"),
    ("simplex", "project_euclidean", "simplex"),
    ("simplex", "normalize_subset", "simplex"),
    ("metrics", "regret", "metrics"),
]

# Called in the hindsight solver's inner loops: counted, not spanned.
COUNTED = [("aggregators", "cumulative_loss", "aggregators")]


@contextmanager
def rebound(module, attr, replacement):
    """Rebind ``module.attr`` to ``replacement`` inside the block."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Recorder:
    """Collects spans and call counts while ``installed()`` is active."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def _spanned(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every function in SPANNED and COUNTED inside the block."""
        with ExitStack() as stack:
            for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for owner, attr, layer in table:
                    module = importlib.import_module(f"fedfair.{owner}")
                    traced = wrap(f"{layer}.{attr}", getattr(module, attr))
                    stack.enter_context(rebound(module, attr, traced))
            yield self

    def totals(self):
        """Per span name: {"calls", "s" (inclusive seconds), "self_s"}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def write_tsv(self, path):
        """Write every span as ``name start end parent``, one per line."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
