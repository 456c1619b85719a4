"""In-memory span tracing of bcgbeat's layers, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper on
every ``bcgbeat`` module attribute that holds it, so both the defining
module (``bcgbeat.signals.find_peaks``) and the ``from .x import y`` copies
(``bcgbeat.detector.find_peaks``) record a span.  `uninstall()` puts the
originals back.  Nothing under ``src/`` is changed.

A span is (id, parent id, name, start, end, counts).  Spans are kept in a
list and written out by the caller when the run ends.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kernel_flop(a, result):
    # Per iteration ista_positive computes gram @ A (2 K^2 N flop) and
    # gram_bg @ A_bg (2 M^2 N); ista_negative computes gram @ A only.
    n = a["corr"].shape[1]
    sq = a["gram"].shape[0] ** 2 + (a["gram_bg"].shape[0] ** 2 if "gram_bg" in a else 0)
    return {"flop": 2 * sq * n * a["n_iter"]}


def _bag_counts(a, result):
    pos = sum(1 for b in result if b.label == 1)
    return {"bags_pos": pos, "bags_neg": len(result) - pos}


# (span name, module under bcgbeat, attribute, counter).  The counter maps
# (bound arguments by name, result) to the counts stored on the span.
TARGETS = (
    ("io.read_recording", "io", "read_recording",
     lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("io.write_recording", "io", "write_recording", None),
    ("signals.bandpass_filter", "signals", "bandpass_filter", None),
    ("signals.find_peaks", "signals", "find_peaks", lambda a, r: {"candidates": len(r)}),
    ("signals.extract_instances", "signals", "extract_instances",
     lambda a, r: {"instances": len(r)}),
    ("signals.build_bags", "signals", "build_bags", _bag_counts),
    ("dlfumi.fit", "dlfumi", "fit", lambda a, r: {"em_iters": r.n_iterations}),
    ("dlfumi.safe_step_length", "dlfumi", "safe_step_length", None),
    ("dlfumi.gamma_matrix", "dlfumi", "gamma_matrix", None),
    ("kernels.ista_positive", "kernels", "ista_positive", _kernel_flop),
    ("kernels.ista_negative", "kernels", "ista_negative", _kernel_flop),
    ("detector.confidence_series", "detector", "confidence_series",
     lambda a, r: {"coded": sum(len(c) for c in r.confidences)}),
    ("detector.mahalanobis_sq", "detector", "BackgroundModel.mahalanobis_sq", None),
    ("detector.background_covariance", "detector", "background_covariance", None),
    ("detector.learn_detection_params", "detector", "learn_detection_params_pooled", None),
    ("detector.vote_beats", "detector", "vote_beats", lambda a, r: {"beats": len(r)}),
    ("detector.hr_from_beats", "detector", "hr_from_beats", None),
    ("detector.hr_from_confidence_dft", "detector", "hr_from_confidence_dft", None),
    ("metrics.greedy_match", "metrics", "greedy_match", None),
)


class Tracer:
    """Collects spans; `span()` opens one around a block of harness code."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, counter):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.counts.update(counter(bound, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a bcgbeat module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "bcgbeat" or n.startswith("bcgbeat."))
        ]
        for name, mod_name, attr, counter in TARGETS:
            mod = importlib.import_module("bcgbeat." + mod_name)
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counter))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out

