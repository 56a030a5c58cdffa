"""Spans around the library's module boundaries, for the traced run only.

``install`` replaces the module-level names the library calls through
(``revquad.detect.centrality``, ``revquad.symmetry.max_min_dist_all``, ...)
with wrappers that record a span per call; ``uninstall`` puts the originals
back.  Nothing under ``src/`` changes.  A span is
``(name, start, end, parent, request, pairs)``: ``parent`` indexes the
enclosing span (-1 for none), ``request`` is the detect call or scanned
loop it belongs to, and ``pairs`` counts point-segment pairs on kernel
spans.  Spans stay in memory until the run writes them out.  ``wrapper_cost``
measures what one wrapper adds to a call, from which the run estimates the
share of its wall time that tracing costs.

Pool workers are forked with the wrappers in place.  Each plane a worker
tests comes back as a ``TracedRecord``, a ``SectionRecord`` that also
carries the worker's spans; ``harvest`` adopts them into the parent's list
under the detect span that launched the pool.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import time

import revquad.detect
import revquad.formats
import revquad.profiles
import revquad.sections
import revquad.symmetry
from revquad.detect import SectionRecord


@dataclasses.dataclass(frozen=True)
class TracedRecord(SectionRecord):
    spans: tuple = dataclasses.field(default=(), compare=False, repr=False)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.pid = os.getpid()
        self.harvested = 0  # spans adopted from pool workers

    def call(self, name, fn, args, kwargs, pairs=0):
        if self.request is None:
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request, pairs)

    def worker_plane(self, fn, args):
        """Run one pooled plane in a worker and return its spans with it."""
        if os.getpid() == self.pid:
            return self.call("detect.plane", fn, (args,), {})
        self.spans, self.stack, self.request = [], [], 0
        rec = self.call("detect.plane", fn, (args,), {})
        fields = {f.name: getattr(rec, f.name) for f in dataclasses.fields(SectionRecord)}
        return TracedRecord(**fields, spans=tuple(self.spans))

    def harvest(self, verdict, parent):
        """Adopt the worker spans carried by a pooled verdict's records."""
        if self.request is None:
            return
        for rec in verdict.sections:
            base = len(self.spans)
            for name, start, end, par, _, pairs in getattr(rec, "spans", ()):
                par = parent if par < 0 else base + par
                self.spans.append((name, start, end, par, self.request, pairs))
            self.harvested += len(self.spans) - base


def _kernel_pairs(fn_name, args):
    refl, seg_a = args[0], args[1]
    if fn_name == "max_min_dist_all":
        return refl.shape[0] * seg_a.shape[0]
    return refl.shape[0] * args[4].shape[1]


# (span name, module or class, attribute) for every wrapped call-through name.
TARGETS = (
    ("profiles.eval", revquad.profiles.Profile, "eval"),
    ("sections.extent", revquad.sections, "section_extent"),
    ("sections.extent", revquad.detect, "section_extent"),
    ("sections.trace", revquad.sections, "trace_section"),
    ("sections.trace", revquad.detect, "trace_section"),
    ("symmetry.centrality", revquad.symmetry, "centrality"),
    ("symmetry.centrality", revquad.detect, "centrality"),
    ("fastdist.kernel", revquad.symmetry, "max_min_dist_all"),
    ("fastdist.kernel", revquad.symmetry, "max_min_dist_candidates"),
    ("detect.bounds", revquad.detect, "slope_bound"),
    ("detect.bounds", revquad.detect, "infimum_radius"),
    ("detect.probe", revquad.detect, "_probe_planes"),
    ("detect.fit", revquad.detect, "fit_quadratic"),
    ("detect.detect_quadric", revquad.detect, "detect_quadric"),
    ("formats.json", revquad.formats, "verdict_json"),
    ("formats.json", revquad.formats, "centrality_json"),
)


def _wrapper(tracer, name, fn, attr):
    if name == "fastdist.kernel":
        def wrapped(*args, **kwargs):
            pairs = _kernel_pairs(attr, args)
            return tracer.call(name, fn, args, kwargs, pairs)
    elif name == "detect.detect_quadric":
        def wrapped(*args, **kwargs):
            parent = len(tracer.spans)
            verdict = tracer.call(name, fn, args, kwargs)
            tracer.harvest(verdict, parent)
            return verdict
    else:
        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    return functools.wraps(fn)(wrapped)


def wrapper_cost(calls=20000, repeats=7):
    """Seconds one wrapper adds to a call: a wrapped no-op against the bare
    no-op, the median of several alternating batches."""
    tracer = Tracer()
    tracer.request = 0

    def noop():
        return None

    wrapped = _wrapper(tracer, "noop", noop, "noop")
    samples = []
    for _ in range(repeats):
        tracer.spans = []
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)


def install(tracer):
    """Wrap every target; return the originals for ``uninstall``."""
    saved = []
    for name, owner, attr in TARGETS:
        fn = owner.__dict__[attr]
        saved.append((owner, attr, fn))
        setattr(owner, attr, _wrapper(tracer, name, fn, attr))
    star = revquad.detect._test_plane_star
    saved.append((revquad.detect, "_test_plane_star", star))

    @functools.wraps(star)
    def plane_star(args):
        return tracer.worker_plane(star, args)

    revquad.detect._test_plane_star = plane_star
    return saved


def uninstall(saved):
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


# --- per-layer metrics ------------------------------------------------------------


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans):
    """Per-layer counts and times from a finished span list."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)

    def where(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total_s(idx):
        return sum((dur(i) for i in idx), 0.0)

    def self_s(idx):
        return total_s(idx) - sum(_covered([spans[c][1:3] for c in children[i]]) for i in idx)

    def child_count(idx, name):
        return sum(1 for i in idx for c in children[i] if spans[c][0] == name)

    evals = where("profiles.eval")
    extent = where("sections.extent")
    cent = where("symmetry.centrality")
    kern = where("fastdist.kernel")
    pairs = sum(spans[i][5] for i in kern)
    kern_s = total_s(kern)
    return {
        "profiles.eval.calls": (len(evals), "count"),
        "profiles.eval.s": (total_s(evals), "s"),
        "sections.extent.calls": (len(extent), "count"),
        "sections.extent.self_s": (self_s(extent), "s"),
        "sections.extent.evals_per_call": (
            child_count(extent, "profiles.eval") / max(len(extent), 1), "evals/call"),
        "sections.trace.self_s": (self_s(where("sections.trace")), "s"),
        "symmetry.centrality.calls": (len(cent), "count"),
        "symmetry.centrality.self_s": (self_s(cent), "s"),
        "symmetry.centrality.evals_per_call": (
            child_count(cent, "fastdist.kernel") / max(len(cent), 1), "evals/call"),
        "fastdist.kernel.calls": (len(kern), "count"),
        "fastdist.kernel.s": (kern_s, "s"),
        "fastdist.kernel.pairs": (pairs, "count"),
        "fastdist.kernel.ns_per_pair": (1e9 * kern_s / max(pairs, 1), "ns"),
        "detect.bounds_s": (total_s(where("detect.bounds")), "s"),
        "detect.probe.extent_calls": (child_count(where("detect.probe"), "sections.extent"), "count"),
        "detect.fit_s": (total_s(where("detect.fit")), "s"),
        "formats.json.s": (total_s(where("formats.json")), "s"),
    }
