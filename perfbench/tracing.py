"""Tracing from outside the library: spans around benchmark items, and
counters plus busy time from wrappers on the public functions of each
module.

Spans are recorded only at item granularity (one corpus entry, one sampled
pattern, one counting call, one pool call). The hot inner calls, such as
the 78k ``find_occurrence`` calls of a ``count`` pass or the 1.5M
``series.evaluate`` calls of a ``classify`` pass, are aggregated as
counters; each span keeps the counter deltas accumulated while it was
open.

Wrappers replace every module attribute that holds the original function,
because callers look functions up by module global: ``certify`` imports
``find_occurrence`` and ``generate_free_words`` by name, and
``series.smallest_positive_root`` looks up ``evaluate`` in its own module.
A process forked by a pool inherits the wrappers, but its counters stay in
the child and are not reported.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter

# (module, function, what to record). "busy" records calls and inclusive
# busy time; "count" records calls only, where no time is reported, and
# for series.evaluate, called over a million times a pass, timing each call
# would dominate the traced run.
TARGETS = (
    ("patterns", "find_occurrence", "search"),
    ("patterns", "enumerate_remaining", "busy"),
    ("patterns", "pattern_contains_doubled", "count"),
    ("words", "generate_free_words", "stream"),
    ("certify", "apply_morphism", "busy"),
    ("certify", "verify_entry", "busy"),
    ("certify", "count_avoiding", "busy"),
    ("series", "certify_threeavoidable", "conclusive"),
    ("series", "smallest_positive_root", "busy"),
    ("series", "evaluate", "count"),
    ("spectral", "avoidability_exponent", "ae"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counters")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.counters = {}

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run,
                "counters": self.counters}


class Tracer:
    """Holds the spans of one process in memory and the live counters
    that the wrappers increment."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, run: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, perf_counter(), parent, run)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        before = dict(self.counts)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()
            sp.counters = {k: v - before.get(k, 0.0)
                           for k, v in self.counts.items()
                           if v != before.get(k, 0.0)}

    def install(self) -> None:
        """Replace each target in every loaded ``avoidance`` module that
        binds it, keeping the originals for ``uninstall``."""
        if self._originals:
            raise RuntimeError("wrappers are already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "avoidance" or name.startswith("avoidance.")]
        for modname, fname, kind in TARGETS:
            home = sys.modules[f"avoidance.{modname}"]
            original = getattr(home, fname)
            wrapper = _WRAPPERS[kind](self.counts, f"{modname}.{fname}",
                                      original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _busy(counts, key, fn):
    calls, busy = key + ".calls", key + ".busy_s"

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[busy] += perf_counter() - t0
            counts[calls] += 1
    return wrapper


def _count(counts, key, fn):
    calls = key + ".calls"

    def wrapper(*args, **kwargs):
        counts[calls] += 1
        return fn(*args, **kwargs)
    return wrapper


def _search(counts, key, fn):
    # find_occurrence(p, w, ...): also hits and the letters of each host
    calls, busy = key + ".calls", key + ".busy_s"
    hits, letters = key + ".hits", key + ".host_letters"

    def wrapper(p, w, *args, **kwargs):
        t0 = perf_counter()
        try:
            occ = fn(p, w, *args, **kwargs)
        finally:
            counts[busy] += perf_counter() - t0
            counts[calls] += 1
        counts[letters] += len(w)
        if occ is not None:
            counts[hits] += 1
        return occ
    return wrapper


def _stream(counts, key, fn):
    # a generator: busy time is the time spent producing each word
    calls, busy, emitted = key + ".calls", key + ".busy_s", key + ".words"

    def wrapper(*args, **kwargs):
        counts[calls] += 1
        t0 = perf_counter()
        it = fn(*args, **kwargs)
        counts[busy] += perf_counter() - t0
        while True:
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                counts[busy] += perf_counter() - t0
                return
            counts[busy] += perf_counter() - t0
            counts[emitted] += 1
            yield item
    return wrapper


def _conclusive(counts, key, fn):
    inner = _busy(counts, key, fn)
    flag = key + ".conclusive"

    def wrapper(*args, **kwargs):
        report = inner(*args, **kwargs)
        if report.conclusive:
            counts[flag] += 1
        return report
    return wrapper


def _ae(counts, key, fn):
    # power-iteration steps are read from the returned AEResult
    inner = _busy(counts, key, fn)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        counts["spectral.iterations"] += result.iterations
        return result
    return wrapper


_WRAPPERS = {"busy": _busy, "count": _count, "search": _search,
             "stream": _stream, "conclusive": _conclusive, "ae": _ae}
