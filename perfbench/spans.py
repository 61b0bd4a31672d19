"""In-memory span recorder and the arithmetic the benchmark reports with.

A span is one call into a wrapped function: its name, start, end and the id
of the span that was open when it started (its parent).  Spans stay in memory
while the benchmark runs and are written out when it ends.  A span's self
time is its duration minus the part of its interval that its children cover.

Nothing here knows about longtail-lab; ``probes.py`` says what to wrap.
"""
from __future__ import annotations

import functools
import gzip
import math
import statistics
import time
from typing import Callable, Iterable

NO_PARENT = -1


class Tracer:
    """Records spans and per-span counts; spans are numbered in start order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        parent = self._open[-1] if self._open else NO_PARENT
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(sid if parent == NO_PARENT else self.roots[parent])
        self.ends.append(math.nan)
        self._open.append(sid)
        self.starts.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        if not self._open or self._open[-1] != sid:
            raise RuntimeError(f"span {sid} ({self.names[sid]}) closed out of order")
        self._open.pop()

    def count(self, sid: int, key: str, amount: float) -> None:
        """Add ``amount`` to the named count of span ``sid``."""
        per_span = self.counts.setdefault(sid, {})
        per_span[key] = per_span.get(key, 0.0) + amount

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             observe: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``name`` is a string, or a function of the call's arguments that
        returns one.  ``observe(tracer, sid, args, kwargs, result)`` runs after
        the span has closed and may record counts on it.
        """
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name_of(*args, **kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if observe is not None:
                observe(self, sid, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        return self_times(self.starts, self.ends, self.parents)

    def write_csv(self, path: str, origin: float = 0.0) -> None:
        """Write one gzip-compressed CSV line per span: id, name, start, end,
        parent, root.  Times are seconds relative to ``origin``.
        """
        with gzip.open(path, "wt", encoding="utf-8", newline="\n", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,root\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid},{name},{self.starts[sid] - origin!r},"
                         f"{self.ends[sid] - origin!r},{self.parents[sid]},"
                         f"{self.roots[sid]}\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping each to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    run_start, run_end = None, None
    for s, e in clipped:
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent in enumerate(parents):
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((starts[sid], ends[sid]))
    out = []
    for sid, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(sid)
        out.append((e - s) - (covered_length(kids, s, e) if kids else 0.0))
    return out


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile (0-100), interpolating linearly between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# Candidate tail percentiles in per mille, highest first.
TAIL_PER_MILLE = (999, 990, 900)


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest of the 99.9th, 99th and 90th percentiles with at least
    ``beyond`` of ``n`` samples above it, or None when none has."""
    for per_mille in TAIL_PER_MILLE:
        if n * (1000 - per_mille) >= beyond * 1000:
            return per_mille / 10.0
    return None


def summarize(values: list[float]) -> dict:
    """Median, quartile spread and the highest well-supported percentile."""
    summary = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["iqr_share"] = (q3 - q1) / summary["median"] if summary["median"] else None
    tail = tail_percentile(len(values))
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(values, tail)
    return summary
