"""In-memory spans: name, start, end and the span that encloses it.

A span's name is ``<layer>.<what>``; the layer is the part before the
first dot. A layer's self time is the duration of its spans minus the
part covered by their child spans.
"""

from time import perf_counter


class Tracer:
    """Records nested spans in memory; ``spans`` rows are [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._open[-1] if tracer._open else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, perf_counter(), None, parent])
        tracer._open.append(self.index)

    def __exit__(self, *exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = perf_counter()
        tracer._open.pop()
        return False


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - child
    return totals


def durations(spans: list[list]) -> dict[str, float]:
    """Total wall duration per span name, children included."""
    totals: dict[str, float] = {}
    for name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + end - start
    return totals
