"""In-memory spans and counters around the public functions of each module.

Wrappers rebind a public name where another module (or the benchmark) looks
it up, e.g. ``laplacian.translate_right`` or ``RationalMatrix.rref``; nothing
in the library itself changes.  Hot leaf functions are counted, not timed.

A span is ``(name, start, end, parent, job)`` with ``parent`` the index of the
enclosing span or -1.  The statistics a wrapper derives from its arguments or
result (matrix nonzeros, points checked, ...) are computed outside the span,
inside a ``trace.bookkeeping`` span, so that they do not count as the work of
any layer.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Iterable

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.distinct: dict[str, set] = defaultdict(set)
        self.job: Any = "setup"
        self._sites: list[tuple[Any, str, Callable]] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._signatures: dict[int, tuple[Any, int, int]] = {}
        self.solve_key: int | None = None

    # -- recording -------------------------------------------------------------

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key][0] += amount

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _bookkeep(self, hook: Callable, *args: Any) -> None:
        start = time.perf_counter()
        hook(self, *args)
        end = time.perf_counter()
        self.spans.append((BOOKKEEPING, start, end, self.stack[-1] if self.stack else -1, self.job))

    def span(
        self,
        name: str,
        fn: Callable,
        after: Callable | None = None,
        before: Callable | None = None,
    ) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                self._bookkeep(before, args)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, -1.0, parent, self.job))  # open: end < start
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                self._bookkeep(after, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        cell = self.counts[key]

        def wrapper(*args: Any) -> Any:
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- installation ----------------------------------------------------------

    def plan(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Register a wrapper for ``owner.attr``; ``make`` gets the original."""
        self._sites.append((owner, attr, make(getattr(owner, attr))))

    def install(self) -> None:
        for owner, attr, wrapper in self._sites:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._signatures.clear()

    # -- matrix signatures -----------------------------------------------------

    def matrix_signature(self, m: Any) -> tuple[int, int]:
        """(content key, nonzero count) of a RationalMatrix, cached per object."""
        hit = self._signatures.get(id(m))
        if hit is not None and hit[0] is m:
            return hit[1], hit[2]
        nz = tuple((i, j, v) for i, row in enumerate(m.data) for j, v in enumerate(row) if v)
        key = hash((m.rows, m.cols, nz))
        self._signatures[id(m)] = (m, key, len(nz))
        return key, len(nz)

    # -- results ---------------------------------------------------------------

    def closed_spans(self) -> list[tuple[str, float, float, int, Any]]:
        if self.stack or any(s[2] < s[1] for s in self.spans):
            raise RuntimeError("trace read while spans are still open")
        return self.spans

    def dump(self) -> dict:
        spans = self.closed_spans()
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_fields": ["name", "start", "end", "parent", "job"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans],
            "counters": {k: v[0] for k, v in sorted(self.counts.items())},
            "distinct": {k: len(v) for k, v in sorted(self.distinct.items())},
        }


def self_times(spans: Iterable[tuple[str, float, float, int, Any]]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: list, job_filter: Callable[[Any], bool]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        if job_filter(s[4]):
            totals[s[0]] += t
    return dict(totals)


def top_level_time(spans: list, job_filter: Callable[[Any], bool]) -> float:
    return sum(s[2] - s[1] for s in spans if s[3] < 0 and job_filter(s[4]))
