"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span in ``Recorder.spans`` (-1 at top level) and ``op`` the
id of the benchmark operation it belongs to. Spans are recorded around the
benchmark's own calls into majorize, never inside the package, kept in memory
and written out once the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """Return `fn` recording one span named `name` per call."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            idx = len(spans)
            spans.append(None)
            open_.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def add(self, name: str, start: int, end: int) -> None:
        """Record a span timed elsewhere, such as inside a child process."""
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, start, end, parent, self.op))

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def summarize(spans: list) -> dict[str, tuple[int, int, list[int]]]:
    """Per span name: call count, total self time and sorted durations (ns).

    Self time is a span's duration minus the part of its interval that its
    child spans cover.
    """
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    stats: dict = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        calls, self_ns, durations = stats.get(name, (0, 0, []))
        durations.append(end - start)
        stats[name] = (calls + 1, self_ns + (end - start) - covered, durations)
    return {name: (c, s, sorted(d)) for name, (c, s, d) in stats.items()}
