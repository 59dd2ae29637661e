"""In-memory spans around calls into the hypersimplex layers.

The traced benchmark run wraps each layer call it makes itself with
``Tracer.wrap``. Calls that one package module makes into another
(trainer -> losses -> projection/backward) are reached by rebinding, for
the duration of the run, the names the calling module imported
(``unittest.mock.patch.object``); the package source is never edited.
Spans stay in memory and are written once, when the run ends.
"""

import json
import time

NAME, OP, PARENT, START, END = range(5)


class Tracer:
    """Collects [name, op, parent, start_ns, end_ns] spans.

    ``op`` is the index of the benchmark op that was running (-1 outside
    any op), so all spans of one op share it; ``parent`` is the index of
    the enclosing span (-1 at the top level).
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._open = [-1]

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, self.op, open_[-1], 0, 0]
            open_.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                open_.pop()

        return traced

    def durations_ns(self, name, in_ops_only=False):
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == name and (s[OP] >= 0 or not in_ops_only)
        ]

    def count(self, name, in_ops_only=False):
        return len(self.durations_ns(name, in_ops_only))

    def summary(self):
        """Per span name: calls, total and self milliseconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out = {}
        for s, children in zip(self.spans, child_ns):
            row = out.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (s[END] - s[START]) / 1e6
            row["self_ms"] += (s[END] - s[START] - children) / 1e6
        return out

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "op", "parent", "start_ns", "end_ns"],
                    "summary": self.summary(),
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
