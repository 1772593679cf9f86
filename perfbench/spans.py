"""In-memory spans and counts at the package's module boundaries.

A ``Tracer`` wraps callables: the entry points a request calls directly,
and (through ``hooked``) the public callables one package module looks up
from another at call time, such as ``solver.green_apply``.  Nothing under
``src/`` is edited; the originals are restored when the ``with`` block
ends.  Spans stay in memory until ``write_spans``.
"""

import csv
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # (span id, name, start, end, parent id, request id)
        self.calls = Counter()
        self.failed = Counter()  # calls that raised
        self.busy = defaultdict(float)       # inclusive time per span name
        self.self_time = defaultdict(float)  # minus time covered by child spans
        self.counts = Counter()  # work counters filled by ``after`` callbacks
        self.unobserved = []     # hook targets missing from the package
        self.request_id = -1
        self._stack = []         # open spans: [span id, time covered by children]

    def wrap(self, name, fn, after=None):
        """Return fn recording one span per call; ``after(counts, args,
        kwargs, result)`` adds work counts on success."""

        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append((span_id, name, start, end,
                                   parent[0] if parent else -1, self.request_id))
                self.calls[name] += 1
                self.busy[name] += duration
                self.self_time[name] += duration - frame[1]
                if raised:
                    self.failed[name] += 1
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def hooked(self, targets):
        """Replace module attributes by traced wrappers for the block.

        ``targets`` holds (module, attribute, span name, after) tuples; an
        attribute the module lacks is recorded in ``unobserved``.
        """
        saved = []
        try:
            for module, attr, name, after in targets:
                if not hasattr(module, attr):
                    label = f"{module.__name__}.{attr}"
                    if label not in self.unobserved:
                        self.unobserved.append(label)
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, after))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_time_by_layer(self):
        layers = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[name.split(".", 1)[0]] += seconds
        return layers

    def write_spans(self, path):
        """One CSV row per span, times in seconds from the first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "request"))
            for span_id, name, start, end, parent, request in sorted(self.spans):
                writer.writerow((span_id, name, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}", parent, request))
