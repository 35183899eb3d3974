"""In-memory spans around the benchmark's calls into each ohb module.

A span is (name, start_ns, end_ns, parent index, task id, items, tally):
`items` is how many like operations the call did (vectors applied, pairs
measured), `tally` holds counts read off its result (isometries found,
search nodes).  The name's
first dotted part is the layer: ``chains.decompose`` belongs to
``chains``.  Spans are kept in a list and written out once, at the end
of a run; nothing is recorded while tracing is off.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.task = None
        self._stack = []

    def call(self, name, fn, *args, items=1, tally=None, **kwargs):
        """fn(*args, **kwargs), inside a span named `name` when tracing;
        `tally(result)` gives the counts to keep with the span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter_ns(), None, parent, self.task, items, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter_ns()
        if tally is not None:
            span[6] = tally(result)
        return result

    def select(self, name, tasks):
        """Spans called `name` (or starting with `name.` when it ends in
        a dot) whose task id satisfies `tasks(id)`."""
        if name.endswith("."):
            return [s for s in self.spans if s[0].startswith(name) and tasks(s[4])]
        return [s for s in self.spans if s[0] == name and tasks(s[4])]

    def self_times(self, tasks):
        """Seconds per layer not covered by child spans, over the spans
        whose task id satisfies `tasks(id)`."""
        child = defaultdict(int)
        for _, start, end, parent, task, _, _ in self.spans:
            if parent is not None and tasks(task):
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, task, _, _) in enumerate(self.spans):
            if tasks(task):
                out[name.split(".", 1)[0]] += (end - start - child[idx]) / 1e9
        return dict(out)

    def to_json(self):
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "task", "items", "tally"],
            "spans": self.spans,
        }
