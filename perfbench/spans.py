"""In-memory spans around the benchmark's calls into the package.

A span records its name, start, end, parent span and the run id shared by
one workload run.  With tracing off, `span` records nothing.  A layer is the
part of a span name before the first dot; a span's self time is its length
minus the time its direct children cover.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled, run_id):
        self.enabled = enabled
        self.run_id = run_id
        self.spans = []          # [id, parent, name, start, end]
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """{span id: self time} for every closed span."""
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def roots(self, prefix):
        """Ids of top-level spans whose name starts with `prefix`."""
        return [s[0] for s in self.spans if s[1] is None and s[2].startswith(prefix)]

    def summary(self, root_prefix):
        """Per span name: (self seconds, call count) summed over the spans
        under top-level spans named `root_prefix...`."""
        roots = set(self.roots(root_prefix))
        top = {}
        for sid, parent, *_ in self.spans:
            top[sid] = sid if parent is None else top[parent]
        own = self.self_times()
        out = {}
        for sid, parent, name, *_ in self.spans:
            if parent is None or top[sid] not in roots:
                continue
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + own[sid], c + 1)
        return out

    def root_seconds(self, root_prefix):
        return sum(self.spans[r][4] - self.spans[r][3] for r in self.roots(root_prefix))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
            fh.write("\n")

