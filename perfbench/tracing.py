"""Span tracer for the benchmark's traced pass.

Each traced function is replaced, for the duration of the pass, at the
module attribute its caller looks up (``census.iter_reduced_latin``, not the
``_kernels`` original), by a wrapper that records a span: name, start, end
and the span that was open when it began.  Spans stay in memory; self time
is a span's duration minus the durations of its direct children.

Wrappers record only while ``active`` is set, so the benchmark's own
correctness checks, which call the same public functions, stay out of the
per-layer numbers.
"""

import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self._patches = []
        self.active = False
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def close(self, idx):
        self.ends[idx] = _clock()
        self._stack.pop()
        return self.ends[idx] - self.starts[idx]

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a span-recording wrapper.  on_result(args,
        result, seconds) runs after the span closes, for layer counters."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                seconds = self.close(idx)
            if on_result is not None:
                on_result(args, result, seconds)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def wrap_generator(self, owner, attr, name, count=None):
        """Like wrap, for a generator function: every resume is one span,
        and every yielded item adds one to counts[count]."""
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                if not self.active:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                if count is not None:
                    self.counts[count] += 1
                yield item

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- summaries -------------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, self_seconds)} over every recorded span."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: [0, 0.0])
        for i in range(n):
            row = out[self.names[i]]
            row[0] += 1
            row[1] += (self.ends[i] - self.starts[i]) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}
