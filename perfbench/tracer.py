"""In-memory spans around calls into the weyl27 layers.

A span is [name, start, end, parent, counts], where parent is the index of
the span that was open when this one started (-1 for a root) and counts is
None or a dict of figures observed on the call's arguments and result.
Spans are only ever appended, so an index is a stable identifier, and the
spans after a given index are exactly the calls made after that point.
Nothing here is imported by the package itself: the tracer wraps the
package's functions from outside, at the module attributes through which
the package calls them.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for fn. observe(args, result), if given, returns
        the counts stored with the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        # A cached function keeps its uncached form as __wrapped__ (the
        # pipeline calls it to bypass the cache); trace that form too.
        inner = getattr(fn, "__wrapped__", None)
        traced.__wrapped__ = fn if inner is None else self.wrap(name, inner, observe)
        return traced

    def instrument(self, fn, name: str, modules: list[str], observe=None) -> None:
        """Replace fn by a traced wrapper wherever one of the modules binds it.

        Callers inside the package look the function up through their own
        module's namespace, so patching the binding traces those calls too.
        """
        wrapper = self.wrap(name, fn, observe)
        for mod_name in modules:
            module = sys.modules[mod_name]
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- analysis: each figure covers the spans from index `since` on ------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def _named(self, name: str, since: int):
        return [s for s in self.spans[since:] if s[0] == name]

    def total(self, name: str, since: int = 0) -> float:
        return sum(end - start for _, start, end, _, _ in self._named(name, since))

    def calls(self, name: str, since: int = 0) -> int:
        return len(self._named(name, since))

    def longest(self, name: str, since: int = 0) -> float:
        return max((end - start for _, start, end, _, _ in self._named(name, since)), default=0.0)

    def tally(self, name: str, key: str, since: int = 0) -> float:
        return sum(counts[key] for *_, counts in self._named(name, since) if counts)

    def layer_self_time(self, layer: str, since: int = 0) -> float:
        prefix = layer + "."
        return sum(
            t
            for (name, *_), t in zip(self.spans[since:], self.self_times()[since:])
            if name.startswith(prefix)
        )

    def children_of(self, parent_name: str, child_prefix: str) -> int:
        parents = {i for i, (n, *_) in enumerate(self.spans) if n == parent_name}
        return sum(
            1 for n, _, _, p, _ in self.spans if p in parents and n.startswith(child_prefix)
        )

    def write(self, path) -> None:
        """One JSON object per span, with its self time, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, start, end, parent, counts), own) in enumerate(
                zip(self.spans, self.self_times())
            ):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent, "self": own}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def span_cost(samples: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, measured here and now."""
    probe = Tracer()

    def noop():
        return None

    traced = probe.wrap("probe", noop)
    t0 = perf_counter()
    for _ in range(samples):
        noop()
    bare = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(samples):
        traced()
    wrapped = perf_counter() - t0
    return max(wrapped - bare, 0.0) / samples
