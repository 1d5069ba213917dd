"""Spans at the boundaries of stylic's modules, recorded from outside.

`Tracer` installs a `sys.settrace` hook that opens a span when a watched
function is entered and closes it when that call returns; stylic's code is
neither copied nor patched.  Harness code opens its own spans (a command, a
word) with `Tracer.span`.  A span is `[name, start, end, parent, op]`:
`parent` is the index of the enclosing span (-1 at the top) and `op`
numbers the operation, a command or a word, that the span belongs to.
Spans stay in memory until `write` saves them.

Every Python call pays for the hook, so traced runs are several times
slower than untraced ones; the per-layer times are for comparing one
commit with another under the same tracing, and the untraced run gives
the end-to-end numbers.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Hook:
    """Called around every watched call of one function, outside its span."""

    def enter(self, frame):
        return None

    def exit(self, state, value) -> None:
        pass


class Tracer:
    def __init__(self, watched: dict[str, object], hooks: dict[str, Hook] | None = None):
        self._names: dict[int, str] = {}
        self._codes = []
        for name, function in watched.items():
            code = function.__code__
            if inspect.isgeneratorfunction(function) or inspect.iscoroutinefunction(function):
                raise ValueError(f"{name}: a span cannot follow a generator or coroutine")
            self._codes.append(code)  # keeps each id() below valid
            self._names[id(code)] = name
        self._hooks = hooks or {}
        self.spans: list[list] = []
        self._stack: list[tuple[int, object]] = []
        self._op = -1

    def _on_call(self, frame, event, arg):
        name = self._names.get(id(frame.f_code))
        if name is None:
            return None
        frame.f_trace_lines = False
        hook = self._hooks.get(name)
        state = hook.enter(frame) if hook else None
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((len(self.spans), state))
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        return self._on_return

    def _on_return(self, frame, event, arg):
        if event == "return":
            end = perf_counter()
            index, state = self._stack.pop()
            span = self.spans[index]
            span[2] = end
            hook = self._hooks.get(span[0])
            if hook:
                hook.exit(state, arg)
        return self._on_return

    @contextmanager
    def active(self):
        """Record watched calls made inside the block."""
        sys.settrace(self._on_call)
        try:
            yield self
        finally:
            sys.settrace(None)

    @contextmanager
    def span(self, name: str, op: bool = False):
        """A span opened by the harness; `op=True` starts a new operation."""
        if op:
            self._op += 1
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((index, None))
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, children):
            out[name] += end - start - covered
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path, run_id: str) -> None:
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        with open(path, "w") as f:
            json.dump(
                {
                    "run_id": run_id,
                    "names": names,
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [[code[n], s, e, p, o] for n, s, e, p, o in self.spans],
                },
                f,
                separators=(",", ":"),
            )
