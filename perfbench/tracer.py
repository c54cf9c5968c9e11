"""In-memory spans and counters around calls into flagsheaf modules.

The tracer wraps functions from outside the package: every attribute of
a loaded ``flagsheaf`` module that is bound to a traced function is
replaced by a wrapper, so a call is seen whichever module its caller
looked the name up in (``pipeline.stalk_complex`` and
``sheaf_complex.stalk_complex`` are two attributes holding one
function).  Methods are wrapped on their class.

Two kinds of wrapper exist:

* a *span* records (id, parent, request, name, start, end) and adds the
  call's self time -- its duration minus the time covered by child
  spans -- to ``<name>.self_s``;
* a *counter* only adds one to ``<name>.calls``; it is used for cheap
  functions called far more often than a span could afford.

Spans stay in memory and are written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "flagsheaf"


class Tracer:
    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.active = False
        self.request = 0
        self._opened = 0
        # open spans: [span id, start, time covered by children]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        if self.active:
            self.stats[name] += value

    def maximum(self, name: str, value: float) -> None:
        if self.active and value > self.stats[name]:
            self.stats[name] = value

    @contextmanager
    def paused(self):
        """Run benchmark-side work (input generation, oracles) unseen."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        stack = self._stack
        self._opened += 1
        span_id = self._opened
        parent = stack[-1][0] if stack else 0
        frame = [span_id, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            self.stats[name + ".calls"] += 1
            self.stats[name + ".self_s"] += duration - frame[2]
            self.spans.append(
                (span_id, parent, self.request, name, frame[1], end)
            )

    # -- wrapping --------------------------------------------------------

    def wrap_span(self, module: str, qualname: str, after=None, before=None):
        """Wrap ``module.qualname`` in a span.  ``before(args, kwargs)``
        returns a token; ``after(tracer, args, kwargs, result, token)``
        records attribute counters once the call returns."""
        name = f"{module}.{qualname}"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                token = before(args, kwargs) if before else None
                with self.span(name):
                    result = fn(*args, **kwargs)
                if after:
                    after(self, args, kwargs, result, token)
                return result

            return wrapper

        self._install(module, qualname, make)

    def wrap_count(self, module: str, qualname: str):
        key = f"{module}.{qualname}.calls"
        stats = self.stats

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active:
                    stats[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._install(module, qualname, make)

    def _install(self, module: str, qualname: str, make):
        mod = sys.modules[f"{PACKAGE}.{module}"]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:  # a method: wrap it on its class
            owner = getattr(mod, owner_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, wrapper)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        names = sorted({s[3] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_names": names,
                    "span_fields": ["id", "parent", "request", "name",
                                    "start", "end"],
                    "spans": [
                        [s[0], s[1], s[2], index[s[3]], s[4], s[5]]
                        for s in self.spans
                    ],
                    "stats": dict(sorted(self.stats.items())),
                },
                fh,
            )
