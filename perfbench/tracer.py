"""Outside-in layer tracer for one triminor process.

`install()` wraps every public module-level function of each layer module
and rebinds the wrapper under every name that any loaded triminor module
bound the original to (``from .canon import pair_cert`` makes a second
binding that patching only the defining module would miss).  Each call is a
span; a layer's self time is its spans' time minus the time of the wrapped
calls they made.  Nothing inside the package is edited, and the program's
output is unchanged.

Kernel queries (`minors.kr_minor_verdict`) are classified read-only from
outside, by what a query changed:

- shortcut: it never reached `canonical_cert` (no memo key was built);
- memo hit: a key was built and `minors._KR_MEMO` did not grow;
- computed: the memo grew by one entry, split by the verdict returned;
- a memo that shrank was wiped at its size cap: the query still computed,
  and the wipe counts in ``memo_clears``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = (
    "graphs", "graph6", "reports", "canon", "generate", "minors",
    "cliques", "coloring", "rigidity", "verify", "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        # (layer, function) -> [calls, self seconds, inclusive seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.kr = {"shortcut": 0, "memo_hits": 0, "computed_true": 0,
                   "computed_false": 0, "memo_clears": 0}
        self.kr_ms: dict[bool, list[float]] = {True: [], False: []}
        self.classes = 0
        self.minors = None

    def _close(self, stat: list, t0: float, frame: list[float], calls: int = 1) -> float:
        dt = time.perf_counter() - t0
        self.stack.pop()
        stat[0] += calls
        stat[1] += dt - frame[0]
        stat[2] += dt
        if self.stack:
            self.stack[-1][0] += dt
        return dt

    def wrap(self, layer: str, name: str, fn):
        stat = self.spans.setdefault((layer, name), [0, 0.0, 0.0])
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn, stat)
        if (layer, name) == ("minors", "kr_minor_verdict"):
            return self._wrap_kr(fn, stat)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stat, t0, frame)

        return traced

    def _wrap_generator(self, layer, name, fn, stat):
        """Each resume of the generator is one span; the consumer's work
        between resumes is not charged to it."""
        counts_classes = (layer, name) == ("generate", "generate")

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                self.stack.append(frame)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(stat, t0, frame, calls=0)
                if counts_classes:
                    self.classes += 1
                yield item

        def counted(*args, **kwargs):
            stat[0] += 1
            return traced(*args, **kwargs)

        return counted

    def _wrap_kr(self, fn, stat):
        cert = self.spans.setdefault(("canon", "canonical_cert"), [0, 0.0, 0.0])

        def traced(g, r):
            size0 = len(self.minors._KR_MEMO)
            certs0 = cert[0]
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                verdict = fn(g, r)
            finally:
                dt = self._close(stat, t0, frame)
            size1 = len(self.minors._KR_MEMO)
            if cert[0] == certs0:
                self.kr["shortcut"] += 1
            elif size1 == size0:
                self.kr["memo_hits"] += 1
            else:
                if size1 < size0:
                    self.kr["memo_clears"] += 1
                self.kr["computed_true" if verdict else "computed_false"] += 1
                self.kr_ms[bool(verdict)].append(dt * 1000.0)
            return verdict

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer under every binding."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"triminor.{layer}")
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(layer, name, obj)
        self.minors = sys.modules["triminor.minors"]
        for modname, mod in list(sys.modules.items()):
            if modname != "triminor" and not modname.startswith("triminor."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def report(self) -> dict:
        spans = {f"{layer}.{name}": stat for (layer, name), stat in self.spans.items()
                 if stat[0]}
        return {
            "spans": spans,
            "kr": dict(self.kr),
            "kr_ms_true": self.kr_ms[True],
            "kr_ms_false": self.kr_ms[False],
            "memo_entries": len(self.minors._KR_MEMO),
            "classes": self.classes,
        }
