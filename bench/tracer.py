"""In-memory call tracing for the benchmark, installed from outside the library.

The tracer wraps the public functions of the orbicert modules, the public
methods of their public classes and the arithmetic and comparison operators
of those classes.  A module-level function is rebound under every name that
refers to it in any loaded orbicert module or extra module the caller names,
because the library imports many names directly (``from .lattice import
intersect``).  ``uninstall`` puts every original object back.

While active, each wrapped call records a span: name, start, end, parent span
and the benchmark call it belongs to.  Call counts and self time (duration
minus the time covered by child spans) are aggregated for every span; the
spans themselves are kept in memory up to a limit and written out as JSONL
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# operators whose cost belongs to the class that defines them
OPERATORS = frozenset({
    "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__",
    "__hash__", "__lt__", "__le__", "__gt__", "__ge__", "__floor__", "__str__",
})

# span names that differ from <module>.<Class>.<method>
RENAMED = {
    "quadext.QuadExt.__post_init__": "quadext.construct",
    "ffheights.Place.finite": "ffheights.place_finite",
    "ffheights.RatMap.make": "ffheights.ratmap_make",
}


def _radicand_bits(args) -> int:
    """Bits of the radicand a QuadExt constructor is about to normalize."""
    value = args[0]
    if value.b == 0 or value.delta == 0:
        return 0
    delta = value.delta
    num = getattr(delta, "numerator", delta)
    den = getattr(delta, "denominator", 1)
    return abs(num * den).bit_length()


class Tracer:
    """Wraps library callables and aggregates their spans while active."""

    def __init__(self, span_limit: int = 100_000):
        self.span_limit = span_limit
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.radicand_bits_max = 0
        self.active = False
        self.call_id = -1
        self._stack: list[tuple[int, list]] = []
        self._next_span = 0
        self._origin = time.perf_counter()
        self._restore: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_call = array("q")
        self.dropped = 0

    # -- installation ------------------------------------------------------------

    def install(self, modules, extra_modules=()) -> None:
        """Wrap every public callable of ``modules``; rebind in all of them
        and in ``extra_modules``."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        holders = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "orbicert" or name.startswith("orbicert."))
        ]
        holders += [m for m in extra_modules if m not in holders]
        replaced: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{short}.{attr}")
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, hit[1])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = RENAMED.get(f"{prefix}.{attr}", f"{prefix}.{attr}")
            pre = _radicand_bits if name == "quadext.construct" else None
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, pre)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        self.active = False
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def _wrap(self, fn, name: str, pre=None):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                bits = pre(args)
                if bits > tracer.radicand_bits_max:
                    tracer.radicand_bits_max = bits
            stack = tracer._stack
            span = tracer._next_span
            tracer._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            children = [0.0]
            stack.append((span, children))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1][0] += duration
                tracer.calls[nid] += 1
                tracer.self_s[nid] += duration - children[0]
                tracer.total_s[nid] += duration
                if len(tracer.span_name) < tracer.span_limit:
                    tracer.span_name.append(nid)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
                    tracer.span_id.append(span)
                    tracer.span_parent.append(parent)
                    tracer.span_call.append(tracer.call_id)
                else:
                    tracer.dropped += 1

        return traced

    # -- results ---------------------------------------------------------------

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds)."""
        return {
            n: (self.calls[i], self.self_s[i], self.total_s[i])
            for i, n in enumerate(self.names)
        }

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix))

    def write_jsonl(self, path) -> int:
        """Write the kept spans, one JSON object per line; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for k in range(len(self.span_name)):
                handle.write(json.dumps({
                    "name": self.names[self.span_name[k]],
                    "start": round(self.span_start[k] - self._origin, 9),
                    "end": round(self.span_end[k] - self._origin, 9),
                    "span": self.span_id[k],
                    "parent": self.span_parent[k],
                    "call": self.span_call[k],
                }) + "\n")
        return len(self.span_name)
