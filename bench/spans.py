"""In-memory spans around pairrank's public functions, recorded from outside.

`Tracer.install()` replaces every public function of each layer module (the
names in its `__all__` that the module itself defines) at every module
attribute bound to it: the defining module, each layer module that imported
it, and the `pairrank` package.  Calls made through those attributes, which
is how the package calls its own layers, then record a span nested under the
calling span.  `uninstall()` puts the original objects back.  No source file
of the package is edited.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("core", "methods", "geometry", "witness", "analysis", "cli")


class Tracer:
    """Records (name, parent index, start ns, end ns) for every wrapped call.

    Spans stay in `self.spans` until `write()`.  For the names in `keep`, the
    call's arguments and return value are also kept in `self.kept` as
    (span index, args, kwargs, result), so counters can be read from public
    return values after the op.
    """

    def __init__(self, keep: frozenset[str] = frozenset()):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int]] = []
        self.kept: list[tuple[int, tuple, dict, object]] = []
        self._keep = keep
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, kept = self.spans, self._stack, self.kept
        keep = name in self._keep

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name_id, stack[-1] if stack else -1, 0, 0))
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, spans[idx][1], start, end)
            if keep:
                kept.append((idx, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("pairrank")
        modules = {layer: importlib.import_module(f"pairrank.{layer}") for layer in LAYERS}
        if not self._wrappers:
            for layer, mod in modules.items():
                for attr in mod.__all__:
                    fn = getattr(mod, attr)
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for ns in (*modules.values(), package):
            for attr, value in list(vars(ns).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def op_profile(self, first: int) -> dict:
        """Self time and call count per span name over spans[first:].

        Returns {"roots": [...], "self_ns": {name: ns}, "calls": {name: n},
        "nested": bool}; nested is False when a span is not inside its parent.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        nested = True
        roots = []
        for name_id, parent, start, end in spans:
            if parent < first:
                roots.append(end - start)
                continue
            _, _, p_start, p_end = self.spans[parent]
            nested &= p_start <= start <= end <= p_end
            child_ns[parent - first] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for (name_id, _, start, end), inner in zip(spans, child_ns):
            name = self.names[name_id]
            self_ns[name] += end - start - inner
            calls[name] += 1
        return {"roots": roots, "self_ns": self_ns, "calls": calls, "nested": nested}

    def write(self, path, op_starts: list[int]) -> None:
        """Write the spans as JSON lines.

        The first line is {"names": [...], "fields": [...]}; each further line
        is one span, [op index, parent span index or -1, name index, start ns,
        end ns], where a span's index is its line number minus two.
        """
        bounds = op_starts + [len(self.spans)]
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["op", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for op, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                for name_id, parent, start, end in self.spans[lo:hi]:
                    fh.write(f"[{op},{parent},{name_id},{start},{end}]\n")
