"""Layer spans for symfrob, installed from outside the package.

Each public function of a layer is replaced, in every ``symfrob`` module
that holds it by name, with a wrapper that records a span: layer, start,
end and the enclosing span. A call made from inside the same layer
(recursion, or one public function of a layer calling another) opens no
new span, so ``calls`` counts entries at layer boundaries. Spans stay in
memory and are written once, when the traced process ends.

The adjoint engine's plethysm-coefficient memo (``frobenius._pleth_coeff``)
is not wrapped: it is called millions of times per cold pass from inside
the transform loop, so its time shows in ``L3.transform`` self time and
its work in the memo's own hit and miss counts.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

LAYERS = {
    "L0.partitions": (
        ("partitions", "partitions_of"),
        ("partitions", "partitions_up_to"),
        ("symfunc", "character_value"),
    ),
    "L1.convert": (
        ("symfunc", "from_basis"),
        ("symfunc", "to_basis"),
        ("symfunc", "to_basis_int"),
    ),
    "L2.plethysm": (("symfunc", "plethysm"),),
    "L3.transform": (
        ("frobenius", "fsur"),
        ("frobenius", "fsurinv"),
        ("frobenius", "fsurinv_iterative"),
        ("frobenius", "frobenius_series"),
    ),
    "L4.coeff": (
        ("frobenius", "coeff"),
        ("frobenius", "coeff_table"),
        ("frobenius", "stable_matrix"),
        ("frobenius", "witness_search"),
        ("frobenius", "vanishing_check"),
    ),
    "L5.cli": (("cli", "main"),),
    "oracle": (("oracles", "frobenius_via_roots"),),
}
LAYER_NAMES = tuple(LAYERS)
# A CLI child writes this mark and the time `import symfrob` ended to
# stderr, for the parent to time set-up. It lives here, in a module both
# import, because the CLI child imports nothing else of the benchmark.
SETUP_MARK = "benchmark-imported-at"
# Root span of one benchmark operation; its self time is glue outside every layer.
OP = len(LAYER_NAMES)


class Tracer:
    """Spans in flat arrays: layer id, parent span index, start, end."""

    def __init__(self):
        self.layer = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []

    def open(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1][1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append((layer_id, index))
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, layer_id: int):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer_id:
                return fn(*args, **kwargs)
            index = self.open(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def summary(self, first: int = 0) -> dict:
        """Per layer: spans opened and self time (duration minus child spans).

        Covers the spans from index ``first`` on, which must all have been
        opened while no earlier span was open.
        """
        own = [e - s for s, e in zip(self.start[first:], self.end[first:])]
        for index, parent in enumerate(self.parent[first:], start=first):
            if parent >= 0:
                own[parent - first] -= self.end[index] - self.start[index]
        calls = [0] * (OP + 1)
        self_s = [0.0] * (OP + 1)
        for layer_id, t in zip(self.layer[first:], own):
            calls[layer_id] += 1
            self_s[layer_id] += t
        return {
            name: {"calls": calls[i], "self_s": self_s[i]}
            for i, name in enumerate(LAYER_NAMES)
        }

    def write(self, path) -> None:
        """One JSON header line, then the four arrays in native byte order."""
        with open(path, "wb") as fh:
            header = {
                "layers": list(LAYER_NAMES) + ["op"],
                "spans": len(self.layer),
                "arrays": [["layer", "B"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                "byteorder": sys.byteorder,
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(fh)


def _symfrob_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "symfrob" or name.startswith("symfrob."))
    ]


def install(tracer: Tracer) -> None:
    """Patch every layer function wherever a symfrob module binds it.

    Modules not imported yet (the CLI, in a library process) are skipped.
    """
    targets = {}
    for layer_id, name in enumerate(LAYER_NAMES):
        for module_name, attr in LAYERS[name]:
            module = sys.modules.get("symfrob." + module_name)
            if module is not None:
                original = getattr(module, attr)
                targets[id(original)] = tracer.wrap(original, layer_id)
    for module in _symfrob_modules():
        for attr, value in list(vars(module).items()):
            wrapper = targets.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


# -- memo statistics -------------------------------------------------------------


def memo_caches() -> dict:
    """Every lru_cache on a symfrob module attribute, by qualified name.

    Call before install(), which hides the caches behind wrappers.
    """
    caches = {}
    seen = set()
    for module in _symfrob_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) and id(value) not in seen:
                seen.add(id(value))
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def memo_stats(caches: dict) -> dict:
    """Summed hits, misses and entries, plus the plethysm-coefficient memo alone."""
    hits = misses = entries = 0
    pleth = None
    for name, cache in caches.items():
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
        if name == "symfrob.frobenius._pleth_coeff":
            pleth = {"hits": info.hits, "misses": info.misses}
    return {"hits": hits, "misses": misses, "entries": entries, "pleth": pleth}
