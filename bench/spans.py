"""In-memory spans around the library's public functions.

``Tracer.install`` replaces each traced function in every ``rainbowindex``
module namespace that binds it, because modules import names directly
(``coloring`` calls its own ``split_k``, ``verify`` its own
``steiner_diameter``). ``remove`` puts the originals back. Nothing in the
library is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _added(args, kwargs, result):
    dominating = kwargs.get("dominating", args[2] if len(args) > 2 else ())
    return {"added": len(result.vertices) - len(set(dominating))}


def _connectors(args, kwargs, result):
    certificates = kwargs.get("certificates", args[1] if len(args) > 1 else ())
    union = set().union(*(c.vertices for c in certificates))
    return {"connectors": len(result.vertices) - len(union)}


def _verdict(args, kwargs, result):
    return {"subsets_checked": result.subsets_checked, "fail": int(not result.ok)}


def _exact(args, kwargs, result):
    return {"nodes": result.nodes, "unknown": int(not result.known)}


#: (module, function) -> counts taken from the call, or None.
TRACED = {
    ("cli", "main"): None,
    ("graph", "read_edge_list"): None,
    ("graph", "steiner_diameter"): None,
    ("decompose", "split_k"): None,
    ("dominate", "greedy_two_step_dominating"): None,
    ("dominate", "connect_two_step"): _added,
    ("dominate", "union_connect"): _connectors,
    ("dominate", "greedy_connected_k_dominating"): None,
    ("coloring", "color_pipeline"): None,
    ("coloring", "color_kdom"): None,
    ("coloring", "color_km1dom"): None,
    ("coloring", "read_coloring"): None,
    ("coloring", "format_coloring"): None,
    ("verify", "is_k_rainbow_connected"): _verdict,
    ("verify", "bounds_report"): None,
    ("verify", "exact_rx_k"): _exact,
}

#: Counts reported per layer, besides calls / total_ms / self_ms.
COUNTS = {
    "dominate.connect_two_step": ["added"],
    "dominate.union_connect": ["connectors"],
    "verify.is_k_rainbow_connected": ["subsets_checked"],
    "verify.exact_rx_k": ["nodes", "unknown"],
}


class Tracer:
    """Records spans [name, op, parent, start, end, counts] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("rainbowindex")]
        for (mod, fn), counts in TRACED.items():
            original = getattr(sys.modules[f"rainbowindex.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, counts):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, open_[-1] if open_ else None, time.perf_counter(), None, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                open_.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total and self milliseconds, and counts. Self time
        is a span's duration minus its direct children's durations; the
        verifier's self time is also split by verdict (ok / fail)."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, _, _, start, end, counts) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            self_ms = (end - start - child[idx]) * 1000.0
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1000.0
            row["self_ms"] += self_ms
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
            if name == "verify.is_k_rainbow_connected":
                verdict = "fail" if (counts or {}).get("fail") else "ok"
                row[f"{verdict}.self_ms"] = row.get(f"{verdict}.self_ms", 0.0) + self_ms
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end, counts in self.spans:
                fh.write(json.dumps([name, op, parent, start, end, counts]) + "\n")
