"""Spans around the calls into each rmpa layer, recorded from outside.

`Tracer.install` replaces a module attribute, such as `rmpa.channel.encode`,
with a wrapper that records one span per call: its name, start and end
(perf_counter_ns), the span open when it was called, and two counts taken
from the call's arguments or result.  Spans stay in memory in typed arrays
until `save` writes them out at the end of the run.  Outside a traced round
the original attributes are restored, so untraced rounds run unwrapped.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.aux = array("q")
        self._stack = [-1]
        self._installed: list = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, counts=None):
        """fn wrapped to record a span per call; counts(args, result)
        gives the span's (count, aux)."""
        nid = self._id(name)
        perf_ns = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self.count.append(0)
            self.aux.append(0)
            self._stack.append(idx)
            self.start.append(perf_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_ns()
                self._stack.pop()
            if counts is not None:
                self.count[idx], self.aux[idx] = counts(args, result)
            return result

        return traced

    def install(self, module, attr: str, name: str, counts=None) -> None:
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, counts))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per span name: calls, busy_ns, self_ns (busy minus the time its
        child spans cover), count and aux totals, and child_ns by child
        name."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        parent = a["parent"]
        has_parent = parent >= 0
        child_ns = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            mine = a["name_id"] == nid
            kids = {}
            for cid, child in enumerate(self.names):
                sel = has_parent & (a["name_id"] == cid)
                sel[sel] = a["name_id"][parent[sel]] == nid
                if sel.any():
                    kids[child] = int(dur[sel].sum())
            out[name] = {
                "calls": int(mine.sum()),
                "busy_ns": int(dur[mine].sum()),
                "self_ns": int((dur[mine] - child_ns[mine]).sum()),
                "count": int(a["count"][mine].sum()),
                "aux": int(a["aux"][mine].sum()),
                "child_ns": kids,
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
