"""Spans around the public functions of cyclosum, recorded from outside.

``Tracer.install`` replaces each traced function in every cyclosum module
namespace that holds it, and the ``CycElem`` arithmetic methods on the
class, with a wrapper that times the call.  ``uninstall`` puts the originals
back.  Spans (name, start, end, parent) stay in memory until ``write``.

``CycElem`` arithmetic and the permutation streams run millions of times per
round, so they are aggregated (calls, time, self time) instead of being kept
as one span per call.  A call of the same traced operation made inside
another one (``a - b`` computing ``a + (-b)``) is folded into the outer call.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from collections import defaultdict

MATRICES = (
    "det_exact",
    "permanent_ryser",
    "charpoly_exact",
    "matmul",
    "build_sun_matrix",
    "derangement_sums",
)
SPECTRAL = (
    "herm_eigen",
    "eei_residual",
    "liu_spectrum_check",
    "charpoly_lagrange",
    "embed_matrix",
)
IDENTITIES = (
    "eq1_1",
    "eq1_2",
    "eq1_3",
    "lemma3_2",
    "eq3_1",
    "thm3_1",
    "thm2_1",
    "eei",
    "eq2_3_liu",
    "eq2_4",
)
CLI = ("main", "cmd_verify")
STREAMS = ("derangements", "full_cycles", "partitions_min2")
CYCELEM = {
    "__mul__": "exact.mul",
    "__rmul__": "exact.mul",
    "__add__": "exact.add",
    "__radd__": "exact.add",
    "__sub__": "exact.add",
    "__rsub__": "exact.add",
    "inverse": "exact.inverse",
}
MODULES = ("", ".exact", ".combinatorics", ".matrices", ".spectral", ".identities", ".cli")
# (module, attribute, span name) of each function recorded as spans.
TRACED = (
    [("matrices", fn, f"matrices.{fn}") for fn in MATRICES]
    + [("spectral", fn, f"spectral.{fn}") for fn in SPECTRAL]
    + [("identities", f"verify_{i}", f"identities.{i}") for i in IDENTITIES]
    + [("cli", fn, f"cli.{fn}") for fn in CLI]
)


def _matrix_key(m) -> bytes:
    return hashlib.blake2b(m.entries.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [name, start, child seconds, span id]
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.items = 0
        self.op = None
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, record: bool, key=None):
        stack, spans, clock = self.stack, self.spans, self.clock
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if key is not None:
                self.keys[name].add(key(args[0]))
            frame = [name, 0.0, 0.0, None]
            if record:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[2]
                if record:
                    spans[frame[3]] = (frame[3], parent, name, start, end, self.op)

        return traced

    def _wrap_stream(self, name: str, fn):
        """Time each step of a generator; the time counts as a child of
        whichever span is consuming the stream."""
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.calls[name] += 1
            busy = 0.0
            try:
                while True:
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - start
                        busy += dur
                        if stack:
                            stack[-1][2] += dur
                    self.items += 1
                    yield item
            finally:
                self.total[name] += busy

        return traced

    # -- install / uninstall ---------------------------------------------------

    def install(self, package) -> None:
        mods = [importlib.import_module(package.__name__ + m) for m in MODULES]
        by_mod = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        targets = {}
        for mod, attr, name in TRACED:
            orig = getattr(by_mod[mod], attr)
            key = _matrix_key if attr == "herm_eigen" else None
            targets[orig] = self._wrap(name, orig, True, key)
        for fn in STREAMS:
            orig = getattr(by_mod["combinatorics"], fn)
            targets[orig] = self._wrap_stream(f"combinatorics.{fn}", orig)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, value))
        cyc = by_mod["exact"].CycElem
        for attr, name in CYCELEM.items():
            orig = cyc.__dict__[attr]
            setattr(cyc, attr, self._wrap(name, orig, False))
            self._undo.append((cyc, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        """Forget what was recorded, keeping the wrappers installed."""
        self.spans.clear()
        for table in (self.calls, self.total, self.self_time, self.keys):
            table.clear()
        self.items = 0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        calls, total, self_time = self.calls, self.total, self.self_time
        out: dict[str, float] = {}
        for op in ("mul", "add", "inverse"):
            out[f"exact.{op}.calls"] = calls[f"exact.{op}"]
            out[f"exact.{op}.self_s"] = self_time[f"exact.{op}"]
        for fn in MATRICES:
            out[f"matrices.{fn}.calls"] = calls[f"matrices.{fn}"]
            out[f"matrices.{fn}.s"] = total[f"matrices.{fn}"]
        eig = "spectral.herm_eigen"
        out[f"{eig}.calls"] = calls[eig]
        out[f"{eig}.s"] = total[eig]
        out[f"{eig}.distinct_ratio"] = len(self.keys[eig]) / calls[eig] if calls[eig] else 0.0
        out["spectral.eei_residual.calls"] = calls["spectral.eei_residual"]
        for fn in ("eei_residual", "liu_spectrum_check", "charpoly_lagrange", "embed_matrix"):
            out[f"spectral.{fn}.s"] = total[f"spectral.{fn}"]
        out["combinatorics.items"] = self.items
        out["combinatorics.s"] = sum(total[f"combinatorics.{fn}"] for fn in STREAMS)
        for ident in IDENTITIES:
            out[f"identities.{ident}.s"] = total[f"identities.{ident}"]
        out["identities.self_s"] = sum(self_time[f"identities.{i}"] for i in IDENTITIES)
        out["cli.cmd_verify.s"] = total["cli.cmd_verify"]
        out["cli.self_s"] = sum(self_time[f"cli.{fn}"] for fn in CLI)
        return out

    def write(self, path) -> None:
        """Write the recorded spans, one JSON object a line, then the
        aggregated operations."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                sid, parent, name, start, end, op = span
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op}) + "\n")
            for name in sorted(self.calls):
                fh.write(json.dumps({"aggregate": name, "calls": self.calls[name],
                                     "s": self.total[name],
                                     "self_s": self.self_time.get(name)}) + "\n")
