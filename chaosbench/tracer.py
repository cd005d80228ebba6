"""Spans around calls into chaoslab's layers, recorded from outside the library.

``Tracer.install`` replaces every binding of each traced function: the
module attribute, every other chaoslab module that imported the name, and
the package namespace.  Methods are wrapped on the class that defines them.
Spans (name, parent, start, end) are kept in flat arrays and summarized
when tracing ends; a layer's self time is its span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import math
import os
import sys
import time
from array import array

import numpy as np

MODULES = ("linalg", "switching", "chaos", "stability", "runs", "specfiles", "cli")

# Functions whose calls and self time are reported one by one.
REPORTED = (
    "linalg.left_multiply", "linalg.op_norm", "linalg.co_norm", "linalg.spectral_radius",
    "linalg.word_product",
    "switching.symbol", "switching.sequence", "switching.enumerate_necklaces",
    "chaos.find_witness", "chaos.construct_chaotic_law", "chaos.recheck_certificate",
    "chaos.simulate",
    "stability.periodic_stability", "stability.jsr_bracket", "stability.growth_curve",
    "stability.irreducibility", "stability.lyapunov_mc",
    "runs.run_evidence", "runs.decay_check",
    "specfiles.load_system", "specfiles.load_law", "specfiles.write_json",
    "specfiles.write_csv",
    "cli.main",
)

# Methods traced on the classes that define them: (module, class, method).
METHODS = (
    ("linalg", "LogScaledMatrix", "left_multiply"),
    ("switching", "SwitchingLaw", "symbol"),
    ("switching", "SwitchingLaw", "sequence"),
    ("switching", "PeriodicLaw", "sequence"),
    ("switching", "ExplicitLaw", "sequence"),
)

# Public functions left unwrapped, their time counting toward the caller:
# input validation inside every kernel call, whose spans would double the
# kernel's tracing cost, and the CLI's subcommand bodies, so that cli.main's
# self time is all of the CLI's own work.
UNTRACED = {"linalg.as_matrix", "cli.build_parser"}
UNTRACED_PREFIXES = ("cli.cmd_",)

# Every this many left_multiply results, the unit's condition number is sampled.
COND_STRIDE = 64


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls: dict[str, int] = {}
        self.counters = {"renorm": 0, "nodes.find_witness": 0, "nodes.jsr_bracket": 0,
                         "bytes.write_json": 0, "bytes.write_csv": 0,
                         "necklace.candidates": 0, "necklace.yielded": 0}
        self.max_cond = 0.0
        self.last_install = 0  # index of the first span since the latest install
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return self._ids[name]

    def _wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, calls, clock = self.stack, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            calls[name] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _traced_iter(self, gen, nid: int):
        """Yield from ``gen``, recording each step as a span of name ``nid``."""
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        while True:
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                end[sid] = clock()
                stack.pop()
            self.counters["necklace.yielded"] += 1
            yield item

    # -- per-function observers --------------------------------------------

    def _after_left_multiply(self, args, result):
        if result.log_scale != args[0].log_scale:
            self.counters["renorm"] += 1
        if self.calls["linalg.left_multiply"] % COND_STRIDE == 0:
            cond = float(np.linalg.cond(result.unit))
            if math.isfinite(cond):
                self.max_cond = max(self.max_cond, cond)

    def _after_nodes(self, key):
        def after(args, result):
            self.counters[key] += result.nodes
        return after

    def _after_bytes(self, key):
        def after(args, result):
            self.counters[key] += os.path.getsize(args[0])
        return after

    def _necklaces(self, fn):
        iter_id = self._name_id("switching.enumerate_necklaces.next")

        def after_call(args, result):
            self.counters["necklace.candidates"] += args[0] ** args[1]

        called = self._wrap(fn, "switching.enumerate_necklaces", after_call)

        def enumerate_necklaces(*args, **kwargs):
            return self._traced_iter(called(*args, **kwargs), iter_id)

        enumerate_necklaces.__wrapped__ = fn
        return enumerate_necklaces

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.last_install = len(self.start)
        mods = {m: sys.modules[f"chaoslab.{m}"] for m in MODULES}
        targets = [sys.modules["chaoslab"], *mods.values()]
        after = {
            "chaos.find_witness": self._after_nodes("nodes.find_witness"),
            "stability.jsr_bracket": self._after_nodes("nodes.jsr_bracket"),
            "specfiles.write_json": self._after_bytes("bytes.write_json"),
            "specfiles.write_csv": self._after_bytes("bytes.write_csv"),
        }
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or name.startswith(UNTRACED_PREFIXES)
                        or not callable(fn)
                        or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                if name == "switching.enumerate_necklaces":
                    wrapper = self._necklaces(fn)
                else:
                    wrapper = self._wrap(fn, name, after.get(name))
                for target in targets:
                    for t_attr, value in list(vars(target).items()):
                        if value is fn:
                            self._patched.append((target, t_attr, value))
                            setattr(target, t_attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = vars(cls)[meth]
            hook = self._after_left_multiply if meth == "left_multiply" else None
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{short}.{meth}", hook))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._patched):
            setattr(target, attr, value)
        self._patched.clear()

    # -- summary -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        if not len(self.start):
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        totals = np.bincount(name_of, weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write the spans recorded since the latest install to a compressed
        numpy archive; parent ids are relative to the first of them."""
        first = self.last_install
        parent = np.frombuffer(self.parent, dtype=np.int64)[first:]
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32)[first:],
            parent=np.where(parent >= 0, parent - first, -1),
            start=np.frombuffer(self.start, dtype=np.float64)[first:],
            end=np.frombuffer(self.end, dtype=np.float64)[first:],
        )
