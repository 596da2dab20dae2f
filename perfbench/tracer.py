"""Outside-in tracer for the five library layers.

``Tracer.install`` wraps every public function of ``chebylift.numerics``,
``minkowski``, ``chebnet``, ``lift`` and ``bjorling``, then rebinds every
module-level name in the ``chebylift`` package that refers to one of them,
so from-import copies such as ``bjorling.diff_samples`` are traced too.
It also wraps the spline classes as bound in ``chebnet`` and ``bjorling``,
which counts their construction (the fit); evaluation stays in the
caller's self time.  Private helpers are not wrapped: their time is self
time of the public function that called them.

Spans live in compact arrays in memory (name, start, end, self time,
parent span, op id, raised) and are written out once, at the end.  A span
only opens while ``active`` is set, which the harness does around each
timed op, so set-up and gate calls leave no spans.  Import this module
only in the traced process: the untraced runs never see a wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "minkowski", "chebnet", "lift", "bjorling")
SPLINES = (("chebnet", "RectBivariateSpline"), ("bjorling", "CubicSpline"))

# Work counted at a boundary, from a call's arguments or result.
WORK = {
    "numerics.diff_samples": (
        "elements", lambda a, kw, r: np.size(a[0] if a else kw["values"])),
    "chebnet.equivalent_immersion": (
        "points_out", lambda a, kw, r: r.nu * r.nv),
    "lift.gaussian_curvature": (
        "masked", lambda a, kw, r: int(np.count_nonzero(r.degenerate))),
}


class Tracer:
    def __init__(self):
        self.names = []                  # name index -> "layer.function"
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.work = defaultdict(int)     # (name, op, counter) -> total
        self.stack = []                  # open spans: [span id, child time]
        self.op_id = -1
        self.active = False
        self.originals = {}              # id(original) -> (original, wrapper)

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        counter = WORK.get(name)
        tr, perf = self, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr.stack
            sid = len(tr.start)
            tr.name_id.append(idx)
            tr.parent.append(stack[-1][0] if stack else -1)
            tr.op.append(tr.op_id)
            tr.raised.append(0)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.self_time.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.raised[sid] = 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                tr.start[sid] = t0
                tr.end[sid] = t1
                tr.self_time[sid] = (t1 - t0) - frame[1]
            if counter is not None:
                tr.work[(name, tr.op_id, counter[0])] += counter[1](
                    args, kwargs, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap and rebind; returns (module, name, function) per rebinding."""
        mods = {layer: sys.modules[f"chebylift.{layer}"] for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self.originals[id(obj)] = (
                        obj, self.wrap(f"{layer}.{attr}", obj))
        for layer, attr in SPLINES:
            setattr(mods[layer], attr,
                    self.wrap(f"{layer}.{attr}", getattr(mods[layer], attr)))
        rebound = []
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = self.originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    rebound.append((mod.__name__, attr, hit[1].__wrapped__))
        return rebound

    @staticmethod
    def _package_modules():
        return [m for name, m in list(sys.modules.items())
                if name == "chebylift" or name.startswith("chebylift.")]

    def unwrapped_names(self) -> list:
        """Module-level names that still hold an original function."""
        return [f"{mod.__name__}.{attr}"
                for mod in self._package_modules()
                for attr, obj in vars(mod).items()
                if id(obj) in self.originals
                and self.originals[id(obj)][0] is obj]

    # -- reading the spans -------------------------------------------------

    def arrays(self) -> dict:
        # copies: a live view would stop the arrays from growing
        cols = {"name": (self.name_id, np.int32),
                "parent": (self.parent, np.int32), "op": (self.op, np.int32),
                "raised": (self.raised, np.int8),
                "start": (self.start, np.float64),
                "end": (self.end, np.float64),
                "self_time": (self.self_time, np.float64)}
        return {k: np.frombuffer(arr, dtype=dt).copy()
                for k, (arr, dt) in cols.items()}

    def totals(self, ops) -> dict:
        """Per-function and per-layer totals over spans of the given ops.

        Keys are "<fn>.calls", "<fn>.self_s", "<fn>.<counter>",
        "<layer>.self_s" and "<layer>.errors"; a layer's errors are the
        exceptions that leave it, i.e. raised spans whose parent is in
        another layer or is the op itself.
        """
        a = self.arrays()
        ops = np.asarray(sorted(ops), dtype=np.int32)
        sel = np.isin(a["op"], ops)
        layer_of = np.array([n.split(".")[0] for n in self.names])
        name = a["name"][sel]
        out = defaultdict(float)
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=a["self_time"][sel],
                             minlength=len(self.names))
        for i, fn in enumerate(self.names):
            out[f"{fn}.calls"] = int(calls[i])
            out[f"{fn}.self_s"] = float(self_s[i])
            out[f"{layer_of[i]}.self_s"] += float(self_s[i])
        parent = a["parent"][sel]
        own = layer_of[name]
        par = np.where(parent >= 0, layer_of[a["name"][np.maximum(parent, 0)]],
                       "")
        leaving = (a["raised"][sel] == 1) & (own != par)
        for layer in LAYERS:
            out[f"{layer}.errors"] = int(np.count_nonzero(
                leaving & (own == layer)))
        wanted = set(ops.tolist())
        for (fn, op, counter), v in self.work.items():
            if op in wanted:
                out[f"{fn}.{counter}"] += v
        return out

    def spans_with_parent_layer(self, fn, layer, op) -> int:
        """How many ``fn`` spans of an op were opened from ``layer``."""
        a = self.arrays()
        idx = self.names.index(fn)
        sel = (a["name"] == idx) & (a["op"] == op) & (a["parent"] >= 0)
        parents = a["name"][a["parent"][sel]]
        return sum(self.names[p].startswith(layer + ".") for p in parents)

    def save(self, path, ops_meta) -> None:
        a = self.arrays()
        t0 = a["start"].min() if a["start"].size else 0.0
        np.savez_compressed(
            path, names=np.array(self.names), name=a["name"],
            parent=a["parent"], op=a["op"], raised=a["raised"],
            start=a["start"] - t0, end=a["end"] - t0,
            self_time=a["self_time"], ops=np.array(ops_meta))
