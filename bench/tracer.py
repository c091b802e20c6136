"""Tracing of the smallsys layers from outside the program.

`Tracer.install` wraps the public functions and methods (operator methods
included) of the eight layer modules, and rebinds every module namespace
that imported one of them, so `src/` stays untouched.  Each wrapped call
counts a call and its inclusive time; a call that crosses from one layer
into another also records a span (name, start, end, parent span, job id),
held in memory until `write_spans`.  Self time is kept per layer on a call
stack: a call's duration minus the time its wrapped children cover.  The
harness frame around each job takes what no layer claims, so the layer self
times plus `harness` add up to the traced job wall time.  `uninstall` puts
every original back and checks that no wrapper is left.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("exactfield", "polyalg", "lorentz", "hypgeom", "arith", "congr",
          "combin", "cli")
HARNESS = "harness"
OPERATORS = frozenset(
    f"__{op}__" for op in (
        "add radd sub rsub mul rmul truediv rtruediv floordiv mod divmod pow "
        "neg abs eq lt le gt ge hash bool float len contains").split())
_MARK = "__bench_traced__"
SPAN_CAP = 50_000           # spans kept in memory; calls beyond it are counted


def box_polys(D: int, mu: float) -> int:
    """Size of the coefficient box `enumerate_bounded(D, mu)` walks:
    |a_{d-i}| <= binom(d, i) mu for every degree d <= D."""
    return sum(math.prod(2 * math.floor(math.comb(d, d - j) * mu + 1e-12) + 1
                         for j in range(d)) for d in range(1, D + 1))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_s = dict.fromkeys(LAYERS + (HARNESS,), 0.0)
        self.spans = []
        self.spans_dropped = 0
        self.job_wall_s = 0.0
        self.counts = defaultdict(int)
        self._job = None
        self._stack = [[HARNESS, 0.0, -1]]      # frames: layer, child time, span
        self._depth = defaultdict(int)
        self._wrappers = {}
        self._patched = []
        self._boxes_seen = set()
        self._probes = {
            "exactfield.KElem.embed": self._probe_embed,
            "polyalg.enumerate_bounded": self._probe_enumerate,
            "lorentz.find_small_element": self._probe_search,
            "combin.enumerate_balanced_bracelets": self._probe_bracelets,
            "combin.select_inequivalent": self._probe_bracelets,
        }

    # -- probes: counts that need a call's arguments or result ----------------

    def _probe_embed(self, args, kwargs, result):
        bits = args[1] if len(args) > 1 else kwargs.get("precision", 64)
        self.counts["embed_max_bits"] = max(self.counts["embed_max_bits"], bits)
        self.counts["embed_escalated"] += bits > 64

    def _probe_enumerate(self, args, kwargs, result):
        box = box_polys(args[0], args[1])
        self.counts["box_polys"] += box
        self.counts["accepted"] += len(result)
        # the same box walked again earlier in this pass is repeated work
        if (args[0], args[1]) in self._boxes_seen:
            self.counts["box_polys_repeated"] += box
        self._boxes_seen.add((args[0], args[1]))

    def _probe_search(self, args, kwargs, result):
        self.counts["search_hits"] += 1

    def _probe_bracelets(self, args, kwargs, result):
        self.counts["bracelets"] += len(result)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, layer):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)][1]
        name = f"{layer}.{fn.__qualname__}"
        stack, spans = self._stack, self.spans
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        depth, clock, probe = self._depth, time.perf_counter, self._probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = parent[2]
            own = -1
            if parent[0] != layer:
                if len(spans) < SPAN_CAP:
                    own = span = len(spans)
                    spans.append(None)
                else:
                    self.spans_dropped += 1
            frame = [layer, 0.0, span]
            stack.append(frame)
            level = depth[name]
            depth[name] = level + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] = level
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                parent[1] += dur
                calls[name] += 1
                if not level:
                    inclusive[name] += dur
                if own >= 0:
                    spans[own] = (name, t0, t1, parent[2], self._job)
            if probe is not None:
                probe(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        self._wrappers[id(fn)] = (fn, traced)
        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, cls, layer):
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(desc, staticmethod):
                new = staticmethod(self._wrap(desc.__func__, layer))
            elif isinstance(desc, classmethod):
                new = classmethod(self._wrap(desc.__func__, layer))
            elif isinstance(desc, property) and desc.fget is not None:
                new = property(self._wrap(desc.fget, layer), desc.fset, desc.fdel,
                               desc.__doc__)
            elif inspect.isfunction(desc):
                new = self._wrap(desc, layer)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"smallsys.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ \
                        or attr.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj):
                    self._wrap(obj, layer)
        # rebind every namespace holding a wrapped function, the defining
        # module and each `from ... import` alike
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, obj in list(namespace.items()):
                hit = self._wrappers.get(id(obj)) if inspect.isfunction(obj) else None
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def leftovers(self):
        """Names still bound to a wrapper anywhere the tracer patched."""
        out = []
        for owner in {id(o): o for o, _, _ in self._patched}.values():
            for attr, obj in vars(owner).items():
                fn = getattr(obj, "__func__", None) or getattr(obj, "fget", None) or obj
                if getattr(fn, _MARK, False):
                    out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return out

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = self.leftovers()
        self._patched.clear()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left[:5]}")

    # -- jobs and results ------------------------------------------------------------

    @contextmanager
    def job(self, job_id):
        """The harness span around one job; nested spans carry its id."""
        self._job = job_id
        span = len(self.spans)
        self.spans.append(None)
        frame = [HARNESS, 0.0, span]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.self_s[HARNESS] += (t1 - t0) - frame[1]
            self.job_wall_s += t1 - t0
            self.spans[span] = ("job", t0, t1, -1, job_id)
            self._job = None

    def summary(self):
        return {"calls": dict(self.calls), "inclusive_s": dict(self.inclusive),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "job_wall_s": self.job_wall_s, "spans": len(self.spans),
                "spans_dropped": self.spans_dropped}

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)

