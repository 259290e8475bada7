"""Layer tracer: spans around the calls into each semiclass module.

The layers are the modules.  `Tracer.install` wraps every public function
of each layer in every semiclass module namespace that binds it (so
`quantize.phi_value`, bound by `from .action import phi_value`, is traced as
well as `action.phi_value`), plus a few points where work is counted:

- the integrand passed to `quadrature.gl_adaptive` (points evaluated);
- `oracle`'s `eigh_tridiagonal` and `solve_banded` bindings (grid solves,
  matrix sizes and the grid trail, timed but left inside the oracle span);
- `langer.Eigenfunction.__call__` (span `langer.psi_eval`, points);
- `cli._emit` (span `cli.emit`, rows).

Spans are kept in memory per thread.  Durations are thread CPU seconds, so
the threads of the CLI's hbar pool do not count each other's turns on the
interpreter lock.  Each span records its self time (duration minus its
children's) and its layer time (duration minus the children in other
layers, so a function is charged for the same-layer helpers it calls, such
as `langer.chart_u` under `langer.psi_eval`).  A span opened on a pool
thread with no open span has `cli.run` as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("potential", "quadrature", "action", "quantize", "oracle", "langer", "airy", "cli")
CACHES = ("quantize.certified", "quantize.certified_halfline", "langer.chart_for")
LEVEL_SOLVERS = ("quantize.bs_levels", "quantize.disc_levels", "quantize.halfline_levels")


class _ThreadState:
    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list = []  # open frames: [span id, layer, cpu start, child cpu, foreign cpu]
        # (id, parent, name, thread, wall start, wall s, cpu s, self cpu s, layer cpu s)
        self.spans: list = []
        self.counts: dict = {}

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list = []
        self._ids = itertools.count(1)
        self._root = 0
        self.grid_trail: list = []  # (matrix size, wall seconds) per eigh_tridiagonal call
        self.grid_n: list = []  # finest grid size N per solve_spectrum result
        self.caches: dict = {}
        self.missing: list = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, fn, name: str, before=None, after=None):
        """fn inside a span `name`; before(state, args) may rewrite args,
        after(state, result) sees the result."""
        tracer = self
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            if before is not None:
                args = before(st, args)
            sid = next(tracer._ids)
            parent = st.stack[-1][0] if st.stack else tracer._root
            if not tracer._root:
                tracer._root = sid
            frame = [sid, layer, time.thread_time(), 0.0, 0.0]
            wall0 = time.perf_counter()
            st.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - frame[2]
                st.stack.pop()
                if st.stack:
                    up = st.stack[-1]
                    up[3] += cpu
                    up[4] += cpu if up[1] != layer else frame[4]
                st.spans.append((sid, parent, name, st.thread, wall0, time.perf_counter() - wall0,
                                 cpu, cpu - frame[3], cpu - frame[4]))
            if after is not None:
                after(st, result)
            return result

        return traced

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"semiclass.{layer}") for layer in LAYERS}
        for name in CACHES:
            layer, attr = name.split(".")
            fn = getattr(mods[layer], attr, None)
            if hasattr(fn, "cache_info"):
                self.caches[name] = fn
            else:
                self.missing.append(name)
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if getattr(fn, "__module__", None) != mod.__name__ or inspect.isclass(fn):
                    continue
                if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                self._rebind(fn, self.wrap(fn, name, *self._hooks(name)))

        emit = getattr(mods["cli"], "_emit", None)
        if emit is None:
            self.missing.append("cli._emit")
        else:
            self._rebind(emit, self.wrap(emit, "cli.emit", _count_arg("cli.rows", 0, _rows)))
        ef = getattr(mods["langer"], "Eigenfunction", None)
        if ef is None:
            self.missing.append("langer.Eigenfunction")
        else:
            ef.__call__ = self.wrap(ef.__call__, "langer.psi_eval",
                                    before=_count_arg("langer.psi_eval.points", 1, np.size))
        for binding in ("eigh_tridiagonal", "solve_banded"):
            fn = getattr(mods["oracle"], binding, None)
            if fn is None:
                self.missing.append(f"oracle.{binding}")
            else:
                setattr(mods["oracle"], binding, self._counted(fn, binding))

    def _hooks(self, name: str):
        if name == "quadrature.gl_adaptive":
            return _count_integrand, None
        if name == "airy.airy_many":
            return _count_arg("airy.points", 0, np.size), None
        if name in LEVEL_SOLVERS:
            return None, lambda st, res: st.count("quantize.levels", len(res))
        if name == "oracle.solve_spectrum":
            return None, lambda st, res: self.grid_n.append(int(res.n))
        return None, None

    def _counted(self, fn, binding: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st = tracer._state()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            if binding == "eigh_tridiagonal":
                st.count("oracle.grid_solves", 1)
                st.count("oracle.grid_points", len(args[0]))
                with tracer._lock:
                    tracer.grid_trail.append((len(args[0]), time.perf_counter() - t0))
            else:
                st.count("oracle.banded_solves", 1)
            return result

        return counted

    @staticmethod
    def _rebind(old, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "semiclass" or modname.startswith("semiclass."):
                for attr, val in list(vars(mod).items()):
                    if val is old:
                        setattr(mod, attr, new)

    def summary(self) -> dict:
        """Per-span-name totals, counters, cache statistics and the grid trail."""
        spans: dict = {}
        counts: dict = {}
        for st in self._states:
            for _sid, _parent, name, _thread, _w0, wall, cpu, self_cpu, layer_cpu in st.spans:
                s = spans.setdefault(name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0,
                                            "self_s": 0.0, "layer_s": 0.0})
                s["calls"] += 1
                s["wall_s"] += wall
                s["cpu_s"] += cpu
                s["self_s"] += self_cpu
                s["layer_s"] += layer_cpu
            for key, n in st.counts.items():
                counts[key] = counts.get(key, 0) + n
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {"spans": spans, "counts": counts, "caches": caches,
                "grid_trail": self.grid_trail, "grid_n": self.grid_n, "missing": self.missing}

    def span_records(self) -> list:
        """Every span as [id, parent, name, thread, wall start, wall s, cpu s, self cpu s,
        layer cpu s]."""
        return [list(s) for st in self._states for s in st.spans]


def _rows(table) -> int:
    return len(table["rows"])


def _count_arg(key: str, index: int, measure):
    def before(st, args):
        st.count(key, measure(args[index]))
        return args
    return before


def _count_integrand(st, args):
    f = args[0]

    def counted(x):
        st.count("quadrature.integrand_points", np.size(x))
        return f(x)

    return (counted,) + tuple(args[1:])
