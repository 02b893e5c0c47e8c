"""Per-layer tracing of the thetawave package from outside the program.

``Tracer.install`` wraps every public function of the package modules and
patches the wrapper into every module namespace that binds the original,
because the modules import each other's functions by name
(``from .theta import jacobi_theta``).  Spans nest on one stack: a span's
self time is its inclusive time minus the inclusive time of its child
spans, so the self times of all spans of an op, the op's own span included,
add up to the op's wall time.

Spans are recorded only inside ``Tracer.op()``; the benchmark's untimed
output checks call the same functions without being counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

# layer name -> module; ``_quad`` is reported as ``quad`` because a metric
# name must begin with a letter
LAYERS = {
    "elliptic": "thetawave.elliptic",
    "quad": "thetawave._quad",
    "curve": "thetawave.curve",
    "theta": "thetawave.theta",
    "solution": "thetawave.solution",
    "limits": "thetawave.limits",
    "verify": "thetawave.verify",
    "cli": "thetawave.cli",
}


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "pts", "steps", "nodes",
                 "depth")

    def __init__(self):
        self.calls = self.pts = self.steps = self.nodes = self.depth = 0
        self.self_s = self.incl_s = 0.0


class Tracer:
    """Span and count recorder for one benchmark run."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.curves = set()     # distinct (a, b, c) seen by curve_integrals
        self._stack = []        # open spans: [start, child time]
        self._recording = False
        self._patched = []      # (namespace, name, original)

    def _hooks(self):
        """Counting hooks by span name; a hook runs before its span opens
        and may replace the call's arguments."""
        def tanh_sinh(st, args, kwargs):
            f = _arg(args, kwargs, 0, "f")

            def counted(u, v):
                st.nodes += np.size(u)
                return f(u, v)
            if args:
                return (counted,) + tuple(args[1:]), kwargs
            return args, dict(kwargs, f=counted)

        def curve_integrals(st, args, kwargs):
            p = _arg(args, kwargs, 0, "params")
            self.curves.add((p.a, p.b, p.c))
            return args, kwargs

        def split_step(st, args, kwargs):
            st.steps += int(_arg(args, kwargs, 3, "steps"))
            return args, kwargs

        def grid(st, args, kwargs):
            spec = _arg(args, kwargs, 0, "spec")
            st.pts += spec.nx * spec.nt
            return args, kwargs

        def size_of(pos, name):
            def hook(st, args, kwargs):
                st.pts += np.size(_arg(args, kwargs, pos, name))
                return args, kwargs
            return hook

        def field(st, args, kwargs):
            x, t = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "t")
            st.pts += np.broadcast(np.asarray(x), np.asarray(t)).size
            return args, kwargs

        return {
            "quad.tanh_sinh": tanh_sinh,
            "elliptic.curve_integrals": curve_integrals,
            "verify.split_step_evolve": split_step,
            "solution.sample_grid": grid,
            "solution.eval_p": field,
            "solution.eval_amp2": field,
            "solution.eval_p_general": size_of(0, "x"),
            "theta.jacobi_theta": size_of(1, "u"),
        }

    def _wrap(self, key, fn, hook):
        stat = self.stats[key]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            stat.calls += 1
            if hook is not None:
                args, kwargs = hook(stat, args, kwargs)
            stat.depth += 1
            span = [time.perf_counter(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                incl = time.perf_counter() - span[0]
                stack.pop()
                stat.depth -= 1
                stat.self_s += incl - span[1]
                if stat.depth == 0:
                    stat.incl_s += incl
                stack[-1][1] += incl
        return wrapper

    def install(self):
        """Wrap the public functions of every layer in every namespace."""
        hooks = self._hooks()
        wrapped = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                wrapped[id(fn)] = (fn, self._wrap(key, fn, hooks.get(key)))
        modules = [importlib.import_module("thetawave")]
        modules += [importlib.import_module(m) for m in LAYERS.values()]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapped[id(value)][1])

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op(self):
        """Record the spans of one op; its own self time is ``bench.op``."""
        root = self.stats["bench.op"]
        root.calls += 1
        span = [time.perf_counter(), 0.0]
        self._stack.append(span)
        self._recording = True
        try:
            yield
        finally:
            self._recording = False
            incl = time.perf_counter() - span[0]
            self._stack.pop()
            root.self_s += incl - span[1]
            root.incl_s += incl

    def self_total(self):
        """Sum of self times over every span, the op spans included."""
        return sum(st.self_s for st in self.stats.values())
