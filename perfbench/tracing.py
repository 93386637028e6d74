"""Span tracing of quintlab's public functions, installed from outside.

`Tracer` rebinds every public function and method of the quintlab modules
(and the `TorusField.values` property) to a wrapper that records a span,
in every module namespace and module-level table that held the original.
It also counts the `numpy.fft` transforms quintlab calls and charges each
one to the innermost open span.  Spans stay in memory until `write` dumps
them; `uninstall` (or leaving the `with` block) restores every binding.

When `tracemalloc` is running, the spans named in `PEAK_SPANS` also record
the peak of traced memory above their starting level.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from enum import Enum

import numpy as np

LAYERS = ("grids", "nls", "manybody", "marginals", "couplings", "probes", "cli", "io")
FFT_FUNCS = ("fftn", "ifftn")
PEAK_SPANS = frozenset({"cli.run_experiment", "marginals.bbgky_rhs", "marginals.hufl_left_side"})
TRACED_PROPERTIES = {"TorusField.values"}
# Spans that remember the array shape they worked on, for FFT-equivalent ratios.
SHAPE_OF = {
    "nls.strang_step": lambda f, cfg: f.grid.shape,
    "manybody.apply_hamiltonian_raw": lambda config, amps: amps.shape,
}


class Span:
    __slots__ = ("index", "name", "layer", "parent", "exp", "start", "end", "child_s",
                 "fft_calls", "fft_points", "incl_fft_calls", "peak_bytes", "shape")

    def __init__(self, index, name, layer, parent, exp):
        self.index, self.name, self.layer, self.parent, self.exp = index, name, layer, parent, exp
        self.start = self.end = self.child_s = 0.0
        self.fft_calls = self.fft_points = self.incl_fft_calls = 0
        self.peak_bytes = None
        self.shape = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.exp = None  # experiment id stamped on new spans
        self._stack: list[Span] = []
        self._mem_stack: list[list[int]] = []  # [base, peak seen] per open PEAK_SPANS span
        self._undo: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------

    def _open(self, name, layer, args):
        parent = self._stack[-1].index if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self.exp)
        self.spans.append(span)
        if name in SHAPE_OF:
            span.shape = tuple(SHAPE_OF[name](*args))
        if name in PEAK_SPANS and tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([cur, cur])
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name in PEAK_SPANS and tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            base, seen = self._mem_stack.pop()
            top = max(seen, peak)
            span.peak_bytes = top - base
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], top)
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.duration
            parent.incl_fft_calls += span.incl_fft_calls

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._stack:
                top = self._stack[-1]
                top.fft_calls += 1
                top.incl_fft_calls += 1
                top.fft_points += np.size(a)
            return fn(a, *args, **kwargs)

        return counted

    # -- installing and removing the wrappers ----------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(f"quintlab.{layer}") for layer in LAYERS]
        originals = {}
        for mod, layer in zip(modules, LAYERS):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[obj] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
                    self._install_methods(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._set(mod, name, originals[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in originals:
                            self._undo.append((obj, key, val))
                            obj[key] = originals[val]
        for fname in FFT_FUNCS:
            self._set(np.fft, fname, self._count_fft(getattr(np.fft, fname)))
        return self

    def _install_methods(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, name, layer)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name, layer))
            elif isinstance(member, property) and f"{cls.__name__}.{attr}" in TRACED_PROPERTIES:
                self._set(cls, attr, property(self._wrap(member.fget, name, layer)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -----------------------------------------------------------

    def write(self, path, t0: float = 0.0):
        """Dump the spans as JSON: one row per span, times relative to t0."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[s.name], round(s.start - t0, 7), round(s.end - t0, 7), s.parent, s.exp,
             s.fft_calls, s.fft_points, s.peak_bytes]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "experiment",
                                   "fft_calls", "fft_points", "peak_bytes"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))
