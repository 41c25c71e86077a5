"""In-memory span tracer that wraps the package's public entry points from
outside, so the program itself is not edited.

A span is (name, start, end, parent).  Spans are appended in start order,
so a parent's index is always smaller than its children's.  Each span also
carries three work figures: for a numpy.fft call the points transformed,
the computed flops and the input plus output bytes; for dynamics.integrate
the RK4 steps read from the returned Trajectory; zero otherwise.

The wrappers replace every binding of the wrapped function in the loaded
gevreyflow modules (the package imports by name, so patching only the
defining module would miss the callers), plus the numpy.fft attributes,
which the package looks up at call time.  uninstall() puts the originals
back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import types
from array import array

import numpy as np

# 1-D transforms: complex-to-complex, or with a real side (half the flops)
FFT_COMPLEX = ("fft", "ifft")
FFT_REAL = ("rfft", "irfft", "hfft", "ihfft")
_REAL_INPUT = ("rfft", "ihfft")


def fft_cost(kind: str, args, kwargs, out) -> tuple[int, float, int]:
    """(points, flops, bytes) of one numpy.fft call, computed from shapes.

    flops: 5 n log2 n per complex transform of length n, 2.5 n log2 n per
    real one, times the number of transforms in the batch.  bytes: the
    input array as passed plus the output array.
    """
    a = np.asarray(args[0])
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if kind in _REAL_INPUT:
        length = n if n is not None else a.shape[axis]
    else:
        length = out.shape[axis]
    batch = out.size // out.shape[axis]
    per = (2.5 if kind in FFT_REAL else 5.0) * length * math.log2(length) if length > 1 else 0.0
    return batch * length, batch * per, a.nbytes + out.nbytes


def _trajectory_steps(args, kwargs, traj) -> tuple[int, float, int]:
    return (len(traj.times) - 1) * traj.spec.record_every, 0.0, 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self.flops = array("d")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, cost=None):
        nid = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        work, flops, nbytes, stack = self.work, self.flops, self.nbytes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            work.append(0)
            flops.append(0.0)
            nbytes.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if cost is not None:
                work[sid], flops[sid], nbytes[sid] = cost(args, kwargs, out)
            return out

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside one span of the given name and return its result."""
        return self.wrap(fn, name)(*args, **kwargs)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, name: str, cost=None) -> None:
        """Replace every binding of `original` in the loaded gevreyflow modules."""
        wrapped = self.wrap(original, name, cost)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gevreyflow" or modname.startswith("gevreyflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap the layer entry points of an imported gevreyflow package.

        An entry point the package no longer has is skipped, so its
        metrics read 0 rather than the benchmark failing to run.
        """
        from gevreyflow import analytics, config, dynamics, harness, reporting, spectral

        for kind in FFT_COMPLEX + FFT_REAL:
            fn = getattr(np.fft, kind)
            self._patch(np.fft, kind, self.wrap(fn, f"numpy.fft.{kind}", functools.partial(fft_cost, kind)))
        for scenario, runner in list(harness.RUNNERS.items()):
            self._undo.append((harness.RUNNERS, scenario, runner))
            harness.RUNNERS[scenario] = self.wrap(runner, "harness.run")
        # the analytics functions the harness imports
        used = {
            attr
            for attr, value in vars(harness).items()
            if isinstance(value, types.FunctionType) and value.__module__ == analytics.__name__
        }
        targets = [
            (config, "parse_config_text", None),
            (config, "parse_config", None),
            (dynamics, "integrate", _trajectory_steps),
            (spectral, "synthesize", None),
            (spectral, "analyze", None),
            (reporting, "write_report", None),
            (reporting, "write_plot", None),
        ] + [(analytics, attr, None) for attr in sorted(used)]
        for module, attr, cost in targets:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._rebind(fn, f"{module.__name__.split('.')[-1]}.{attr}", cost)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays, for derivation and for saving."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "flops": np.frombuffer(self.flops, dtype=np.float64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
        }


class SpanTable:
    """Derived views of a finished trace: durations, roots and nesting."""

    def __init__(self, spans: dict):
        self.names = [str(n) for n in spans["names"]]
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.dur = spans["end"] - spans["start"]
        self.work = spans["work"]
        self.flops = spans["flops"]
        self.nbytes = spans["nbytes"]
        self._nested = np.nonzero(self.parent >= 0)[0]
        # root[i]: the outermost span that contains span i (parents come first)
        root = list(range(len(self.parent)))
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                root[i] = root[p]
        self.root = np.array(root, dtype=np.int64)

    def named(self, name: str) -> np.ndarray:
        return self.name == (self.names.index(name) if name in self.names else -1)

    def prefixed(self, prefix: str) -> np.ndarray:
        return np.isin(self.name, [i for i, n in enumerate(self.names) if n.startswith(prefix)])

    def under(self, root_name: str) -> np.ndarray:
        """Spans inside (or equal to) an outermost span of the given name."""
        return self.named(root_name)[self.root]

    def outermost(self, mask: np.ndarray) -> np.ndarray:
        """Spans in mask with no ancestor in mask, so nested calls count once."""
        flags = mask.tolist()
        inside = [False] * len(flags)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or flags[p]
        return mask & ~np.array(inside, dtype=bool)

    def child_of(self, mask: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """Spans in mask whose direct parent is in parents."""
        out = np.zeros(len(mask), dtype=bool)
        out[self._nested] = parents[self.parent[self._nested]]
        return mask & out
