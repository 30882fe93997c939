"""Spans and counters around calls into pointsource, recorded from outside.

The tracer replaces, for the duration of a ``with tracer.active():`` block,
every binding of a traced function in pointsource's module namespaces by a
wrapper that records a span (name, parent span, trace id, start, end).
Calls that go through a module attribute, including ``from .laplace import
volterra_deconvolve`` bindings, are therefore seen; nothing under ``src/``
is changed.  Spans stay in memory until the benchmark writes them out.

Traced functions: every public function (listed in ``__all__``) of
``model``, ``forward``, ``laplace``, ``identify1d`` and ``identifynd``; the
CLI commands ``cmd_simulate``/``cmd_identify``/``cmd_diagnose`` as
``cli.simulate``/``cli.identify``/``cli.diagnose``; and
``scipy.linalg.cho_factor``, which only the deconvolution calls, as
``laplace.cholesky``.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYER_MODULES = ("model", "forward", "laplace", "identify1d", "identifynd")
CLI_COMMANDS = {"cmd_simulate": "cli.simulate",
                "cmd_identify": "cli.identify",
                "cmd_diagnose": "cli.diagnose"}
# travel_integrals lives in forward, but the 1D locator's root search is
# what drives its call count, so it is named after that layer
ALIASES = {"forward.travel_integrals": "identify1d.travel_integrals"}


class Tracer:
    """In-memory span recorder with per-layer counters.

    ``spans`` holds ``[name, parent_index, trace_id, start, end]`` rows;
    a row's index is its span id.  ``counters`` holds exact counts.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self.trace_id = 0
        self._stack: list[int] = []
        self._targets = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            row = [name, stack[-1] if stack else None, self.trace_id,
                   clock(), 0.0]
            stack.append(len(spans))
            spans.append(row)
            if before is not None:
                before(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[f"{name}.raised"] += 1
                raise
            finally:
                row[4] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self, name: str, fn):
        """Counters recorded at a layer boundary, by traced name."""
        c, v = self.counters, self.values
        if name == "laplace.cholesky":
            def before(args, kwargs):
                m = len(args[0]) if args else len(kwargs["a"])
                c["laplace.cholesky.flop"] += m ** 3 / 3.0
            return before, None
        if name == "forward.crank_nicolson_1d":
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                nodes = int(bound.arguments["num_cells"]) + 1
                steps = int(bound.arguments["scenario"].grid.num_steps)
                c["forward.cn_node_steps"] += nodes * steps
            return before, None
        if name == "model.write_sensor_csv":
            def after(args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                c["model.csv_bytes"] += os.path.getsize(path)
            return None, after
        if name == "model.read_sensor_csv":
            def before(args, kwargs):
                path = args[0] if args else kwargs["path"]
                c["model.csv_bytes"] += os.path.getsize(path)
            return before, None
        if name == "laplace.volterra_deconvolve":
            def after(args, kwargs, result):
                v["laplace.deconv_unknowns"].append(
                    result.cells.size - result.n_tail_extended)
            return None, after
        return None, None

    def _collect_targets(self):
        """(name, original function) pairs to trace, in a fixed order."""
        import scipy.linalg

        import pointsource.cli as cli

        targets = []
        for mod_name in LAYER_MODULES:
            mod = sys.modules[f"pointsource.{mod_name}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and \
                        fn.__module__ == mod.__name__:
                    name = f"{mod_name}.{attr}"
                    targets.append((ALIASES.get(name, name), fn))
        for attr, name in CLI_COMMANDS.items():
            fn = getattr(cli, attr, None)
            if fn is not None:
                targets.append((name, fn))
        targets.append(("laplace.cholesky", scipy.linalg.cho_factor))
        return targets

    def _bindings(self, fn):
        """Every (namespace, attribute) that binds ``fn``."""
        import scipy.linalg

        spaces = [m for k, m in sys.modules.items()
                  if m is not None and
                  (k == "pointsource" or k.startswith("pointsource."))]
        spaces.append(scipy.linalg)
        return [(ns, attr) for ns in spaces
                for attr, val in list(vars(ns).items()) if val is fn]

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        if self._targets is None:
            self._targets = []
            for name, fn in self._collect_targets():
                before, after = self._hooks(name, fn)
                self._targets.append((self._bindings(fn), fn,
                                      self._wrap(name, fn, before, after)))
        for bindings, _, wrapper in self._targets:
            for ns, attr in bindings:
                setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for bindings, fn, _ in self._targets:
                for ns, attr in bindings:
                    setattr(ns, attr, fn)


def layer_times(spans, first: int = 0) -> dict:
    """Per-name calls, total and self time over ``spans[first:]``.

    Self time is a span's duration minus the time its direct children
    cover; calls here are sequential, so children never overlap.
    """
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0})
    child_time = defaultdict(float)
    for i in range(first, len(spans)):
        _, parent, _, start, end = spans[i]
        if parent is not None and parent >= first:
            child_time[parent] += end - start
    for i in range(first, len(spans)):
        name, _, _, start, end = spans[i]
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += end - start
        rec["self_s"] += end - start - child_time[i]
    return dict(out)


def span_tree(spans, first: int = 0, last: int | None = None) -> dict:
    """Aggregate spans by their path from the root: calls and total time."""
    last = len(spans) if last is None else last
    paths: dict = {}
    tree: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0})
    for i in range(first, last):
        name, parent, _, start, end = spans[i]
        path = (paths[parent] + " > " + name) if parent in paths else name
        paths[i] = path
        tree[path]["calls"] += 1
        tree[path]["total_s"] += end - start
    return dict(tree)
