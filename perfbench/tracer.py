"""Span tracing installed from outside the package, for ``run.py --trace 1``.

Each wrapper replaces a module attribute that a caller looks up at call time,
so the package itself is not modified.  A span records its name, start, end,
parent span and op id.  Spans stay in memory in flat arrays (a sessions run
records a few million of them) and are written out once, when the run ends.

Work done by the benchmark itself inside a traced region (reading results
back, solving the reference LP) runs under ``Tracer.hidden()``: the tracer's
clock stops for it, so no span and no op time includes it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

# (module where the caller looks the name up, attribute, span name, module
# whose __all__ must list the name).  Only public names are wrapped, so a
# name deleted by a refactor is reported as absent instead of breaking the run.
SITES = (
    ("session", "download", "channel.download", "channel"),
    ("session", "step", "session.step", "session"),
    ("session", "run_session", "session.run_session", "session"),
    ("session", "export_log_csv", "session.export_log_csv", "session"),
    ("session", "read_log_csv", "session.read_log_csv", "session"),
    ("l2a", "l2a_decide", "l2a.l2a_decide", "l2a"),
    ("l2a", "project_simplex", "simplex.project_simplex.in_l2a", "simplex"),
    ("metrics", "project_simplex", "simplex.project_simplex.in_metrics", "simplex"),
    ("metrics", "solve_benchmark", "metrics.solve_benchmark", "metrics"),
    ("metrics", "qoe_metrics", "metrics.qoe_metrics", "metrics"),
    ("metrics", "regret_and_residuals", "metrics.regret_and_residuals", "metrics"),
    ("baselines", "rb_decide", "baselines.rb_decide", "baselines"),
    ("baselines", "bb_decide", "baselines.bb_decide", "baselines"),
    ("media", "load_manifest", "media.load_manifest", "media"),
    ("media", "synthesize_manifest", "media.synthesize_manifest", "media"),
    ("media", "write_manifest", "media.write_manifest", "media"),
    ("channel", "load_trace", "channel.load_trace", "channel"),
    ("channel", "generate_markovian", "channel.generate_markovian", "channel"),
    ("channel", "write_trace", "channel.write_trace", "channel"),
    ("cli", "run_compare", "cli.run_compare", "cli"),
)


def public_names(module) -> set[str]:
    """``__all__`` of a module, or its non-underscore names when it has none."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return set(names)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.absent: list[str] = []
        self._paused = 0.0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def now(self) -> float:
        """Host time with every ``hidden()`` interval removed."""
        return perf_counter() - self._paused

    @contextlib.contextmanager
    def hidden(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self._paused += perf_counter() - t0

    def install(self, package: str, hooks: dict) -> None:
        """Wrap every site in SITES; ``hooks[span]`` runs hidden after a call
        with the call's bound arguments and its result."""
        for site_name, attr, span, owner_name in SITES:
            site = importlib.import_module(f"{package}.{site_name}")
            owner = importlib.import_module(f"{package}.{owner_name}")
            fn = getattr(site, attr, None)
            if not callable(fn) or attr not in public_names(owner):
                self._mark_absent(f"{site_name}.{attr}")
                continue
            setattr(site, attr, self._wrap(span, fn, hooks.get(span)))
            self._installed.append((site, attr, fn))

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._installed):
            setattr(site, attr, fn)
        self._installed.clear()

    def _wrap(self, span: str, fn, hook):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        signature = inspect.signature(fn) if hook is not None else None
        stack = self._stack
        rec = (self.name_id, self.parent, self.op, self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            rec[0].append(nid)
            rec[1].append(stack[-1] if stack else -1)
            rec[2].append(self.op_id)
            rec[3].append(0.0)
            rec[4].append(0.0)
            stack.append(idx)
            t0 = perf_counter() - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter() - self._paused
                stack.pop()
                rec[3][idx] = t0
                rec[4][idx] = t1
            if hook is not None:
                with self.hidden():
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        hook(bound.arguments, result)
                    except (AttributeError, KeyError, TypeError) as exc:
                        # a refactor renamed an argument or result field
                        self._mark_absent(f"{span} hook ({exc!r})")
            return result

        return wrapper

    def table(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with each span's self time."""
        cols = {
            "name": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
        }
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        cols["dur"] = dur
        cols["self"] = dur - child
        return cols

    def save(self, path) -> None:
        cols = self.table()
        np.savez(
            path,
            names=np.array(self.names),
            **{k: cols[k] for k in ("name", "parent", "op", "start", "end")},
        )
