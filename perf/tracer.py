"""Span tracer that times calls into the system's layers from outside.

The benchmark never edits the program it measures.  Instead the tracer
replaces a layer's public function (a class attribute or a module
global) with a wrapper that reads a clock on entry and exit, and puts
the original back when tracing ends.  Each thread keeps a stack of open
calls, so self time is computed online: a call's self time is its
duration minus the durations of the wrapped calls it made on the same
thread.  A call on another thread is never a child, whatever it
overlaps.

Two wrapper kinds exist.  *Hot* boundaries (per memory access, per
quantum) only accumulate counts and times.  The others also record a
span (name, start, duration, parent span, thread, job id) for the
Chrome trace, and may run an ``after`` hook that reads counts off the
call's arguments and result.

Every wrapper costs time, and that time lands partly inside the call's
own interval and partly in its caller's self time.
:meth:`Tracer.calibrate` measures both parts on an empty callable, and
:meth:`Tracer.boundary_report` subtracts them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Fields of a per-thread, per-boundary stats row.
_CALLS, _INCL, _SELF, _HOT_KIDS, _SPAN_KIDS = range(5)


class Boundary(NamedTuple):
    """One wrapped function and the layer its self time belongs to."""

    layer: str
    #: ``"package.module:Qualified.name"``.
    target: str
    #: Accumulate only (no span record, no hooks): for per-access calls.
    hot: bool = False
    #: ``args -> job id`` for calls that carry a job.
    job: Optional[Callable[[tuple], Optional[str]]] = None
    #: ``(tracer, args, result) -> None``, run after a normal return.
    after: Optional[Callable[["Tracer", tuple, Any], None]] = None


@dataclass(frozen=True)
class SpanCost:
    """Calibrated wrapper cost, in clock units per call.

    ``*_inner`` is the part a call's own measured interval contains;
    ``*_outer`` is the part that lands in the caller's self time.
    """

    hot_inner: float = 0.0
    hot_outer: float = 0.0
    span_inner: float = 0.0
    span_outer: float = 0.0


class _Frame:
    __slots__ = ("child", "hot_kids", "span_kids")

    def __init__(self) -> None:
        self.child = 0
        self.hot_kids = 0
        self.span_kids = 0


class _ThreadState:
    __slots__ = ("stack", "rows", "span", "job", "ident")

    def __init__(self, ident: int) -> None:
        self.stack: List[_Frame] = []
        self.rows: Dict[int, List[int]] = {}
        self.span: Optional[int] = None
        self.job: Optional[str] = None
        self.ident = ident


def resolve(target: str) -> Tuple[Any, str]:
    """(owner, attribute) for a ``module:Qual.name`` target."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps layer boundaries and accounts self time per thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.layers: List[str] = []
        self.hot: List[bool] = []
        #: (id, parent id, name, layer, start ns, wall ns, thread, job).
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.kept: Dict[str, List[Any]] = defaultdict(list)
        self.credited: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._span_ids = itertools.count(1)
        self._origin_ns = time.perf_counter_ns()

    # -- for after-hooks (thread-safe) -----------------------------------
    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def keep(self, name: str, value: Any) -> None:
        with self._lock:
            self.kept[name].append(value)

    # -- per-thread state ------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # -- wrappers --------------------------------------------------------
    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        """A wrapper around ``fn`` that accounts under ``boundary``."""
        index = len(self.names)
        self.names.append(boundary.target)
        self.layers.append(boundary.layer)
        self.hot.append(boundary.hot)
        if boundary.hot:
            wrapper = self._hot_wrapper(index, fn)
        else:
            wrapper = self._span_wrapper(index, boundary, fn)
        return functools.update_wrapper(wrapper, fn)

    def _hot_wrapper(self, index: int, fn: Callable) -> Callable:
        clock = self.clock
        local = self._local
        new_state = self._state

        def hot(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                row = state.rows.get(index)
                if row is None:
                    row = state.rows[index] = [0, 0, 0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame.child
                row[3] += frame.hot_kids
                row[4] += frame.span_kids
                if stack:
                    parent = stack[-1]
                    parent.child += duration
                    parent.hot_kids += 1

        return hot

    def _span_wrapper(self, index: int, boundary: Boundary,
                      fn: Callable) -> Callable:
        clock = self.clock
        wall = time.perf_counter_ns
        name, layer = boundary.target, boundary.layer
        job_of, after = boundary.job, boundary.after
        spans = self.spans
        span_ids = self._span_ids
        origin = self._origin_ns
        tracer = self

        def span(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            frame = _Frame()
            stack.append(frame)
            parent_span, outer_job = state.span, state.job
            span_id = next(span_ids)
            state.span = span_id
            if job_of is not None:
                state.job = job_of(args) or outer_job
            returned = False
            result = None
            wall_start = wall()
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                duration = clock() - start
                wall_duration = wall() - wall_start
                stack.pop()
                row = state.rows.get(index)
                if row is None:
                    row = state.rows[index] = [0, 0, 0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame.child
                row[3] += frame.hot_kids
                row[4] += frame.span_kids
                if stack:
                    parent = stack[-1]
                    parent.child += duration
                    parent.span_kids += 1
                spans.append((span_id, parent_span, name, layer,
                              wall_start - origin, wall_duration,
                              state.ident, state.job))
                state.span, state.job = parent_span, outer_job
                if returned and after is not None:
                    after(tracer, args, result)

        return span

    # -- install / restore -----------------------------------------------
    def install(self, boundaries: List[Boundary]) -> None:
        """Wrap every boundary (and every ``repro`` alias of a function).

        On any error, everything already wrapped is restored.
        """
        try:
            for boundary in boundaries:
                self._install_one(boundary)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, boundary: Boundary) -> None:
        owner, attr = resolve(boundary.target)
        if inspect.isclass(owner):
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{boundary.target}: static and class "
                                f"methods are not supported")
            self._patch(owner, attr, self.wrap(boundary, original),
                        original, own=attr in vars(owner))
            return
        original = getattr(owner, attr)
        wrapper = self.wrap(boundary, original)
        # `from x import f` binds f in the importer too: patch every
        # loaded module that holds the same function object.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", None) or ""
            if module_name != "repro" and \
                    not module_name.startswith("repro."):
                continue
            if vars(module).get(attr) is original:
                self._patch(module, attr, wrapper, original, own=True)
        if vars(owner).get(attr) is original:
            self._patch(owner, attr, wrapper, original, own=True)

    def _patch(self, owner: Any, attr: str, wrapper: Callable,
               original: Any, own: bool) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- calibration -----------------------------------------------------
    def calibrate(self, calls: int = 20000, repeats: int = 5) -> SpanCost:
        """Measure the wrapper cost per call on an empty callable."""
        costs: Dict[bool, Tuple[List[float], List[float]]] = {
            True: ([], []), False: ([], [])}
        for _ in range(repeats):
            bare = Tracer(self.clock)
            bare.wrap(Boundary("calibrate", "loop", hot=True),
                      _call_n)(_empty, calls)
            bare_self = bare._merged_rows()[0][_SELF]
            for hot, (inner, outer) in costs.items():
                probe = Tracer(self.clock)
                loop = probe.wrap(Boundary("calibrate", "loop", hot=True),
                                  _call_n)
                loop(probe.wrap(Boundary("calibrate", "empty", hot=hot),
                                _empty), calls)
                rows = probe._merged_rows()
                inner.append(rows[1][_SELF] / calls)
                outer.append(max(0.0, (rows[0][_SELF] - bare_self) / calls))
        median = statistics.median
        return SpanCost(median(costs[True][0]), median(costs[True][1]),
                        median(costs[False][0]), median(costs[False][1]))

    # -- reporting -------------------------------------------------------
    def _merged_rows(self) -> Dict[int, List[int]]:
        merged: Dict[int, List[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for index, row in list(state.rows.items()):
                into = merged.setdefault(index, [0, 0, 0, 0, 0])
                for field in range(5):
                    into[field] += row[field]
        return merged

    def boundary_report(self, cost: SpanCost = SpanCost()
                        ) -> Dict[str, dict]:
        """Per boundary: calls, inclusive and self time (clock units).

        ``self`` has the calibrated wrapper cost removed: the part each
        call's own interval holds, and the part its wrapped children
        left in it.  ``subtracted`` is what was removed.
        """
        out: Dict[str, dict] = {}
        for index, row in sorted(self._merged_rows().items()):
            inner = cost.hot_inner if self.hot[index] else cost.span_inner
            overhead = (row[_CALLS] * inner
                        + row[_HOT_KIDS] * cost.hot_outer
                        + row[_SPAN_KIDS] * cost.span_outer)
            corrected = max(0.0, row[_SELF] - overhead)
            entry = out.setdefault(self.names[index], {
                "layer": self.layers[index], "calls": 0, "incl": 0,
                "self": 0.0, "subtracted": 0.0})
            entry["calls"] += row[_CALLS]
            entry["incl"] += row[_INCL]
            entry["self"] += corrected
            entry["subtracted"] += row[_SELF] - corrected
        return out

    def layer_report(self, cost: SpanCost = SpanCost()) -> Dict[str, dict]:
        """Per layer: calls, self time and wrapper cost subtracted."""
        out: Dict[str, dict] = {}
        for entry in self.boundary_report(cost).values():
            layer = out.setdefault(entry["layer"], {
                "calls": 0, "self": 0.0, "subtracted": 0.0})
            layer["calls"] += entry["calls"]
            layer["self"] += entry["self"]
            layer["subtracted"] += entry["subtracted"]
        for name, value in self.credited.items():
            layer = out.setdefault(name, {
                "calls": 0, "self": 0.0, "subtracted": 0.0})
            layer["self"] += value
        return out

    def credit(self, layer: str, value: float) -> None:
        """Charge time measured outside any wrapper to ``layer``."""
        with self._lock:
            self.credited[layer] += value

    def thread_self(self, ident: int) -> int:
        """Uncorrected self time of every call on one thread."""
        with self._lock:
            states = [s for s in self._states if s.ident == ident]
        return sum(row[_SELF] for state in states
                   for row in state.rows.values())

    def edge_wall_ns(self, name: str, parent: str) -> int:
        """Wall time of ``name`` spans opened directly under ``parent``."""
        names = {span[0]: span[2] for span in self.spans}
        return sum(span[5] for span in self.spans
                   if span[2] == name and names.get(span[1]) == parent)

    def chrome_trace(self) -> dict:
        """The recorded spans in Chrome trace-event format."""
        pid = os.getpid()
        events = []
        for span_id, parent, name, layer, start, duration, tid, job in \
                self.spans:
            args: Dict[str, Any] = {"span": span_id, "parent": parent}
            if job is not None:
                args["job"] = job
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": start / 1000.0, "dur": duration / 1000.0,
                           "pid": pid, "tid": tid, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _empty() -> None:
    return None


def _call_n(fn: Callable, n: int) -> None:
    for _ in range(n):
        fn()
