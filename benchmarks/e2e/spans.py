"""Spans recorded from outside the program, and what the harness does
with them.

The traced run wraps public functions of ``repro`` (see ``layers.py``)
with timing wrappers.  Each call becomes one span: name, start, end,
parent, pid, thread and the iteration or request id it belongs to.
Spans stay in memory and each process appends them to
``spans.<pid>.jsonl`` when its outermost open span closes, so forked
pool children, which leave through ``os._exit``, still deliver theirs.

The harness side loads every file, computes self time (a span's
duration minus the part of it its child spans cover) and writes the
merged spans as one Chrome/Perfetto trace.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

SPAN_DIR_ENV = "E2E_SPAN_DIR"
ITER_ENV = "E2E_ITER"


class Recorder:
    """Per-process span stack (one per thread) and write-out buffer."""

    def __init__(self, out_dir: str, iteration: str = ""):
        self.out_dir = out_dir
        self.iteration = iteration
        self.pid = os.getpid()
        self.fork_parent: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffer: List[Dict[str, Any]] = []

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def after_fork_in_child(self) -> None:
        """Start the child with an empty stack and buffer; remember the
        span that was open in the forking thread as the child's link."""
        stack = self._stack()
        self.fork_parent = stack[-1]["id"] if stack else None
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffer = []

    def open(self, name: str, request: Optional[str] = None
             ) -> Dict[str, Any]:
        stack = self._stack()
        top = stack[-1] if stack else None
        span = {
            "name": name,
            "id": f"{self.pid}.{next(self._ids)}",
            "parent": top["id"] if top else None,
            "link": None if top else self.fork_parent,
            "pid": self.pid,
            "tid": threading.get_native_id(),
            "iter": request or (top["iter"] if top else self.iteration),
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: Dict[str, Any],
              attrs: Optional[Mapping[str, Any]] = None) -> None:
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"] = dict(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._buffer.append(span)
        if not stack:
            self.flush()

    def event(self, name: str) -> None:
        """A zero-length span: a count recorded where the work happens."""
        self.close(self.open(name))

    def flush(self) -> None:
        with self._lock:
            spans, self._buffer = self._buffer, []
        if not spans:
            return
        path = Path(self.out_dir) / f"spans.{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def timed(recorder: Recorder, name: str, func: Callable,
          attrs: Optional[Callable[[Any, tuple, dict],
                                   Mapping[str, Any]]] = None,
          request: Optional[Callable[[tuple, dict], Optional[str]]] = None
          ) -> Callable:
    """Wrap ``func`` so each call records one span.

    ``attrs(result, args, kwargs)`` adds values taken from the call
    (cycles simulated, bytes written); ``request(args, kwargs)`` names
    the request the call serves, and spans below inherit it.  An error
    in either is recorded on the span as ``attr_error`` and never
    reaches the program: the wrapper must not change what it measures.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        request_id = None
        problem = None
        if request is not None:
            try:
                request_id = request(args, kwargs)
            except Exception as exc:  # noqa: BLE001 - see docstring
                problem = repr(exc)
        span = recorder.open(name, request_id)
        extra: Dict[str, Any] = {}
        try:
            result = func(*args, **kwargs)
            if attrs is not None:
                try:
                    extra.update(attrs(result, args, kwargs))
                except Exception as exc:  # noqa: BLE001 - see docstring
                    problem = repr(exc)
            return result
        finally:
            if problem is not None:
                extra["attr_error"] = problem
            recorder.close(span, extra)

    return wrapper


# ----- installing wrappers ----------------------------------------------------


@dataclass
class Installation:
    """The patches one :func:`install` made, and the targets it could
    not find."""

    patches: List[Tuple[Any, str, Any]] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    def uninstall(self) -> None:
        """Put every original object back where it was found."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _resolve(modules: Mapping[str, Any], module: str, qualname: str):
    """(owner, attribute, object) for ``module:qualname``, or None."""
    owner = modules.get(module)
    if owner is None:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # methods are looked up on the class itself, not inherited
        obj = owner.__dict__.get(parts[-1])
    else:
        obj = getattr(owner, parts[-1], None)
    if obj is None or not callable(obj):
        return None
    return owner, parts[-1], obj


def install(targets: Iterable[Tuple[str, str, Callable[[Callable], Callable]]],
            modules: Mapping[str, Any]) -> Installation:
    """Replace each target with ``make_wrapper(original)``.

    ``targets`` holds ``(module, qualname, make_wrapper)``.  A method
    (``Class.name``) is patched on its class.  A function is replaced
    under every module attribute in ``modules`` that *is* that function
    object, so names bound by ``from x import f`` are caught as well.
    A target that cannot be found is reported in ``missing``.
    """
    done = Installation()
    for module, qualname, make_wrapper in targets:
        found = _resolve(modules, module, qualname)
        if found is None:
            done.missing.append(f"{module}:{qualname}")
            continue
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            done.patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in list(modules.values()):
            for name, value in list(vars(mod).items()):
                if value is original:
                    done.patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
    return done


# ----- the harness side -------------------------------------------------------


def load_spans(directory: Path) -> List[Dict[str, Any]]:
    """Every span every process of one traced command wrote."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob("spans.*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the time its child spans cover.

    Children are the spans whose ``parent`` is the span, which are in
    the same process and thread.  Work a span waits for in another
    process (a pool child) is not its child and stays in its self time.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - covered(children.get(span["id"], ()), span["start"], span["end"])
            for span in spans}


def covered(intervals: Iterable[Tuple[float, float]], start: float,
            end: float) -> float:
    """Length of the union of ``intervals`` within ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def chrome_trace(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The spans as Chrome trace-event JSON (loads in ui.perfetto.dev)."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(span["start"] for span in spans)
    selfs = self_times(spans)
    events: List[Dict[str, Any]] = []
    for pid in sorted({span["pid"] for span in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": f"repro {pid}"}})
    for span in sorted(spans, key=lambda s: s["start"]):
        args = {"iter": span["iter"], "id": span["id"],
                "self_ms": round(selfs[span["id"]] * 1e3, 3)}
        if span.get("link"):
            args["forked_from"] = span["link"]
        args.update(span.get("attrs") or {})
        events.append({
            "name": span["name"], "cat": span["name"].split(".")[0],
            "ph": "X", "pid": span["pid"], "tid": span["tid"],
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
