"""Spans around the public functions of each reconnet layer, and their self time.

A span has a name, a start, an end, a parent and the id of the run it
belongs to. Spans live in memory until the run writes them out. A span's
self time is its duration minus the union of the intervals its child spans
cover, so children that ran in parallel worker threads are not subtracted
twice.

Wrappers are installed by rebinding every name that refers to the wrapped
function in any loaded ``reconnet`` module: ``cli`` and ``validation``
import functions with ``from .x import f``, so patching ``reconnet.x.f``
alone would miss their calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import resource
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` of ``module``, or ``Class.method`` for a method."""

    module: str
    attr: str
    span_name: object
    after: object = None
    track_rss: bool = False


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects the spans of one run.

    A thread with no open span of its own (a worker of a thread pool that
    a traced function started) takes the innermost open span of the thread
    that created the tracer as the parent of its spans.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        with self._lock:
            return self._stacks.setdefault(threading.get_ident(), [])

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1].span_id
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].span_id if home else None
        with self._lock:
            sp = Span(next(self._ids), parent, name, 0.0)
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name, after=None, track_rss=False):
        """``fn`` inside a span; ``name`` is a string or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            with tracer.span(span_name) as sp:
                if track_rss:
                    sp.attrs["maxrss_before_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                out = fn(*args, **kwargs)
                if track_rss:
                    sp.attrs["maxrss_after_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if after is not None:
                    after(sp, out)
                return out

        return traced

    def install(self, targets) -> None:
        """Wrap every ``Target`` and rebind each name that holds the original.

        Only modules imported before the call are rebound; a module imported
        while the wrappers are installed keeps the wrappers after ``uninstall``.
        """
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                is_classmethod = isinstance(original, classmethod)
                fn = self.wrap(original.__func__ if is_classmethod else original,
                               target.span_name, target.after, target.track_rss)
                setattr(cls, meth, classmethod(fn) if is_classmethod else fn)
                self._installed.append((cls, meth, original))
                continue
            original = getattr(module, target.attr)
            fn = self.wrap(original, target.span_name, target.after, target.track_rss)
            for holder in _reconnet_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, fn)
                        self._installed.append((holder, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()


def _reconnet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "reconnet" or name.startswith("reconnet."))]


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> tuple[dict[int, float], float]:
    """Self time of every span, and the total parallel overlap of children.

    Overlap is, summed over parents, the children's summed durations minus
    the union of their intervals: the time counted twice because sibling
    spans ran at once. Summed self time minus overlap equals the summed
    duration of the root spans.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    result = {}
    overlap = 0.0
    for sp in spans:
        kids = children.get(sp.span_id, [])
        covered = _union_length((max(k.start, sp.start), min(k.end, sp.end)) for k in kids)
        result[sp.span_id] = (sp.end - sp.start) - covered
        overlap += sum(k.end - k.start for k in kids) - covered
    return result, overlap


def root_of(spans) -> dict[int, Span]:
    """Map every span id to its root span."""
    by_id = {sp.span_id: sp for sp in spans}
    roots = {}
    for sp in spans:
        chain = [sp]
        while chain[-1].parent is not None and chain[-1].span_id not in roots:
            chain.append(by_id[chain[-1].parent])
        root = roots.get(chain[-1].span_id, chain[-1])
        for s in chain:
            roots[s.span_id] = root
    return roots
