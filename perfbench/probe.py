"""Timing from outside: spans around calls into the program's layers.

Nothing in the program under test is edited.  A :class:`Recorder`
wraps public functions and methods (module attributes and class
attributes) for the duration of a :func:`patched` block; each call
records one span ``[name, start, end, parent, info]`` in memory, where
``parent`` is the index of the span open when the call began (``-1``
at the root).  Spans are written out once, when the run ends.

A wrapper passes its arguments, return value and exceptions through
unchanged, so a traced run's outputs equal an untraced run's.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = list  # [name, start, end, parent, info]

NAME, START, END, PARENT, INFO = range(5)


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def wrap(
        self,
        fn: Callable,
        name,
        info: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as a span.

        Args:
            fn: the callable to wrap.
            name: the span name, or ``name(args) -> str`` to name it
                from the call's positional arguments (e.g. by the
                class of ``self``).
            info: optional ``info(args, result) -> value`` kept on the
                span (counts measured where the work happens).
        """
        clock = self.clock
        spans = self.spans
        open_ = self._open
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [
                namer(args) if namer else name,
                clock(),
                None,
                open_[-1] if open_ else -1,
                None,
            ]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return wrapper


Target = Tuple[object, str, object, Optional[Callable]]


@contextmanager
def patched(recorder: Recorder, targets: Iterable[Target]):
    """Replace each ``owner.attr`` with a timed wrapper, then restore.

    ``targets`` holds ``(owner, attr, name, info)`` tuples (see
    :meth:`Recorder.wrap`); ``owner`` is a module or a class.  A class
    attribute must be defined on that class itself (not inherited), so
    restoring puts back exactly what was there.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, name, info in targets:
            if isinstance(owner, type):
                if attr not in vars(owner):
                    raise AttributeError(
                        f"{owner.__name__}.{attr} is inherited; patch the "
                        "defining class"
                    )
                original = vars(owner)[attr]
            else:
                original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, info))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- span arithmetic ---------------------------------------------------------


def duration(span: Span) -> float:
    return span[END] - span[START]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time of its direct children."""
    out = [duration(s) for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= duration(span)
    return out


def _has_ancestor(spans: Sequence[Span], i: int, match) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if match(spans[parent][NAME]):
            return True
        parent = spans[parent][PARENT]
    return False


def busy(spans: Sequence[Span], match) -> Tuple[float, int]:
    """Busy time and call count of the spans whose name ``match``-es.

    Nested matches (a matching span inside another) count once: the
    busy time is the outermost spans' durations, so it never exceeds
    the wall-clock the layer held.
    """
    total = 0.0
    calls = 0
    for i, span in enumerate(spans):
        if not match(span[NAME]):
            continue
        calls += 1
        if not _has_ancestor(spans, i, match):
            total += duration(span)
    return total, calls


def roots(spans: Sequence[Span], match) -> List[Span]:
    """The outermost spans whose name ``match``-es, in call order."""
    return [
        span
        for i, span in enumerate(spans)
        if match(span[NAME]) and not _has_ancestor(spans, i, match)
    ]


def dump(spans: Sequence[Span]) -> List[Dict]:
    """Spans as JSON-ready dicts (written once, at the end of a run)."""
    return [
        {
            "name": s[NAME],
            "start": s[START],
            "end": s[END],
            "parent": s[PARENT],
            **({"info": s[INFO]} if s[INFO] is not None else {}),
        }
        for s in spans
    ]
