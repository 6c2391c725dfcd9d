"""In-memory span recorder and the wrappers that install it around calls.

A span is ``(id, name, start, end, parent, thread, request_id, info)``
with times from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans recorded in the server process and
in the load generator share one time axis. ``parent`` is the span open on
the same thread when this one started; ``request_id`` is inherited from
the parent unless the wrapper sets one (the upload's ``Idempotency-Key``).
``info`` holds per-call facts a wrapper extracts (bytes, reports, flags).

Spans stay in memory and are written once with :meth:`Tracer.dump`.
Nothing here touches the program's source: :func:`wrap_function` and
:func:`wrap_method` rebind names on already-imported modules and classes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable

Info = Callable[..., dict[str, Any] | None]


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        *,
        rid: str | None = None,
        before: Info | None = None,
        after: Info | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``before(*args, **kwargs)`` and ``after(result, *args, **kwargs)``
        return dicts merged into the span's ``info``; an exception's type
        name is recorded under ``"error"`` and re-raised.
        """
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        stack.append((sid, rid or inherited))
        info = dict(before(*args, **kwargs) or {}) if before else {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            info["error"] = type(exc).__name__
            raise
        else:
            if after is not None:
                info.update(after(result, *args, **kwargs) or {})
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, threading.current_thread().name,
                 rid or inherited, info)
            )

    def dump(self, path: str) -> None:
        """Write every span so far as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(self.spans), handle)


def _wrapper(
    tracer: Tracer, name: str, fn: Callable[..., Any], rid: Callable[..., str | None] | None,
    before: Info | None, after: Info | None,
) -> Callable[..., Any]:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            # One span per resumption, so time spent by the consumer
            # between items is not charged to the generator.
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (inner,), {})
                except StopIteration:
                    return
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(
            name, fn, args, kwargs,
            rid=rid(*args, **kwargs) if rid else None,
            before=before, after=after,
        )

    return wrapper


def wrap_function(
    tracer: Tracer, module: str, attr: str, name: str, *,
    rid: Callable[..., str | None] | None = None,
    before: Info | None = None, after: Info | None = None,
) -> None:
    """Wrap a module-level function, also where it was imported by name.

    Every loaded ``repro`` module holding the same function object under
    the same name is rebound, so ``from x import f`` call sites see the
    wrapper too.
    """
    original = getattr(sys.modules[module], attr)
    wrapped = _wrapper(tracer, name, original, rid, before, after)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == module or mod_name.startswith("repro")) and getattr(
            mod, attr, None
        ) is original:
            setattr(mod, attr, wrapped)


def wrap_method(
    tracer: Tracer, cls: type, attr: str, name: str, *,
    rid: Callable[..., str | None] | None = None,
    before: Info | None = None, after: Info | None = None,
) -> None:
    """Wrap ``cls.attr`` (a plain, class- or static method) in place."""
    raw = cls.__dict__[attr]
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = _wrapper(tracer, name, raw.__func__, rid, before, after)
        setattr(cls, attr, type(raw)(wrapped))
    else:
        setattr(cls, attr, _wrapper(tracer, name, raw, rid, before, after))
