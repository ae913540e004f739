"""Traced memory of one call, for the tests' peak-memory guards."""

import inspect
import tracemalloc
from contextlib import ExitStack
from unittest import mock


def traced_peak(fn, *args, **kwargs) -> int:
    """Bytes that ``fn(*args, **kwargs)`` held at its traced peak, over those held at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def phase_peaks(phases, fn, *args, **kwargs) -> dict:
    """Traced peak of each named phase inside one ``fn(*args, **kwargs)`` call, in bytes over its start.

    ``phases`` is a list of ``(module, name)`` callables, each wrapped for the
    call and reported as ``"module.name"`` (the module's last dotted part).
    Memory held while wrapped calls nest goes to the innermost one, so a
    phase's peak covers its own code and the unwrapped calls it makes; a
    generator's phase covers each of its resumptions.  ``"total"`` is the
    peak of the whole call, and a phase that never ran is absent.
    """
    peaks, open_phases = {}, []

    def mark():
        # the peak since the last mark goes to the innermost open phase and the total
        peak = tracemalloc.get_traced_memory()[1] - start
        for key in open_phases[-1:] + ["total"]:
            peaks[key] = max(peaks.get(key, 0), peak)
        tracemalloc.reset_peak()

    def run(key, step):
        mark()
        open_phases.append(key)
        try:
            return step()
        finally:
            mark()
            open_phases.pop()

    def resumed(key, gen):
        while True:
            try:
                item = run(key, lambda: next(gen))
            except StopIteration:
                return
            yield item

    def wrap(key, real):
        def phase(*a, **kw):
            if inspect.isgeneratorfunction(real):
                return resumed(key, real(*a, **kw))
            return run(key, lambda: real(*a, **kw))
        return phase

    tracemalloc.start()
    try:
        with ExitStack() as stack:
            for module, name in phases:
                key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
                stack.enter_context(mock.patch.object(module, name, wrap(key, getattr(module, name))))
            start = tracemalloc.get_traced_memory()[0]
            fn(*args, **kwargs)
            mark()
        return peaks
    finally:
        tracemalloc.stop()
