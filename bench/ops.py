"""The unit a workload is made of: one timed operation and its checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Op:
    """``run`` calls the program and returns what it answered; ``check``
    judges that answer from an independent computation and returns None
    or the reason it is wrong.  ``known_fault`` names exception types that
    a known program fault raises on this input: such a call counts as a
    failed operation, not as a wrong answer."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    known_fault: tuple = ()


def batch(label: str, calls: list) -> Op:
    """One operation made of several (run, check) calls, so that cheap
    calls are timed together rather than one sub-millisecond at a time."""

    def run():
        return [call() for call, _ in calls]

    def check(outs):
        return next(filter(None, (chk(out) for (_, chk), out in zip(calls, outs))), None)

    return Op(label, run, check)
