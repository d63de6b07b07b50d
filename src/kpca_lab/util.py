"""Small shared helpers."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map a function over items in order, serially; exceptions propagate.

    The package no longer calls this; it stays for code that imports or
    wraps it, such as the span tracer in ``perfbench/spans.py``.
    """
    return [fn(item) for item in items]
