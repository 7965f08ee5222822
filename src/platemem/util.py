"""Small shared helpers: the per-mode map and float formatting."""
from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items]; kept by name because the benchmark tracer hooks it."""
    return [fn(x) for x in items]


def fmt(x: float) -> str:
    """Floating-point text with 17 significant digits (lossless round-trip)."""
    return f"{x:.17g}"


def write_csv(path, header: Iterable[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV with %.17g floats; header is written verbatim."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n")
