"""Small shared helpers: the per-mode map and float formatting."""
from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items]; kept by name because the benchmark tracer hooks it."""
    return [fn(x) for x in items]


def fmt(x: float) -> str:
    """Floating-point text with 17 significant digits (lossless round-trip)."""
    return f"{x:.17g}"


def write_csv(path, header: Iterable[str], table: np.ndarray) -> None:
    """Plain CSV of a 2-D numeric table, every entry %.17g; header is written verbatim."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
