"""Small shared helpers: the per-mode map, float formatting and output files."""
from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items], in order, on one thread per usable CPU.

    Only worth it where fn's time is spent with the GIL released: the
    per-mode Schur forms.  Inline when at most one worker would run.
    """
    # usable CPUs: the affinity set, where the platform has one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(items), cpus or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor      # 6 ms of start-up otherwise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def fmt(x: float) -> str:
    """Floating-point text with 17 significant digits (lossless round-trip)."""
    return f"{x:.17g}"


def output_file(path: str) -> str:
    """path, with its directory made if missing: a run makes its output
    directory at its first file, so a run that fails its checks leaves none."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def write_csv(path, header: Iterable[str], table: np.ndarray) -> None:
    """Plain CSV of a 2-D numeric table, every entry %.17g; header is written verbatim."""
    np.savetxt(output_file(path), table, fmt="%.17g", delimiter=",", header=",".join(header),
               comments="")
