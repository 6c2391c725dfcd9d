"""Pure helpers the benchmark's metrics rest on (tested in ``test_stats.py``).

* :func:`percentile` and :func:`tail_percentile` — nearest-rank order
  statistics, and the tail rule: the highest percentile that still has at
  least ten samples beyond it.
* :func:`rung_passes` and :func:`sustained_rate` — the open-loop rate
  ladder's rule for the highest rung a service sustains.
* :func:`w1_histogram` — Wasserstein-1 between two histograms on one grid.
* :func:`self_times` — span self time: duration minus the part of it that
  child spans cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]; ``nan`` when empty."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_percentile(
    values: Iterable[float], min_beyond: int = TAIL_MIN_BEYOND
) -> tuple[float, float] | None:
    """``(q, value)`` of the highest percentile with ``min_beyond`` samples
    strictly beyond it, or ``None`` when the sample is too small.

    With ``n`` sorted samples, rank ``r`` (1-based) has ``n - r`` samples
    beyond it, so the tail is rank ``n - min_beyond`` at ``q = 100 r / n``.
    """
    ordered = sorted(values)
    rank = len(ordered) - min_beyond
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), float(ordered[rank - 1])


@dataclass(frozen=True)
class Rung:
    """Outcome of one open-loop rung of the upload rate ladder.

    ``attempted`` counts uploads sent, ``failed`` those refused (429),
    answered with another error status, timed out or dropped. ``backlog``
    is the number of uploads due but not yet answered, sampled when the
    rung's schedule ends. ``achieved_per_s`` is successful uploads over
    the time from the rung's start to its last answer.
    """

    rate_per_s: float
    attempted: int
    failed: int
    p99_ms: float
    backlog: int
    achieved_per_s: float


def rung_passes(rung: Rung, p99_limit_ms: float, connections: int) -> bool:
    """A rung counts when nothing failed, p99 meets the limit and the
    backlog did not grow.

    A refused upload misses every latency limit, so any failure fails the
    rung. An open loop below capacity leaves at most one upload in flight
    per connection plus one waiting behind it; a backlog past
    ``2 * connections`` at the end of the schedule means arrivals outran
    service, i.e. the backlog was growing.
    """
    if rung.attempted < 1 or rung.failed > 0:
        return False
    if not rung.p99_ms <= p99_limit_ms:
        return False
    return rung.backlog <= 2 * connections


def sustained_rate(
    rungs: Sequence[Rung], p99_limit_ms: float, connections: int
) -> float:
    """Achieved rate at the highest offered rate with a passing attempt.

    ``rungs`` may hold several attempts per offered rate (the ladder is
    climbed more than once); a rate counts when any attempt passes, so one
    transient host stall does not define capacity, and the achieved rate
    is the mean over its passing attempts. 0.0 when nothing passes.
    """
    passing = [r for r in rungs if rung_passes(r, p99_limit_ms, connections)]
    if not passing:
        return 0.0
    top = max(r.rate_per_s for r in passing)
    return float(np.mean([r.achieved_per_s for r in passing if r.rate_per_s == top]))


def empirical_histogram(
    values: np.ndarray, low: float, high: float, d: int
) -> np.ndarray:
    """Normalised ``d``-bin histogram of ``values`` over ``[low, high]``."""
    counts, _ = np.histogram(
        np.clip(values, low, high), bins=d, range=(low, high)
    )
    return counts / counts.sum()


def w1_histogram(p: Sequence[float], q: Sequence[float], width: float) -> float:
    """Wasserstein-1 between two histograms on one grid of bin ``width``.

    On a line, W1 is the L1 distance between the CDFs; both inputs are
    normalised first, so a histogram of counts and one of masses compare.
    """
    a = np.asarray(p, dtype=np.float64)
    b = np.asarray(q, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"histograms differ in shape: {a.shape} vs {b.shape}")
    cdf_gap = np.cumsum(a / a.sum()) - np.cumsum(b / b.sum())
    return float(np.abs(cdf_gap).sum() * width)


def self_times(spans: Sequence[tuple[int, int | None, float, float]]) -> dict[int, float]:
    """Self time per span: its duration minus the union its children cover.

    ``spans`` holds ``(span_id, parent_id, start, end)``. Child intervals
    are clipped to the parent's and merged before subtraction, so
    overlapping children (threads, generators) are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {sid: (start, end) for sid, _, start, end in spans}
    for sid, parent, start, end in spans:
        if parent is not None and parent in bounds:
            children.setdefault(parent, []).append((start, end))
    result: dict[int, float] = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result
