"""The two workloads: plans, seeded inputs and per-phase sizes.

Every workload reports every end-to-end metric, so every workload runs
the same phases against one journaled, windowed ``repro serve`` (2
shards, CLI defaults otherwise); what differs is the plan, the data and
how the run's seconds are shared among the phases, so each workload
loads a different layer:

* ``ingest`` — 4 attributes at d=64 (3 SW-EMS, 1 PM). Most time goes to
  open-loop ~200-report uploads (per-upload costs: HTTP, the serialized
  submit, dedup, journal append/commit, checkpoints) and to closed-loop
  ~20k-report bulk uploads (per-report costs: digest, decode, journal
  bytes, shard fold). Solves are small.
* ``query`` — 3 SW-EMS attributes at d=512 plus a PM mean, with a
  quantile task. Most time goes to analysts polling each fresh round's
  estimate (a cold solve) while one connection uploads the next round
  beside them; one poll in five re-reads a finished round and solves
  nothing. Merge, EM/EMS and the task report dominate.

Both also poll fresh rounds (cold solves) and advance stream rounds
through the service's sliding window (window push/evict, warm-started
fused solves, meta advance records), each at their own domain size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.tasks import AnalysisPlan, AttributeSpec, Distribution, Mean, Quantiles

Values = dict[str, np.ndarray]

#: The timed phases run in this many cycles, so each metric's samples
#: spread over the whole run and a stall of the shared host lands in
#: one cycle's share of every metric rather than in all of one metric.
CYCLES = 8
#: Offered rate of the open-loop uploads whose latencies are the reported
#: upload p50/p99 (uploads/s), the higher rungs of the ladder run once
#: after the cycles, each for ``RUNG_FRACTION`` of ``--seconds``, and the
#: p99 limit a rung must meet to count.
LOW_RATE = 100.0
RUNGS = (LOW_RATE, 200.0, 400.0, 1000.0)
RUNG_FRACTION = 0.03
P99_LIMIT_MS = 50.0
#: Users per small (open-loop) and large (bulk) upload.
SMALL_USERS = 200
BULK_USERS = 20_000
#: Expected bulk uploads/s; sizes the bulk phase's fixed upload count.
BULK_UPLOADS_PER_S = 350.0
#: Uploads per stream round, the service's window, and check-round users.
#: Each advance swaps half of a 2-round window, so its warm-started solve
#: runs about as many iterations on every seed; with 8 rounds it swaps an
#: eighth, and the median iteration count moved by a third between seeds.
TICK_FRAMES = 2
WINDOW = 2
CHECK_USERS = 400_000
#: Stream rounds uploaded and advanced on the recovery service before it
#: is killed, so its journal holds window-advance records too.
RECOVERY_TICKS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: AnalysisPlan
    #: ``values(gen, n)`` draws ``n`` users' values for every attribute.
    values: Callable[[np.random.Generator, int], Values]
    #: Fractions of ``--seconds`` given to the time-based phases: the
    #: low-rate uploads (``low``), client encoding and bulk uploads (sized
    #: by ``BULK_UPLOADS_PER_S``). The polls and stream rounds are fixed
    #: counts and take roughly the rest.
    shares: dict[str, float]
    #: SW-EMS attributes whose mean W1 to the truth is ``estimate_w1``.
    distribution_attrs: tuple[str, ...]
    #: Polled fresh rounds per 10 s of ``--seconds`` (each solved cold;
    #: a quiet poll follows every fourth).
    polls: int
    #: Stream phase: rounds per 10 s of ``--seconds`` and users per round.
    tick_rounds: int
    tick_users: int
    #: Largest accepted ``estimate_w1`` (a correctness gate).
    w1_bound: float
    #: SIGKILL + restart cycles whose mean is ``recovery_s``.
    recoveries: int = 4


def _mixture(gen: np.random.Generator, n: int, modes, spread) -> np.ndarray:
    pick = gen.random(n) < 0.6
    values = np.where(
        pick, gen.normal(modes[0], spread, n), gen.normal(modes[1], spread, n)
    )
    return np.clip(values, 0.0, 1.0)


def _ingest() -> Workload:
    plan = AnalysisPlan(
        epsilon=1.0,
        attributes=(
            AttributeSpec("latency", d=64),
            AttributeSpec("load", d=64),
            AttributeSpec("score", d=64),
            AttributeSpec("spend", low=0.0, high=100.0, d=64),
        ),
        tasks=(
            Distribution("latency"),
            Quantiles("load", quantiles=(0.5, 0.9)),
            Distribution("score"),
            Mean("spend"),
        ),
    )

    def values(gen: np.random.Generator, n: int) -> Values:
        return {
            "latency": gen.beta(2.0, 5.0, n),
            "load": gen.beta(5.0, 2.0, n),
            "score": _mixture(gen, n, (0.3, 0.7), 0.08),
            "spend": np.clip(gen.lognormal(3.0, 0.5, n), 0.0, 100.0),
        }

    return Workload(
        name="ingest",
        why="small open-loop and large closed-loop uploads at d=64: HTTP, "
        "submit, dedup, journal and shard fold dominate; solves are small",
        plan=plan,
        values=values,
        shares={"low": 0.3, "client": 0.12, "bulk": 0.1},
        polls=16,
        tick_rounds=40,
        tick_users=10_000,
        w1_bound=0.03,
        distribution_attrs=("latency", "load", "score"),
    )


def _query() -> Workload:
    plan = AnalysisPlan(
        epsilon=1.0,
        attributes=(
            AttributeSpec("dwell", d=512),
            AttributeSpec("depth", d=512),
            AttributeSpec("ratio", d=512),
            AttributeSpec("spend", low=0.0, high=100.0, d=64),
        ),
        tasks=(
            Distribution("dwell"),
            Quantiles("depth", quantiles=(0.1, 0.5, 0.9)),
            Distribution("ratio"),
            Mean("spend"),
        ),
    )

    def values(gen: np.random.Generator, n: int) -> Values:
        return {
            "dwell": gen.beta(2.0, 8.0, n),
            "depth": _mixture(gen, n, (0.25, 0.65), 0.06),
            "ratio": gen.beta(3.0, 3.0, n),
            "spend": np.clip(gen.lognormal(3.0, 0.5, n), 0.0, 100.0),
        }

    return Workload(
        name="query",
        why="analysts poll fresh d=512 rounds beside uploads: merge, cold "
        "EM/EMS and the task report dominate; ingest does little",
        plan=plan,
        values=values,
        shares={"low": 0.15, "client": 0.08, "bulk": 0.12},
        polls=8,
        tick_rounds=8,
        tick_users=10_000,
        w1_bound=0.012,
        distribution_attrs=("dwell", "depth", "ratio"),
    )


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "ingest": _ingest,
    "query": _query,
}
