"""Per-layer metrics from one traced pass (the ``--trace 1`` output).

Server spans come from the two traced server processes of a pass (the
one killed with ``SIGKILL`` and the recovered one), client spans and
request records from the load generator. Each metric is computed over
the phase that loads its layer; the docstring of :data:`LAYER_UNITS`
lists which end-to-end metric each one should move.

The ledger check: for every upload of the lowest ladder rung, every poll
and every tick, the client-side self time (round trip minus the server's
root span for that request) plus the self times of the server spans under
that root must equal the round trip. A server span outside the client's
window, or children double-counted, shows up as a gap; the median gap
per request kind must stay within :data:`LEDGER_TOLERANCE_PCT`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable

from perfbench.stats import percentile, self_times

#: Largest accepted median gap between a request's summed blocking-path
#: self times and its client-observed latency, in percent.
LEDGER_TOLERANCE_PCT = 5.0

#: Per-layer metric -> unit. Which end-to-end metric (and workload) each
#: should move:
#:
#: * ``session.*_per_report`` -> ``client_reports_per_s``;
#:   ``session.results_ms`` -> ``estimate_p50_ms`` (query).
#: * ``http.overhead_*`` -> ``upload_p50_ms``/``upload_p99_ms`` (ingest);
#:   ``http.refused``/``http.failed``/``upload_error_ratio`` ->
#:   ``sustained_uploads_per_s``.
#: * ``frames.*`` -> ``ingest_reports_per_s`` (ingest bulk phase).
#: * ``core.submit_*`` -> ``upload_p50_ms``/``upload_p99_ms``;
#:   ``core.queue_wait_*``, ``core.fold_*`` -> ``sustained_uploads_per_s``,
#:   ``ingest_reports_per_s``; ``core.flush_ms`` -> ``estimate_p50_ms``
#:   (query), ``tick_p50_ms`` (both).
#: * ``journal.append_us``/``commit_us``, ``dedup.lookup_us`` ->
#:   ``upload_p50_ms``; ``journal.checkpoint*``/``fsyncs`` ->
#:   ``upload_p99_ms``; ``journal.bytes_per_report`` ->
#:   ``ingest_reports_per_s``; ``journal.recovery_scan_s`` ->
#:   ``recovery_s``; ``journal.advance_us`` -> ``tick_p50_ms``.
#: * ``sharding.skew`` -> ``sustained_uploads_per_s``;
#:   ``sharding.merge_ms`` -> ``estimate_p50_ms``, ``tick_p50_ms``.
#: * ``server.*`` -> ``estimate_p50_ms`` (query).
#: * ``solver.*`` -> ``estimate_p50_ms``/``estimate_tail_ms`` (query),
#:   ``tick_p50_ms`` (both); ``solver.converged_ratio`` -> ``estimate_w1``.
#: * ``streaming.*`` -> ``tick_p50_ms``/``tick_tail_ms`` (both).
#: * ``loadgen.lag_p99_ms`` says whether the run is valid; it moves nothing.
LAYER_UNITS = {
    "session.privatize_us_per_report": "us",
    "session.to_feed_us_per_report": "us",
    "session.results_ms": "ms",
    "http.overhead_p50_ms": "ms",
    "http.overhead_p99_ms": "ms",
    "http.refused": "count",
    "http.failed": "count",
    "upload_error_ratio": "ratio",
    "frames.digest_us": "us",
    "frames.decode_us": "us",
    "frames.journal_encode_us": "us",
    "core.submit_p50_ms": "ms",
    "core.submit_p99_ms": "ms",
    "core.submit_self_ms": "ms",
    "core.queue_wait_p50_ms": "ms",
    "core.queue_wait_p99_ms": "ms",
    "core.fold_us_per_report": "us",
    "core.fold_busy_share.shard0": "ratio",
    "core.fold_busy_share.shard1": "ratio",
    "core.throttled": "count",
    "core.flush_ms": "ms",
    "journal.append_us": "us",
    "journal.commit_us": "us",
    "dedup.lookup_us": "us",
    "journal.checkpoint_ms": "ms",
    "journal.checkpoints": "count",
    "journal.fsyncs": "count",
    "journal.bytes_per_report": "bytes",
    "journal.recovery_scan_s": "s",
    "journal.advance_us": "us",
    "sharding.skew": "ratio",
    "sharding.merge_ms": "ms",
    "server.estimate_ms": "ms",
    "server.cache_hit_ratio": "ratio",
    "server.state_copy_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.iterations": "count",
    "solver.warm_ratio": "ratio",
    "solver.problems_per_call": "count",
    "solver.converged_ratio": "ratio",
    "streaming.tick_ms": "ms",
    "streaming.push_us": "us",
    "streaming.solves_skipped": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.upload_beside_poll_p50_ms": "ms",
    "ledger.upload_gap_pct": "%",
    "ledger.poll_gap_pct": "%",
    "ledger.tick_gap_pct": "%",
}

# Span tuple fields.
SID, NAME, START, END, PARENT, THREAD, RID, INFO = range(8)


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _dur(span: tuple) -> float:
    return span[END] - span[START]


def _union(spans: Iterable[tuple], lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Seconds covered by the union of span intervals, clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted((max(s[START], lo), min(s[END], hi)) for s in spans):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


class _Server:
    """Index over one server process's spans."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {s[SID]: s for s in spans}
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for s in spans:
            self.by_name[s[NAME]].append(s)
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)
        self.self_time = self_times([(s[SID], s[PARENT], s[START], s[END]) for s in spans])

    def subtree(self, root: tuple) -> list[tuple]:
        out, todo = [], [root]
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(self.children.get(span[SID], ()))
        return out

    def ancestor(self, span: tuple, name: str) -> tuple | None:
        parent = span[PARENT]
        while parent is not None:
            up = self.by_id.get(parent)
            if up is None:
                return None
            if up[NAME] == name:
                return up
            parent = up[PARENT]
        return None

    def per_rid(self, name: str, rids: set[str]) -> dict[str, float]:
        sums: dict[str, float] = defaultdict(float)
        for s in self.by_name.get(name, ()):
            if s[RID] in rids:
                sums[s[RID]] += _dur(s)
        return sums


def _per_upload_us(server: _Server, name: str, rids: set[str]) -> float:
    sums = server.per_rid(name, rids)
    return 1e6 * sum(sums.values()) / max(1, len(rids))


def _ledger_gap(server: _Server, client: list[Any], roots: list[tuple | None]) -> float:
    """Median percent gap between summed blocking-path self times and latency."""
    gaps = []
    for req, root in zip(client, roots):
        if root is None:
            gaps.append(100.0)
            continue
        latency = req.done - req.sent
        outside = max(0.0, req.sent - root[START]) + max(0.0, root[END] - req.done)
        client_self = latency - _dur(root)
        blocking = client_self + sum(server.self_time[s[SID]] for s in server.subtree(root))
        gaps.append(100.0 * (abs(blocking - latency) + outside) / latency)
    return _median(gaps)


def _containing(spans: list[tuple], req: Any) -> tuple | None:
    inside = [s for s in spans if req.sent <= s[START] and s[END] <= req.done]
    return max(inside, key=_dur) if inside else None


def layer_metrics(result: Any) -> dict[str, float]:
    """Every per-layer metric of :data:`LAYER_UNITS` for one traced pass."""
    live, recovered = (_Server(spans) for spans in result.server_spans)
    reqs = result.requests
    uploads = [r for r in reqs if r.kind == "upload"]
    low = [r for r in uploads if r.rid.startswith("l0-")]
    low_ids = {r.rid for r in low}
    bulk_ids = {r.rid for r in uploads if r.rid.startswith("bulk-")}
    polls = [r for r in reqs if r.kind == "poll"]
    ticks = [r for r in reqs if r.kind == "tick"]
    m: dict[str, float] = {}

    client = result.client_spans
    for op in ("privatize", "to_feed"):
        spans = [s for s in client if s[NAME] == f"session.{op}"]
        reports = sum(s[INFO]["n"] for s in spans)
        m[f"session.{op}_us_per_report"] = 1e6 * sum(map(_dur, spans)) / max(1, reports)
    polling = result.windows["poll"]

    def in_poll(span: tuple) -> bool:
        return any(lo <= span[START] <= hi for lo, hi in polling)

    m["session.results_ms"] = 1e3 * _median(
        _dur(s) for s in live.by_name["session.results"] if in_poll(s))

    submit = {s[RID]: s for s in live.by_name["core.submit"]}
    overhead = [1e3 * ((r.done - r.sent) - _dur(submit[r.rid])) for r in low if r.rid in submit]
    m["http.overhead_p50_ms"] = percentile(overhead, 50)
    m["http.overhead_p99_ms"] = percentile(overhead, 99)
    m["http.refused"] = sum(1 for r in uploads if r.status == 429)
    m["http.failed"] = sum(1 for r in uploads if not r.ok and r.status != 429)
    m["upload_error_ratio"] = (m["http.refused"] + m["http.failed"]) / max(1, len(uploads))

    # Map each shard-thread materialize back to the upload that enqueued it.
    enqueued: dict[int, list[tuple]] = defaultdict(list)
    for s in live.by_name["core.enqueue"]:
        enqueued[s[INFO]["block"]].append(s)
    waits, decode = [], defaultdict(float)
    shard_reports = 0
    for s in live.by_name["frames.materialize"]:
        if not s[THREAD].startswith("repro-shard"):
            continue
        shard_reports += s[INFO]["n"]
        before = [e for e in enqueued.get(s[INFO]["block"], ()) if e[END] <= s[START]]
        if before:
            source = max(before, key=lambda e: e[END])
            waits.append(1e3 * (s[START] - source[END]))
            decode[source[RID]] += _dur(s)
    for rid, seconds in live.per_rid("frames.iter_blocks", bulk_ids).items():
        decode[rid] += seconds
    m["frames.digest_us"] = _per_upload_us(live, "frames.digest", bulk_ids)
    m["frames.decode_us"] = 1e6 * sum(decode[r] for r in bulk_ids) / max(1, len(bulk_ids))
    m["frames.journal_encode_us"] = _per_upload_us(live, "frames.journal_encode", bulk_ids)

    low_submits = [submit[r] for r in low_ids if r in submit]
    m["core.submit_p50_ms"] = percentile((1e3 * _dur(s) for s in low_submits), 50)
    m["core.submit_p99_ms"] = percentile((1e3 * _dur(s) for s in low_submits), 99)
    m["core.submit_self_ms"] = 1e3 * _median(live.self_time[s[SID]] for s in low_submits)
    m["core.queue_wait_p50_ms"] = percentile(waits, 50)
    m["core.queue_wait_p99_ms"] = percentile(waits, 99)
    shard_ingest = [s for s in live.by_name["estimator.ingest"]
                    if s[THREAD].startswith("repro-shard") and s[PARENT] is None]
    m["core.fold_us_per_report"] = 1e6 * sum(map(_dur, shard_ingest)) / max(1, shard_reports)
    bulk = result.windows["bulk"]
    for shard in (0, 1):
        busy = [s for s in live.spans if s[THREAD] == f"repro-shard-{shard}"
                and s[NAME] in ("frames.materialize", "estimator.ingest")]
        m[f"core.fold_busy_share.shard{shard}"] = (
            sum(_union(busy, lo, hi) for lo, hi in bulk) / sum(hi - lo for lo, hi in bulk))
    m["core.throttled"] = sum(1 for s in live.by_name["core.submit"]
                              if s[INFO].get("error") == "ServiceOverloadError")
    m["core.flush_ms"] = 1e3 * _median(map(_dur, live.by_name["core.flush"]))

    m["journal.append_us"] = _per_upload_us(live, "journal.append", low_ids)
    m["journal.commit_us"] = _per_upload_us(live, "journal.commit", low_ids)
    m["dedup.lookup_us"] = _per_upload_us(live, "dedup.lookup", low_ids)
    m["journal.checkpoint_ms"] = 1e3 * _median(map(_dur, live.by_name["journal.checkpoint"]))
    m["journal.checkpoints"] = len(live.by_name["journal.checkpoint"])
    m["journal.fsyncs"] = len(live.by_name["journal.fsync"])
    accepted = sum(s[INFO].get("accepted", 0) for s in live.by_name["core.submit"]
                   if not s[INFO].get("replayed"))
    m["journal.bytes_per_report"] = (
        sum(s[INFO]["bytes"] for s in live.by_name["journal.append"]) / max(1, accepted))
    m["journal.recovery_scan_s"] = _union(
        s for name in ("journal.good_offset", "journal.replay", "journal.meta_read",
                       "journal.load_checkpoint")
        for s in recovered.by_name.get(name, ()) if s[THREAD] == "MainThread")
    m["journal.advance_us"] = 1e6 * _median(map(_dur, live.by_name["journal.meta_advance"]))

    shard_counts = [s["reports_ingested"] for s in result.statz["shards"]]
    m["sharding.skew"] = max(shard_counts) / max(1e-9, statistics.mean(shard_counts))
    requests = live.by_name["core.estimate"] + live.by_name["core.advance"]
    merge, copies = defaultdict(float), defaultdict(float)
    for name, acc in (("sharding.merge_tree", merge), ("server.to_state", copies),
                      ("server.from_state", copies)):
        for s in live.by_name.get(name, ()):
            top = live.ancestor(s, "core.estimate") or live.ancestor(s, "core.advance")
            if top is not None:
                acc[top[SID]] += _dur(s)
    m["sharding.merge_ms"] = 1e3 * _median(merge.get(s[SID], 0.0) for s in requests)
    m["server.state_copy_ms"] = 1e3 * _median(copies.get(s[SID], 0.0) for s in requests)

    wave = [s for s in live.by_name["server.estimate"] if s[INFO].get("wave")]
    solved = {a[SID] for s in live.by_name["solver.solve"]
              if (a := live.ancestor(s, "server.estimate")) is not None}
    m["server.estimate_ms"] = 1e3 * _median(_dur(s) for s in wave if in_poll(s))
    m["server.cache_hit_ratio"] = (
        sum(1 for s in wave if s[SID] not in solved) / max(1, len(wave)))

    solves = live.by_name["solver.solve"]
    problems = sum(s[INFO]["problems"] for s in solves)
    m["solver.solve_ms"] = 1e3 * _median(map(_dur, solves))
    m["solver.iterations"] = sum(s[INFO].get("iterations", 0) for s in solves) / max(1, problems)
    m["solver.warm_ratio"] = sum(1 for s in solves if s[INFO]["warm"]) / max(1, len(solves))
    m["solver.problems_per_call"] = problems / max(1, len(solves))
    m["solver.converged_ratio"] = (
        sum(s[INFO].get("converged", 0) for s in solves) / max(1, problems))

    tick_spans = live.by_name["streaming.tick"]
    m["streaming.tick_ms"] = 1e3 * _median(map(_dur, tick_spans))
    pushes = [s for s in live.by_name["streaming.push"]
              if live.by_id.get(s[PARENT], (None, None))[NAME] != "streaming.push"]
    m["streaming.push_us"] = 1e6 * _median(map(_dur, pushes))
    m["streaming.solves_skipped"] = sum(s[INFO].get("skipped", 0) for s in tick_spans)

    open_loop = [r for r in uploads if r.rid[:1] == "l" or r.rid.startswith("bg-")]
    m["loadgen.lag_p99_ms"] = percentile((1e3 * r.lag for r in open_loop), 99)
    m["loadgen.upload_beside_poll_p50_ms"] = percentile(
        (r.latency_ms for r in uploads if r.rid.startswith("bg-")), 50)

    m["ledger.upload_gap_pct"] = _ledger_gap(live, low, [submit.get(r.rid) for r in low])
    estimates = live.by_name["core.estimate"]
    m["ledger.poll_gap_pct"] = _ledger_gap(
        live, polls, [_containing(estimates, r) for r in polls])
    advances = live.by_name["core.advance"]
    m["ledger.tick_gap_pct"] = _ledger_gap(
        live, ticks, [_containing(advances, r) for r in ticks])
    return {name: float(m[name]) for name in LAYER_UNITS}
