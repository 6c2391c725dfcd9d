"""One pass of a workload against a real ``repro serve`` process.

:class:`Pass` spawns the server (through :mod:`perfbench.server_boot`
when traced), drives it over HTTP from this single process with at most
two keep-alive connections, and records what every request saw:

1. ``setup`` — ``SETUP_SPAWNS`` spawns on fresh journal directories, each
   timed to the first ``200`` from ``/healthz``; the last stays up as the
   main service.
2. ``CYCLES`` cycles, each: ``low`` — open-loop ~200-report uploads at
   ``LOW_RATE``, timed from each upload's due time; ``client`` —
   ``Session.privatize`` + ``to_feed`` on one thread; ``bulk`` —
   closed-loop ~20k-report uploads on two connections; ``poll`` —
   estimate polls of fresh rounds on one connection while the other
   uploads the next; ``ticks`` — rounds of uploads, each followed by
   ``advance`` and a windowed-estimate read.
3. ``ladder`` — the higher open-loop rates, once each.
4. ``recovery`` — a second service on a fresh journal takes the check
   round and a few stream rounds, then is killed with ``SIGKILL`` and
   restarted on the same journal directory ``recoveries`` times, each
   restart timed to the first ``200`` from ``/healthz``.
5. ``check`` — gates: exact counts, bit-identity of the check round with
   an in-process 1-shard collector, bit-identity across the kills, W1 to
   the truth, and no failed or refused upload.

The host's speed is probed between phases and between requests
(:mod:`perfbench.speed`), and every duration and work rate is reported at
the reference speed; the values as measured go to the notes.

Frames are synthesized from the seed before any timed phase; uploads
reuse a pool of frames under distinct ``Idempotency-Key`` values.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench.stats import (
    TAIL_MIN_BEYOND,
    Rung,
    empirical_histogram,
    percentile,
    sustained_rate,
    tail_percentile,
    w1_histogram,
)
from perfbench.speed import HostSpeed
from perfbench.trace import Tracer
from perfbench.workloads import (
    BULK_UPLOADS_PER_S,
    BULK_USERS,
    CHECK_USERS,
    CYCLES,
    LOW_RATE,
    P99_LIMIT_MS,
    RECOVERY_TICKS,
    RUNG_FRACTION,
    RUNGS,
    SMALL_USERS,
    TICK_FRAMES,
    WINDOW,
    Workload,
)
from repro.service import ServiceConfig, ShardedCollector
from repro.service.loadgen import http_request
from repro.tasks.session import Session

ROOT = Path(__file__).resolve().parent.parent
#: Keep-alive connections the generator opens at most (the runner's cores).
CONNECTIONS = 2
SETUP_SPAWNS = 5
SMALL_POOL = 300
BULK_POOL = 12
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 120.0
#: One poll in this many reads a finished round (no new reports).
QUIET_POLL_EVERY = 5

#: An open-loop sender sleeps until this long before an upload is due,
#: then spins, so uploads leave on time.
SPIN_S = 0.0015

now = time.perf_counter


@dataclass
class Frame:
    """One pooled upload: its RPF2 encoding per round id, and its counts."""

    bodies: dict[str, bytes]
    n: int
    per_attr: dict[str, int]


@dataclass
class Request:
    """One HTTP request as the generator saw it."""

    kind: str
    rid: str
    due: float
    sent: float
    done: float
    status: int | None
    lag: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (200, 202)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class GateError(Exception):
    """A correctness gate failed."""


class Conn:
    """One keep-alive HTTP/1.1 connection over ``loadgen.http_request``."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(
        self, method: str, path: str, body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> tuple[int | None, bytes]:
        try:
            status, payload, self._reader, self._writer = await asyncio.wait_for(
                http_request(
                    self.host, self.port, method, path, body=body,
                    headers=headers, reader=self._reader, writer=self._writer,
                ),
                REQUEST_TIMEOUT_S,
            )
        except (ConnectionError, asyncio.IncompleteReadError, OSError,
                asyncio.TimeoutError):
            await self.close()
            return None, b""
        return status, payload

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class Server:
    """A ``repro serve`` child process."""

    def __init__(self, work: Path, plan_path: Path, window: int, spans: Path | None) -> None:
        self.work, self.plan_path, self.window, self.spans = work, plan_path, window, spans
        self.proc: asyncio.subprocess.Process | None = None
        self.host, self.port = "127.0.0.1", 0
        self._log = None

    async def start(self, journal_dir: Path) -> float:
        """Spawn and wait for the first ``200`` from ``/healthz``; seconds."""
        args = ["serve", "--plan", str(self.plan_path), "--port", "0",
                "--journal-dir", str(journal_dir), "--window", str(self.window)]
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "server_boot.py"),
                   str(self.spans), *args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(self.work / "server.log", "ab")
        started = now()
        self.proc = await asyncio.create_subprocess_exec(
            *cmd, stdout=asyncio.subprocess.PIPE, stderr=self._log,
            env=env, cwd=str(self.work),
        )
        assert self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), SERVER_START_TIMEOUT_S)
        found = re.search(rb"http://([0-9.]+):(\d+)", line)
        if found is None:
            raise RuntimeError(f"server did not report its address: {line!r}")
        self.host, self.port = found.group(1).decode(), int(found.group(2))
        deadline = started + SERVER_START_TIMEOUT_S
        while now() < deadline:
            conn = Conn(self.host, self.port)
            status, _ = await conn.request("GET", "/healthz")
            await conn.close()
            if status == 200:
                return now() - started
            await asyncio.sleep(0.002)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    async def dump_spans(self) -> None:
        """Ask a traced server to write its spans now (before a SIGKILL)."""
        assert self.proc is not None and self.spans is not None
        self.proc.send_signal(signal.SIGUSR1)
        deadline = now() + 60.0
        while not self.spans.exists():
            if now() > deadline:
                raise RuntimeError("traced server never wrote its spans")
            await asyncio.sleep(0.01)

    async def stop(self, sig: int = signal.SIGTERM) -> None:
        proc, self.proc = self.proc, None
        if proc is not None and proc.returncode is None:
            proc.send_signal(sig)
            try:
                await asyncio.wait_for(proc.wait(), 60.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


@dataclass(repr=False)  # asyncio.run reprs the finished task; keep it cheap
class PassResult:
    metrics: dict[str, float]
    notes: list[str]
    requests: list[Request]
    windows: dict[str, list[tuple[float, float]]]
    statz: dict[str, Any]
    client_spans: list[tuple]
    server_spans: list[list[tuple]]


class Pass:
    """One run of ``workload`` with seed ``seed`` over ``seconds``."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path,
                 traced: bool) -> None:
        self.w, self.seed, self.seconds, self.work, self.traced = (
            workload, seed, seconds, work, traced)
        self.session = Session(workload.plan)
        self.requests: list[Request] = []
        self.windows: dict[str, list[tuple[float, float]]] = {}
        self.acked: dict[str, dict[str, int]] = {}
        self.notes: list[str] = []
        self.tracer = Tracer()
        self.speed = HostSpeed()
        self._keys = 0
        self._polls = 0
        self._synthesize()

    # -- inputs ------------------------------------------------------------
    def _frame(self, gen: np.random.Generator, values: dict[str, np.ndarray],
               rounds: tuple[str, ...]) -> Frame:
        reports = self.session.privatize(values, rng=gen)
        bodies = {r: self.session.to_feed(reports, r, format="frame") for r in rounds}
        per_attr = {name: len(batch) for name, batch in reports.items()}
        return Frame(bodies, sum(per_attr.values()), per_attr)

    def _synthesize(self) -> None:
        w = self.w
        gen = np.random.default_rng(self.seed)
        self.small = [self._frame(gen, w.values(gen, SMALL_USERS), ("main",))
                      for _ in range(SMALL_POOL)]
        self.bulk = [self._frame(gen, w.values(gen, BULK_USERS), ("main", "quiet"))
                     for _ in range(BULK_POOL)]
        self.n_polls = CYCLES * max(3, round(w.polls * self.seconds / 10.0 / CYCLES))
        self.polled = [self._frame(gen, w.values(gen, BULK_USERS), (f"poll-{i}",))
                       for i in range(self.n_polls)]
        self.client_values = w.values(gen, BULK_USERS)
        self.n_ticks = CYCLES * max(3, round(w.tick_rounds * self.seconds / 10.0 / CYCLES))
        per_frame = w.tick_users // TICK_FRAMES
        self.tick_frames = [
            [self._frame(gen, {k: v[i * per_frame:(i + 1) * per_frame] for k, v in vals.items()},
                         (f"tick-{t}",))
             for i in range(TICK_FRAMES)]
            for t, vals in enumerate(w.values(gen, w.tick_users) for _ in range(self.n_ticks))
        ]
        check_values = w.values(gen, CHECK_USERS)
        self.truth = check_values
        self.check = [
            self._frame(gen, {k: v[i:i + BULK_USERS] for k, v in check_values.items()},
                        ("check",))
            for i in range(0, CHECK_USERS, BULK_USERS)
        ]

    # -- request plumbing --------------------------------------------------
    def _key(self, tag: str) -> str:
        self._keys += 1
        return f"{tag}-{self.seed}-{self._keys}"

    async def _upload(self, conn: Conn, round_id: str, frame: Frame, tag: str,
                      due: float, free_at: float) -> Request:
        body = frame.bodies[round_id]
        rid = self._key(tag)
        sent = now()
        status, payload = await conn.request(
            "POST", f"/v1/rounds/{round_id}/reports", body,
            headers={"Idempotency-Key": rid},
        )
        done = now()
        req = Request("upload", rid, due, sent, done, status,
                      lag=max(0.0, sent - max(due, free_at)))
        if status == 202:
            accepted = json.loads(payload)["accepted"]
            if accepted != frame.n:
                raise GateError(f"upload {rid} accepted {accepted} of {frame.n} reports")
            counts = self.acked.setdefault(round_id, {})
            for attr, n in frame.per_attr.items():
                counts[attr] = counts.get(attr, 0) + n
        elif status == 200:
            req.status = -200  # a replay ack for a fresh key is wrong
        self.requests.append(req)
        return req

    async def _timed(self, conn: Conn, kind: str, method: str, path: str) -> tuple[Request, Any]:
        sent = now()
        status, payload = await conn.request(method, path)
        req = Request(kind, path, sent, sent, now(), status)
        self.requests.append(req)
        body = json.loads(payload) if status == 200 else None
        return req, body

    def _window(self, phase: str, start: float, end: float) -> None:
        self.windows.setdefault(phase, []).append((start, end))

    # -- phases ------------------------------------------------------------
    def phase_client(self, duration: float) -> tuple[int, float, float]:
        """Client privatize + encode on this thread: ``(reports, busy s,
        start)``."""
        gen = np.random.default_rng(self.seed + len(self.windows.get("client", ())))
        reports, busy = 0, 0.0
        started = now()
        while now() - started < duration or reports == 0:
            t0 = now()
            if self.traced:
                size = {"n": BULK_USERS}
                batch = self.tracer.call("session.privatize", self.session.privatize,
                                         (self.client_values,), {"rng": gen},
                                         before=lambda *a, **k: size)
                self.tracer.call("session.to_feed", self.session.to_feed,
                                 (batch, "client"), {"format": "frame"},
                                 before=lambda *a, **k: size)
            else:
                batch = self.session.privatize(self.client_values, rng=gen)
                self.session.to_feed(batch, "client", format="frame")
            busy += now() - t0
            reports += BULK_USERS
            self.speed.due()
        self._window("client", started, now())
        return reports, busy, started

    async def open_loop(self, conns: list[Conn], round_id: str, frames: list[Frame],
                        rate: float, duration: float, tag: str) -> tuple[Rung, list[Request]]:
        """Upload ``frames`` in turn to ``round_id`` at ``rate`` for
        ``duration`` seconds, each timed from when it was due."""
        n = max(1, round(rate * duration))
        t0 = now() + 0.005
        end = t0 + n / rate
        state = {"next": 0}
        out: list[Request] = []

        async def worker(conn: Conn) -> None:
            free_at = now()
            while state["next"] < n:
                index = state["next"]
                state["next"] += 1
                due = t0 + index / rate
                delay = due - now()
                if delay > SPIN_S:
                    await asyncio.sleep(delay - SPIN_S)
                while now() < due:  # the loop's timer wakes up to 1 ms late
                    pass
                out.append(await self._upload(
                    conn, round_id, frames[index % len(frames)], tag, due, free_at))
                free_at = now()

        async def backlog() -> int:
            await asyncio.sleep(max(0.0, end - now()))
            return n - sum(1 for r in out if r.done <= end)

        *_, pending = await asyncio.gather(*(worker(c) for c in conns), backlog())
        ok = [r for r in out if r.ok]
        last = max((r.done for r in out), default=end)
        rung = Rung(
            rate_per_s=rate,
            attempted=len(out),
            failed=len(out) - len(ok),
            p99_ms=percentile([r.latency_ms for r in out], 99),
            backlog=pending,
            achieved_per_s=len(ok) / max(last - t0, 1e-9),
        )
        self._window(tag, t0, last)
        return rung, out

    async def phase_rung(self, conns: list[Conn], index: int, length: float,
                         rungs: list[tuple[Rung, list[Request]]]) -> None:
        """One open-loop attempt at ``RUNGS[index]`` for ``length`` s."""
        rate = RUNGS[index]
        rung, reqs = await self.open_loop(conns, "main", self.small, rate, length, f"l{index}")
        rungs.append((rung, reqs))
        self.notes.append(
            f"rung {rate:g}/s: {rung.attempted} sent, {rung.failed} failed, "
            f"p99 {rung.p99_ms:.2f} ms, backlog {rung.backlog}, "
            f"achieved {rung.achieved_per_s:.1f}/s")

    async def phase_bulk(self, conns: list[Conn], uploads: int) -> tuple[int, float, float]:
        """Closed loop: a fixed count of large uploads, so the main round
        and its journal grow alike on every run; returns
        ``(reports accepted, seconds, start)``."""
        started = now()
        state = {"i": 0}

        async def worker(conn: Conn) -> int:
            accepted = 0
            while state["i"] < uploads:
                frame = self.bulk[state["i"] % len(self.bulk)]
                state["i"] += 1
                t = now()
                req = await self._upload(conn, "main", frame, "bulk", t, t)
                accepted += frame.n if req.status == 202 else 0
            return accepted

        totals = await asyncio.gather(*(worker(c) for c in conns))
        last = max(r.done for r in self.requests[-uploads:])
        self._window("bulk", started, last)
        return sum(totals), last - started, started

    async def seed_quiet_round(self, conns: list[Conn]) -> None:
        """Fill the finished round and solve it once before timing."""
        for frame in self.bulk[:2]:
            t = now()
            await self._upload(conns[0], "quiet", frame, "seed", t, t)
        req, _ = await self._timed(conns[1], "warmup", "POST", "/v1/rounds/quiet/estimate")
        if req.status != 200:
            raise GateError(f"warm-up estimate of the quiet round returned {req.status}")

    async def phase_poll(self, conns: list[Conn], rounds: range) -> list[Request]:
        """Closed-loop polls, each beside the upload of the next round.

        An analyst opens each round's dashboard as soon as its reports are
        in, so every poll of a fresh round solves from scratch, while one
        connection already uploads the round polled next; every fifth poll
        re-reads the finished round instead and solves nothing. (EM warm
        started after a small upload takes anywhere from a few to a
        hundred iterations, and which changes with the seed; a cold solve
        takes about the same on every seed.)
        """
        uploader, poller = conns
        polls: list[Request] = []
        started = now()

        async def upload(index: int) -> None:
            if index < rounds.stop:
                t = now()
                await self._upload(uploader, f"poll-{index}", self.polled[index], "bg", t, t)

        await upload(rounds.start)
        for index in rounds:
            while True:
                self._polls += 1
                quiet = self._polls % QUIET_POLL_EVERY == 0
                round_id = "quiet" if quiet else f"poll-{index}"
                (req, _), _ = await asyncio.gather(
                    self._timed(poller, "poll", "POST", f"/v1/rounds/{round_id}/estimate"),
                    upload(index + 1) if not quiet else asyncio.sleep(0))
                polls.append(req)
                self.speed.due()
                if not quiet:
                    break
        self._window("poll", started, now())
        return polls

    async def phase_ticks(self, conns: list[Conn], rounds: range) -> list[Request]:
        ticks: list[Request] = []
        started = now()
        for index in rounds:
            round_id = f"tick-{index}"
            t = now()
            await asyncio.gather(*(
                self._upload(conns[j % len(conns)], round_id, frame, "tick", t, t)
                for j, frame in enumerate(self.tick_frames[index])))
            req, _ = await self._timed(conns[0], "tick", "POST", f"/v1/rounds/{round_id}/advance")
            ticks.append(req)
            self.speed.due()
            await self._timed(conns[0], "window", "GET", "/v1/stream/estimate")
        self._window("ticks", started, now())
        return ticks

    # -- gates ---------------------------------------------------------------
    def _check_counts(self, round_id: str, body: dict) -> None:
        expected = self.acked.get(round_id, {})
        got = {a: n for a, n in body["n_reports"].items() if n}
        if got != expected:
            raise GateError(f"round {round_id}: server counts {got} != sent {expected}")

    def _reference_round(self) -> dict[str, Any]:
        config = ServiceConfig(plan=self.w.plan, n_shards=1)
        with ShardedCollector(config) as collector:
            for i, frame in enumerate(self.check):
                collector.submit(frame.bodies["check"], "check", key=f"c{i}")
                collector.flush()  # keep within the queue bound
            return collector.estimate("check")

    def _w1(self, estimates: dict[str, Any]) -> float:
        values = []
        for attr in self.w.distribution_attrs:
            spec = self.w.plan.attribute(attr)
            truth = empirical_histogram(self.truth[attr], spec.low, spec.high, spec.d)
            values.append(w1_histogram(estimates[attr], truth, spec.span / spec.d))
        return float(np.mean(values))

    # -- the pass --------------------------------------------------------------
    def _mark(self, label: str) -> None:
        self.notes.append(f"{label} done at {now() - self._t0:.2f} s")

    async def phase_recovery(
        self, server: Callable[[str], Server],
    ) -> tuple[list[tuple[float, float]], dict[str, Any]]:
        """Fill a fresh service with the check round and a few stream
        rounds, then kill and restart it ``recoveries`` times.

        Returns each restart's ``(seconds, start)`` to the first ``200``
        from ``/healthz`` and the check round's served estimate; raises
        :class:`GateError` when anything read after a restart differs
        from before the first kill.
        """
        journal = self.work / "journal-recovery"
        srv = server("recovery")
        await srv.start(journal)
        conn = Conn(srv.host, srv.port)
        try:
            for frame in self.check:
                t = now()
                await self._upload(conn, "check", frame, "check", t, t)
            for index in range(RECOVERY_TICKS):
                for frame in self.tick_frames[index]:
                    t = now()
                    await self._upload(conn, f"tick-{index}", frame, "rtick", t, t)
                req, _ = await self._timed(conn, "final", "POST", f"/v1/rounds/tick-{index}/advance")
                if req.status != 200:
                    raise GateError(f"advance on the recovery service returned {req.status}")
            _, served = await self._timed(conn, "final", "POST", "/v1/rounds/check/estimate")
            _, window = await self._timed(conn, "final", "GET", "/v1/stream/estimate")
            if served is None or window is None:
                raise GateError("estimate on the recovery service failed")
            self._check_counts("check", served)
            seconds = []
            self.speed.probe()
            for index in range(self.w.recoveries):
                await conn.close()
                if self.traced:
                    await srv.dump_spans()
                await srv.stop(signal.SIGKILL)
                srv = server(f"recovered{index}")
                at = now()
                seconds.append((await srv.start(journal), at))
                self.speed.probe()
                conn = Conn(srv.host, srv.port)
                _, after = await self._timed(conn, "final", "POST", "/v1/rounds/check/estimate")
                _, window_after = await self._timed(conn, "final", "GET", "/v1/stream/estimate")
                if after is None or window_after is None:
                    raise GateError("estimate after recovery failed")
                if (after["estimates"], after["n_reports"]) != (
                        served["estimates"], served["n_reports"]):
                    raise GateError("estimate after SIGKILL + recovery differs from before")
                if window_after["estimates"] != window["estimates"]:
                    raise GateError("windowed estimate after recovery differs from before")
            await conn.close()
            await srv.stop()
        finally:
            await conn.close()
        return seconds, served

    async def run(self) -> PassResult:
        w = self.w
        self._t0 = now()
        plan_path = self.work / "plan.json"
        plan_path.write_text(w.plan.to_json())
        cycle = {k: self.seconds * v / CYCLES for k, v in w.shares.items()}
        metrics: dict[str, float] = {}
        servers: list[Server] = []

        def server(name: str) -> Server:
            spans = self.work / f"spans-{name}.json" if self.traced else None
            srv = Server(self.work, plan_path, WINDOW, spans)
            servers.append(srv)
            return srv

        conns: list[Conn] = []
        try:
            probe = self.speed.probe
            setups = []
            probe()
            for index in range(SETUP_SPAWNS):
                srv = server(f"setup{index}")
                at = now()
                setups.append((await srv.start(self.work / f"journal-{index}"), at))
                probe()
                if index < SETUP_SPAWNS - 1:
                    await srv.stop()
            main = servers[-1]
            self.notes.append("setup " + ", ".join(f"{t:.3f}" for t, _ in setups) + " s")
            conns = [Conn(main.host, main.port) for _ in range(CONNECTIONS)]
            await self.seed_quiet_round(conns)
            # Untimed warm-up of the upload and client paths.
            await self.open_loop(conns, "main", self.small, LOW_RATE, 0.2, "warm")
            self.phase_client(0.1)
            self.windows.clear()
            # CPU speed on a shared host drifts and stalls over seconds, so
            # the phases take turns in short cycles and each metric pools
            # (or takes the median over) all of its cycles.
            per_cycle = len(self.tick_frames) // CYCLES
            polls_per_cycle = self.n_polls // CYCLES
            rungs: list[tuple[Rung, list[Request]]] = []
            client, bulk, polls, ticks = [], [], [], []
            # The host's speed is probed at every phase boundary.
            for part in range(CYCLES):
                probe()
                await self.phase_rung(conns, 0, cycle["low"], rungs)
                probe()
                client.append(self.phase_client(cycle["client"]))
                probe()
                bulk.append(await self.phase_bulk(
                    conns, round(cycle["bulk"] * BULK_UPLOADS_PER_S)))
                probe()
                polls += await self.phase_poll(
                    conns, range(part * polls_per_cycle, (part + 1) * polls_per_cycle))
                probe()
                ticks += await self.phase_ticks(
                    conns, range(part * per_cycle, (part + 1) * per_cycle))
            probe()
            # The higher rates run once, last, so the backlog they may build
            # cannot leak into any other phase's samples.
            for index in range(1, len(RUNGS)):
                await self.phase_rung(conns, index, self.seconds * RUNG_FRACTION, rungs)
            low = [r for rung, reqs in rungs if rung.rate_per_s == LOW_RATE for r in reqs]
            metrics["sustained_uploads_per_s"] = sustained_rate(
                [rung for rung, _ in rungs], P99_LIMIT_MS, CONNECTIONS)
            self._mark("timed phases")
            for kind, reqs in (("estimate", polls), ("tick", ticks)):
                if not all(r.ok for r in reqs):
                    raise GateError(f"{sum(not r.ok for r in reqs)} {kind} requests failed")
                if len(reqs) <= TAIL_MIN_BEYOND:
                    raise GateError(f"only {len(reqs)} {kind} samples; the tail needs 11")
            timings = {
                "setup_s": ("median", setups),
                "upload": ("latency", [(r.latency_ms, r.due) for r in low]),
                "estimate": ("latency", [(r.latency_ms, r.sent) for r in polls]),
                "tick": ("latency", [(r.latency_ms, r.sent) for r in ticks]),
                "client_reports_per_s": ("busy", client),
                "ingest_reports_per_s": ("busy", bulk),
            }

            _, statz = await self._timed(conns[0], "statz", "GET", "/statz")
            metrics["server_peak_rss_mb"] = main.peak_rss_mb()
            if statz is None:
                raise GateError("/statz failed")
            for round_id in ("main", "quiet", *(f"poll-{i}" for i in range(self.n_polls))):
                _, body = await self._timed(conns[0], "final", "POST", f"/v1/rounds/{round_id}/estimate")
                if body is None:
                    raise GateError(f"final estimate of {round_id} failed")
                self._check_counts(round_id, body)
            for conn in conns:
                await conn.close()
            await main.stop()

            recoveries, served = await self.phase_recovery(server)
            timings["recovery_s"] = ("mean", recoveries)
            self.notes.append("recovery " + ", ".join(f"{t:.3f}" for t, _ in recoveries) + " s")
            self.notes.append(f"{len(polls)} estimate and {len(ticks)} tick samples; "
                              f"tails at p{tail_percentile(range(len(polls)))[0]:.1f} and "
                              f"p{tail_percentile(range(len(ticks)))[0]:.1f}")

            reference = self._reference_round()
            self._mark("recovery + check round + reference")
            if (served["estimates"], served["n_reports"]) != (
                    reference["estimates"], reference["n_reports"]):
                raise GateError("served estimate differs from the in-process 1-shard collector")
            metrics["estimate_w1"] = self._w1(served["estimates"])
            if not metrics["estimate_w1"] <= w.w1_bound:
                raise GateError(f"estimate_w1 {metrics['estimate_w1']:.5f} > bound {w.w1_bound}")
            uploads = [r for r in self.requests if r.kind == "upload"]
            failed = [r for r in uploads if not r.ok]
            if failed:
                raise GateError(f"{len(failed)} of {len(uploads)} uploads failed or were refused")
            metrics.update(_timings(timings, self.speed))
            metrics["host.kernel_ms"] = 1e3 * statistics.median(self.speed.kernel_s)
            self.notes.append(
                f"host speed: median kernel {metrics['host.kernel_ms']:.4f} ms over "
                f"{len(self.speed.kernel_s)} probes; timings as measured: "
                + json.dumps(_timings(timings, None)))
        finally:
            for conn in conns:
                await conn.close()
            for srv in servers:
                await srv.stop(signal.SIGKILL)
        server_spans = []
        if self.traced:
            for name in (f"setup{SETUP_SPAWNS - 1}", f"recovered{w.recoveries - 1}"):
                with open(self.work / f"spans-{name}.json", encoding="utf-8") as handle:
                    server_spans.append([tuple(s) for s in json.load(handle)])
        return PassResult(metrics, self.notes, self.requests, self.windows, statz,
                          list(self.tracer.spans), server_spans)


def _timings(timings: dict[str, tuple[str, list[tuple]]],
             speed: HostSpeed | None) -> dict[str, float]:
    """Timing metrics from samples stamped with when they were taken, read
    at the reference host speed (as measured when ``speed`` is None).

    ``median``/``mean`` entries hold ``(seconds, at)``; ``busy`` entries
    ``(amount, seconds, at)`` and give total amount over total seconds;
    a ``latency`` entry ``x`` holds ``(ms, at)`` and gives ``x_p50_ms``
    and ``x_tail_ms`` (for uploads, ``upload_p99_ms``).
    """
    def duration(value: float, at: float) -> float:
        return value if speed is None else speed.duration(value, at)

    out: dict[str, float] = {}
    for name, (stat, samples) in timings.items():
        if stat == "busy":
            out[name] = (sum(n for n, _, _ in samples)
                         / sum(duration(t, at) for _, t, at in samples))
            continue
        values = [duration(v, at) for v, at in samples]
        if stat == "median":
            out[name] = statistics.median(values)
        elif stat == "mean":
            out[name] = statistics.fmean(values)
        else:
            out[f"{name}_p50_ms"] = percentile(values, 50)
            if name == "upload":
                out["upload_p99_ms"] = percentile(values, 99)
            else:
                out[f"{name}_tail_ms"] = tail_percentile(values)[1]
    return out


async def run_pass(workload: Workload, seed: int, seconds: float, work: Path,
                   traced: bool) -> PassResult:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return await Pass(workload, seed, seconds, work, traced).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
