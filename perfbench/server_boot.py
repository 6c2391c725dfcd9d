"""Traced server bootstrap: wrap layer entry points, then run the CLI.

Usage: ``python perfbench/server_boot.py SPANS.json serve --plan ...``

Everything after the span path is handed to ``repro.cli.main`` unchanged,
so the traced server is the real ``repro serve`` with spans recorded
around the public functions of each layer (see :func:`instrument`). The
spans are written to ``SPANS.json`` on ``SIGTERM``, which then ends the
process, and on ``SIGUSR1``, which the benchmark sends just before a
``SIGKILL`` so the killed process's spans survive.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.trace import Tracer, wrap_function, wrap_method  # noqa: E402


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def instrument(tracer: Tracer) -> None:
    """Install spans around the server-side layer entry points."""
    import numpy as np

    import repro.cli  # noqa: F401  (loads every module the server uses)
    import repro.core.pipeline
    import repro.mean.scalar  # noqa: F401
    from repro.api.base import Estimator
    from repro.protocol.frames import FrameBlock
    from repro.protocol.server import CollectionServer
    from repro.service.core import ShardAggregator, ShardedCollector
    from repro.service.resilience import DedupLedger, MetaJournal, ShardJournal
    from repro.streaming.scheduler import StreamingCollector
    from repro.streaming.window import _WindowBase
    from repro.tasks.session import Session

    wave = repro.core.pipeline.WaveEstimator

    def m(cls: type, attr: str, name: str, **kw) -> None:
        wrap_method(tracer, cls, attr, name, **kw)

    def f(module: str, attr: str, name: str, **kw) -> None:
        wrap_function(tracer, module, attr, name, **kw)

    # service.core
    m(ShardedCollector, "submit", "core.submit",
      rid=lambda self, data, round_id, key=None: key,
      after=lambda r, *a, **k: {"accepted": r.accepted, "replayed": r.replayed})
    m(ShardedCollector, "flush", "core.flush")
    m(ShardedCollector, "estimate", "core.estimate")
    m(ShardedCollector, "advance_window", "core.advance")
    m(ShardedCollector, "window_estimate", "core.window_estimate")
    m(ShardedCollector, "checkpoint", "journal.checkpoint")
    m(ShardAggregator, "enqueue", "core.enqueue",
      before=lambda self, block, round_id: {"block": id(block)})
    m(FrameBlock, "materialize", "frames.materialize",
      before=lambda self: {"block": id(self)},
      after=lambda r, self: {"n": int(r.n)})
    for cls in _subclasses(Estimator):
        if "ingest" in cls.__dict__:
            m(cls, "ingest", "estimator.ingest")
    # protocol.frames
    f("repro.protocol.frames", "frame_digest", "frames.digest")
    f("repro.protocol.frames", "iter_frame_blocks", "frames.iter_blocks")
    f("repro.protocol.frames", "encode_frame_block", "frames.journal_encode")
    # service.resilience
    m(ShardJournal, "append", "journal.append",
      before=lambda self, key, segment: {"bytes": len(segment)})
    m(ShardJournal, "good_offset", "journal.good_offset")
    m(ShardJournal, "replay", "journal.replay")
    m(MetaJournal, "commit", "journal.commit")
    m(MetaJournal, "advance", "journal.meta_advance")
    m(MetaJournal, "read", "journal.meta_read")
    m(DedupLedger, "lookup", "dedup.lookup")
    f("repro.service.resilience", "load_checkpoint", "journal.load_checkpoint")
    f("os", "fsync", "journal.fsync")
    # service.sharding
    f("repro.service.sharding", "merge_tree", "sharding.merge_tree")
    # protocol.server
    m(CollectionServer, "estimate", "server.estimate",
      before=lambda self: {"attr": self.attr,
                           "wave": isinstance(self.estimator, wave)})
    m(CollectionServer, "to_state", "server.to_state")
    m(CollectionServer, "from_state", "server.from_state")
    f("repro.protocol.server", "estimate_rounds", "server.estimate_rounds")

    # engine.solver
    def solve_before(matrix, counts, **kw):
        shape = np.shape(counts)
        return {"problems": int(shape[1]) if len(shape) == 2 else 1,
                "warm": kw.get("x0") is not None}

    f("repro.engine.solver", "batched_expectation_maximization", "solver.solve",
      before=solve_before,
      after=lambda r, *a, **k: {"iterations": int(np.sum(r.iterations)),
                                "converged": int(np.sum(r.converged))})
    # streaming
    m(StreamingCollector, "tick", "streaming.tick",
      after=lambda r, *a, **k: {"skipped": r.skipped, "solved": r.solved})
    for cls in [_WindowBase, *_subclasses(_WindowBase)]:
        if "push" in cls.__dict__:
            m(cls, "push", "streaming.push")
    # tasks.session (server-side task report)
    m(Session, "results", "session.results")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)

    def dump(*_: object) -> None:
        tmp = f"{spans_path}.tmp"
        tracer.dump(tmp)
        os.replace(tmp, spans_path)

    def dump_and_exit(*_: object) -> None:
        # An exception raised from a signal handler can land anywhere in the
        # server's shutdown path; writing the spans and leaving at once is
        # what the untraced server's default SIGTERM action amounts to.
        dump()
        os._exit(0)

    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGTERM, dump_and_exit)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
