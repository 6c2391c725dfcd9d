#!/usr/bin/env python3
"""Service benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload once against an untraced ``repro serve``
and prints every end-to-end metric, its durations and work rates read at
the reference host speed (see :mod:`perfbench.speed`; the values as
measured are among the notes). ``--trace 1`` runs it untraced, then
again with spans recorded in the server and in this load generator, and
prints every per-layer metric plus the tracing overhead (traced minus
untraced) of each end-to-end metric. Human-readable notes go to standard
output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness gate prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics and their units, in output order.
END_TO_END = {
    "setup_s": "s",
    "client_reports_per_s": "reports/s",
    "upload_p50_ms": "ms",
    "ingest_reports_per_s": "reports/s",
    "recovery_s": "s",
    "estimate_p50_ms": "ms",
    "tick_p50_ms": "ms",
    "server_peak_rss_mb": "MB",
}
#: Measured by every pass like the end-to-end metrics, but too unsteady
#: from run to run for any usable bound, so these are printed, from the
#: untraced pass, with the per-layer metrics: a p99 or tail over a few
#: hundred samples, or the top rung of a coarse rate ladder, swings with
#: the shared host's stalls; W1 to the truth swings with each seed's
#: privacy noise by about a quarter (it is still gated in every run).
UNBOUNDED = {
    "upload_p99_ms": "ms",
    "sustained_uploads_per_s": "uploads/s",
    "estimate_tail_ms": "ms",
    "tick_tail_ms": "ms",
    "estimate_w1": "unit_domain",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import GateError, run_pass
    from perfbench.ledger import LAYER_UNITS, LEDGER_TOLERANCE_PCT, layer_metrics
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}"
    passes = [False, True] if args.trace else [False]
    results = []
    try:
        for traced in passes:
            results.append(asyncio.run(run_pass(
                workload, args.seed, args.seconds,
                work.with_name(work.name + ("-traced" if traced else "")), traced)))
    except GateError as exc:
        print(f"correctness gate failed: {exc}")
        print(_result(False, 1, 1, {}))
        return 1
    except Exception:  # report, then exit without a result line
        traceback.print_exc()
        return 1

    last = results[-1]
    print(f"# environment: {_environment()}")
    for note in last.notes:
        print(f"# {note}")
    attempted = len(last.requests)
    failed = sum(1 for r in last.requests if not r.ok)
    if args.trace:
        base = results[0].metrics
        metrics = layer_metrics(last)
        for kind in ("upload", "poll", "tick"):
            gap = metrics[f"ledger.{kind}_gap_pct"]
            if not gap <= LEDGER_TOLERANCE_PCT:
                print(f"correctness gate failed: {kind} blocking-path self times miss "
                      f"the client latency by {gap:.2f}% (> {LEDGER_TOLERANCE_PCT}%)")
                print(_result(False, attempted, failed, {}))
                return 1
        for name in UNBOUNDED:
            metrics[name] = base[name]
        metrics["host.kernel_ms"] = base["host.kernel_ms"]
        for name in END_TO_END:
            metrics[f"overhead.{name}"] = last.metrics[name] - base[name]
        out = {name: {"value": value, "unit": _unit(name, LAYER_UNITS)}
               for name, value in metrics.items()}
    else:
        out = {name: {"value": last.metrics[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    print(_result(True, attempted, failed, out))
    return 0


def _environment() -> str:
    import platform

    import numpy

    from repro.engine.backend import effective_cpu_count

    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line.split(":", 1)[1].strip() for line in handle
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{effective_cpu_count()} effective cores, {model}, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def _unit(name: str, layer_units: dict[str, str]) -> str:
    if name.startswith("overhead."):
        return END_TO_END[name.removeprefix("overhead.")]
    if name == "host.kernel_ms":
        return "ms"
    return layer_units.get(name) or UNBOUNDED[name]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
