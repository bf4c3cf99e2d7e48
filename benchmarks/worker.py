"""One benchmark process: set up, generate, warm up, measure, check.

Started by ``run.py`` in a fresh interpreter; prints one JSON object on
its last stdout line.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import boxworld  # noqa: E402
import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES_SHOWN = 5


def _round_builder(name: str, seed: int, inproc: bool, folder: Path):
    if name == "ladder":
        return lambda i: wl.ladder_round(seed, i)
    if name == "codes":
        words = wl.Codewords(seed)
        return lambda i: wl.codes_round(seed, i, words)
    runner = wl.CliRunner(ROOT, inproc)
    return lambda i: wl.cli_round(seed, i, folder, runner)


def warm_up(ops: list[wl.Op]) -> None:
    """One untimed operation of each kind and size, to fill lazy caches."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def measure(build, recorder: tracer.Recorder | None, rounds: int | None = None, seconds: float | None = None):
    """Closed loop over whole rounds, timing each operation alone.

    Runs ``rounds`` rounds, or, given ``seconds``, starts another round
    while at least half of one, at the mean wall time of the rounds so
    far (generation and checks included), fits in ``seconds``.  Whole
    rounds keep the mix of a run the same as the mix of a round.
    """
    records = []  # (round, kind, seconds, failure or None)
    clock = time.perf_counter
    began = clock()
    for index in itertools.count():
        if rounds is not None and index >= rounds:
            break
        if seconds is not None and index and (clock() - began) * (index + 0.5) / index > seconds:
            break
        for op in build(index).ops:
            error = None
            if recorder is not None:
                recorder.op = len(records)
                recorder.active = True
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            if recorder is not None:
                recorder.active = False
            if error is None:
                error = op.check(result)
            records.append((index, op.kind, elapsed, error))
    return records


def summarize(records) -> dict:
    by_kind: dict[str, list[float]] = {}
    by_round: dict[int, list[float]] = {}
    for index, kind, t, _ in records:
        by_kind.setdefault(kind, []).append(1e3 * t)
        by_round.setdefault(index, []).append(1e3 * t)
    op_ms = [1e3 * t for _, _, t, _ in records]
    failures = [f"{kind}: {err}" for _, kind, _, err in records if err is not None]
    busy_s = sum(op_ms) / 1e3
    out = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:FAILURES_SHOWN],
        "busy_s": busy_s,
        # The host switches between a fast and a slow state (about 1.7x
        # apart) every few seconds to minutes.  A total, or an average of
        # per-round figures, follows the share of the run spent in each
        # state; a median over the whole run jumps to whichever state held
        # the majority.  Every round has the same mix, so each round's
        # median estimates the same median latency.
        "ops_per_s": len(records) / busy_s,
        "op_p50_ms": statistics.fmean(statistics.median(v) for v in by_round.values()),
        "kind_p50_ms": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    # The 90th percentile needs ten samples beyond it.
    if len(op_ms) >= 100:
        out["op_p90_ms"] = statistics.quantiles(op_ms, n=10)[-1]
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("ladder", "codes", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, help="run this many rounds (traced runs: repeatable counts)")
    parser.add_argument("--seconds", type=float, help="run whole rounds for about this long")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--inproc", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    if not args.setup_only and (args.rounds is None) == (args.seconds is None):
        parser.error("give exactly one of --rounds and --seconds")

    if not Path(boxworld.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"boxworld imported from {boxworld.__file__}, not from this checkout", file=sys.stderr)
        return 2
    folder = Path(args.scratch)
    folder.mkdir(parents=True, exist_ok=True)
    try:
        clock = time.monotonic
        generation = clock()
        build = _round_builder(args.workload, args.seed, bool(args.inproc), folder)
        warm = build(None)
        generation = clock() - generation
        if args.workload != "cli":
            warm_up(warm.ops)
        # The spawn time comes from the parent's monotonic clock, which
        # is system-wide on Linux, so interpreter start-up is included.
        out = {"setup_s": clock() - args.spawned_at - generation, "numpy": np.__version__}
        if not args.setup_only:
            first = build(0)
            out["digest"] = wl.digest([warm, first])
            recorder = None
            if args.trace:
                recorder = tracer.Recorder()
                tracer.install(recorder)
            built = {0: first}
            records = measure(lambda i: built.pop(i, None) or build(i), recorder, args.rounds, args.seconds)
            out["rounds"] = len(records) // len(first.ops)
            out.update(summarize(records))
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.inproc else resource.RUSAGE_SELF
            out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
            if recorder is not None:
                out["layers"] = tracer.layer_metrics(recorder, tracer.cache_entries())
                out["spans"] = len(recorder.starts)
                if args.spans_out:
                    recorder.dump(args.spans_out)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
