"""The boxworld benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Every measurement runs in a fresh interpreter (``worker.py``).  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run over a fixed number of rounds, plus the tracing overhead.  The lines
before it repeat every figure by name and unit, state the machine and
build facts, and give the input digest.  See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

import tracer  # noqa: E402

WORKLOADS = ("ladder", "codes", "cli")
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3  # fresh interpreters per in-process run; setup_s is their median
IMPORT_SAMPLES = 9  # bare `import boxworld.cli` children per cli run
# Wall seconds one round took when the benchmark was defined (2-CPU
# host).  An untraced run measures whole rounds for --seconds; a traced
# run does a fixed round(--seconds / ROUND_S / 2) rounds in each leg, so
# its counts repeat exactly from run to run on one seed.
ROUND_S = {"ladder": 6.5, "codes": 0.75, "cli": 6.5}
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def _run(self, argv: list[str]) -> str:
        """Run one child in its own session; kill the whole session on timeout."""
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1]} did not finish within the benchmark's {DEADLINE_S:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:4])} exited with {proc.returncode}:\n{err[-2000:]}")
        return out

    def worker(self, *extra: str) -> dict:
        self.spawned += 1
        scratch = RESULTS / f"tmp-{os.getpid()}-{self.spawned}"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed),
                "--scratch", str(scratch), *extra]
        out = self._run(argv + ["--spawned-at", repr(time.monotonic())])
        return json.loads(out.strip().splitlines()[-1])

    def import_s(self) -> float:
        """Wall time of a bare `import boxworld.cli` child."""
        start = time.monotonic()
        self._run([sys.executable, "-c", "import boxworld.cli"])
        return time.monotonic() - start


def commit() -> str:
    """The checked-out commit, read from .git inside the checkout if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(run: Runner, seconds: float) -> tuple[dict, dict]:
    if run.workload == "cli":
        setups = [run.import_s() for _ in range(IMPORT_SAMPLES)]
        main = run.worker("--seconds", repr(seconds))
    else:
        setups = [run.worker("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        main = run.worker("--seconds", repr(seconds))
        setups.append(main["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": main["ops_per_s"],
        "op_p50_ms": main["op_p50_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    extra = {"failed_ratio": main["failed"] / main["attempted"]}
    if "op_p90_ms" in main:
        extra["op_p90_ms"] = main["op_p90_ms"]
    if run.workload == "ladder":
        extra["ladder_n3_ms"] = main["kind_p50_ms"]["quantum-n3"]
        extra["ladder_n4_ms"] = main["kind_p50_ms"]["quantum-n4"]
    detail = {"setup_samples": setups, **{k: main[k] for k in ("rounds", "busy_s", "kind_p50_ms", "failures")}}
    return {"metrics": metrics, "extra": extra, "detail": detail}, main


def per_layer(run: Runner, seconds: float) -> tuple[dict, list[dict]]:
    rounds = str(max(1, round(seconds / ROUND_S[run.workload] / 2)))
    spans = str(RESULTS / f"spans-{run.workload}.json")
    if run.workload == "cli":
        # Child processes cannot be wrapped from here, so the traced run
        # sends the same command mix through cli.run_named in process.
        import_s = statistics.median(run.import_s() for _ in range(IMPORT_SAMPLES))
        invocations = run.worker("--rounds", rounds)
        base = run.worker("--rounds", rounds, "--inproc", "1")
        traced = run.worker("--rounds", rounds, "--inproc", "1", "--trace", "1", "--spans-out", spans)
        legs = [invocations, base, traced]
        cli_metrics = {
            "cli.import_s": import_s,
            "cli.command_s": base["op_p50_ms"] / 1e3,
            "cli.startup_share": import_s / (invocations["op_p50_ms"] / 1e3),
        }
    else:
        base = run.worker("--rounds", rounds)
        traced = run.worker("--rounds", rounds, "--trace", "1", "--spans-out", spans)
        legs = [base, traced]
        cli_metrics = {"cli.import_s": 0.0, "cli.command_s": 0.0, "cli.startup_share": 0.0}
    delta = base["ops_per_s"] - traced["ops_per_s"]
    metrics = {
        **traced["layers"],
        **cli_metrics,
        "trace.overhead_ops_per_s": delta,
        "trace.overhead_ratio": delta / base["ops_per_s"],
    }
    return metrics, legs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "boxworld" / "__init__.py").is_file():
        print(f"no boxworld sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    run = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, legs = per_layer(run, args.seconds)
            units = {name: unit for name, unit, _ in tracer.per_layer_spec()}
            report = {"metrics": metrics, "extra": {}, "detail": {"spans": legs[-1]["spans"]}}
        else:
            report, main_leg = end_to_end(run, args.seconds)
            legs = [main_leg]
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(leg["attempted"] for leg in legs)
    failed = sum(leg["failed"] for leg in legs)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": legs[-1]["numpy"],
        "input_digest": legs[-1]["digest"],
    }
    for key, value in facts.items():
        print(f"{key:<16} {value}")
    extra_units = {"failed_ratio": "ratio", "op_p90_ms": "ms", "ladder_n3_ms": "ms", "ladder_n4_ms": "ms"}
    for name, value in report["metrics"].items():
        print(f"{name:<52} {value:>14.6g} {units[name]}")
    for name, value in report["extra"].items():
        print(f"{name:<52} {value:>14.6g} {extra_units[name]}")
    for leg in legs:
        for failure in leg["failures"]:
            print(f"FAILED {failure}")
    print("detail " + json.dumps({"facts": facts, "extra": report["extra"], **report["detail"]}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
