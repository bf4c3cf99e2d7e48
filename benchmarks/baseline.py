"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/baseline.py --seeds 1-10 [--workloads ladder,cli] [--out FILE]

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, beside the
metric's bound from BENCHMARK.json.  The figures that ``run.py`` prints
only by name (``ladder_n3_ms``, ``op_p90_ms``, ...) are summarized too.
With ``--out`` the summary and the machine facts are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), detail


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    report: dict = {"workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        digests = []
        for seed in seeds(args.seeds):
            result, detail = run_once(workload, seed, config["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in detail["extra"].items():
                values.setdefault(name, []).append(value)
            digests.append(detail["facts"].pop("input_digest"))
            facts = detail["facts"]
        rows = {name: summary(v) for name, v in values.items() if name != "failed_ratio"}
        rows["failed_ratio"] = {"max": max(values["failed_ratio"])}
        report["workloads"][workload] = rows
        for key in ("seed", "workload", "trace"):
            facts.pop(key)
        report["facts"] = {**facts, "seeds": args.seeds}
        print(f"{workload} (digests {', '.join(digests)})")
        for name, row in rows.items():
            if "median" not in row:
                print(f"  {name:<14} max {row['max']}")
                continue
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}{'  OVER A THIRD' if name != 'setup_s' and row['spread'] > bound / 3 else ''}"
            print(f"  {name:<14} median {row['median']:.6g} {units.get(name, '')}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.3f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
