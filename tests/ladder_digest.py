"""The ladder digest: one hash over the benchmark's ladder reports.

Runs every operation of ``benchmarks/workloads.ladder_round`` for seeds
3 and 4, at round index None (the warm-up inputs), 0, 1 and 2, and keeps
each ``classify_state(...).to_json_dict()`` report: 2,296 in all.  The
digest is the first 16 hex digits of the sha256 of
``json.dumps(reports, sort_keys=True)``, every float rounded first to
1e-12 of the larger of 1 and its size, the report corpus's comparison
rule: an eigenvalue that another BLAS rounds one ulp apart reads the
same.  A
change that must leave every ladder report as it was prints the same
digest before and after:

    PYTHONPATH=src python tests/ladder_digest.py

The script only reads ``benchmarks/``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SEEDS = (3, 4)
INDICES = (None, 0, 1, 2)


def reports() -> list[dict]:
    """Every ladder report, seed by seed and round by round."""
    # Write no bytecode into benchmarks/.
    sys.path.insert(0, str(BENCHMARKS))
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.dont_write_bytecode = writes
    return [
        op.run().to_json_dict()
        for seed in SEEDS
        for index in INDICES
        for op in workloads.ladder_round(seed, index).ops
    ]


def rounded(item):
    """``item`` with every float rounded to 12 decimals, or above 1 to
    13 significant digits, and -0.0 read as 0.0.

    >>> rounded({"margin": [-1e-17, 0.1 + 0.2, 2.0 / 3.0 * 1e20]})
    {'margin': [0.0, 0.3, 6.666666666667e+19]}
    """
    if isinstance(item, float):
        return float(f"{item:.12e}") if abs(item) > 1 else round(item, 12) + 0.0
    if isinstance(item, dict):
        return {key: rounded(value) for key, value in item.items()}
    if isinstance(item, (list, tuple)):
        return [rounded(value) for value in item]
    return item


def digest(items: list[dict]) -> str:
    """The first 16 hex digits of the sha256 of the sorted-key JSON of
    the rounded items.

    >>> digest([])
    '4f53cda18c2baa0c'
    """
    return hashlib.sha256(json.dumps(rounded(items), sort_keys=True).encode()).hexdigest()[:16]


if __name__ == "__main__":
    print(digest(reports()))
