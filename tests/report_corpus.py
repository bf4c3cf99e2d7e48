"""The report corpus: ``classify_state`` on fixed seeded states.

Every ladder family at n = 1..4 and p in {1.5, 2, 3, inf}: quantum
states, the same states scaled x1.6 as lenient tables, p-bin codes,
codes restricted to letter tensors, p-gnst codes, valid states from
``oracle.random_valid_state``, strict tables holding half of a quantum
state's moments, and the PR box at n = 2.  At n = 5 and 6, on the same
p grid: tensor products of two quantum states, p-gnst codes and p-bin
codes, which pin the uncertainty search above four systems, where it
finishes (``exhaustive``) on the products and p-bin codes and stops at
its cap of 10,000 sets (``budgeted``) on the p-gnst codes' equal
moments, and the rungs that stop above their size limits.  ``tests/test_report_corpus.py`` compares
the reports with the committed ``tests/data/report_corpus.json``.

A change that moves a report on purpose regenerates the file with

    PYTHONPATH=src python tests/report_corpus.py

and lists each changed field in CHANGES.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from boxworld import oracle, rac, states
from boxworld.constraints import classify_state

CORPUS = Path(__file__).parent / "data" / "report_corpus.json"
P_GRID = (1.5, 2.0, 3.0, math.inf)


def _bits(rng: np.random.Generator, count: int) -> list[int]:
    return [int(b) for b in rng.integers(0, 2, size=count)]


def corpus_states():
    """``(family, n, p, state)`` for every case, from one seeded stream per n."""
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng([2008, n])
        for p in P_GRID:
            quantum = oracle.random_quantum_state(n, rng)
            yield "quantum", n, p, quantum
            scaled = {k: 1.6 * quantum.coefficient(*k) for k in quantum.keys()}
            yield "scaled", n, p, states.MomentTable(n, scaled, strict=False)
            yield "pbin", n, p, rac.rac_encode_pbin(_bits(rng, 4**n - 1), n, p)
            yield "restricted", n, p, rac.rac_encode_pbin(_bits(rng, 3**n), n, p, restrict_to_xyz=True)
            yield "pgnst", n, p, rac.rac_encode_pgnst(_bits(rng, 3**n), n, p)
            yield "valid", n, p, oracle.random_valid_state(n, p, rng)
            low = (1 << n) - 1
            kept = rng.choice(np.arange(1, 4**n), size=(4**n - 1) // 2, replace=False)
            half = {(k & low, k >> n): quantum.coefficient(k & low, k >> n) for k in sorted(kept.tolist())}
            yield "half", n, p, states.MomentTable(n, half, strict=True)
            if n == 2:
                yield "prbox", n, p, states.pr_box_state()
    for n in (5, 6):
        rng = np.random.default_rng([2008, n])
        for p in P_GRID:
            first = oracle.random_quantum_state(n // 2, rng)
            product = states.tensor_product(first, oracle.random_quantum_state(n - n // 2, rng))
            yield "product", n, p, product
            yield "pgnst", n, p, rac.rac_encode_pgnst(_bits(rng, 3**n), n, p)
            yield "pbin", n, p, rac.rac_encode_pbin(_bits(rng, 4**n - 1), n, p)


def corpus() -> list[dict]:
    return [
        {"family": family, "n": n, "p": "inf" if p == math.inf else p,
         "result": classify_state(state, p).to_json_dict()}
        for family, n, p, state in corpus_states()
    ]


if __name__ == "__main__":
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}")
