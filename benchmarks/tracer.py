"""Span recorder for the traced benchmark run.

The recorder wraps named public functions of the ``boxworld`` modules
from outside the package.  Each wrapper records one span (layer name,
start, end, parent span, operation index) and the counters that the
function's result reports, such as the collections a ladder rung
evaluated.  Spans stay in memory and are written out once the run ends.

The package imports functions by name (``rac`` binds ``all_settings``,
``constraints`` binds ``conjugate_pauli``), so a wrapper is installed in
every module namespace that binds the original function object;
otherwise calls made inside the package would bypass it.  Per-string
primitives such as ``pauli_product`` are left unwrapped: their cost
shows as the self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Sequence

MODULES = ("pauli", "states", "constraints", "games", "rac", "infotasks", "oracle", "cli")

TRACED = {
    "pauli": ("maximal_anticommuting_sets",),
    "states": (
        "all_settings",
        "conjugate_pauli",
        "apply_clifford",
        "tensor_product",
        "moments_from_probabilities",
    ),
    "constraints": (
        "check_p_uncertainty",
        "check_local_moments",
        "check_commuting_moments",
        "maximal_commuting_sets",
        "classify_state",
    ),
    "games": ("build_xor_game_state", "xor_game_value"),
    "rac": (
        "IndexMap.settings_map",
        "rac_encode_gnst",
        "rac_encode_pgnst",
        "rac_encode_pbin",
        "rac_decode",
    ),
    "infotasks": ("simulate_ip_protocol", "pir_simulate"),
    "oracle": ("dense", "min_eigenvalue", "random_valid_state", "exhaustive_verify"),
    "cli": ("run_named",),
}

LAYERS = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)

CERTIFIED_MODES = ("exhaustive", "max")


def _detail(result) -> dict:
    return getattr(result, "detail", None) or {}


def _rung_counts(result) -> Iterable[tuple[str, float]]:
    detail = _detail(result)
    yield "collections", detail.get("collections", 0)
    yield "skipped", detail.get("skipped", 0)


def _uncertainty_counts(result) -> Iterable[tuple[str, float]]:
    detail = _detail(result)
    mode = detail.get("mode")
    certified = getattr(result, "certified", None)
    if certified is None:
        certified = mode in CERTIFIED_MODES
    yield "sets", detail.get("sets", 0)
    yield "reports", 1
    yield "certified", int(bool(certified))
    yield "exhaustive_nonempty", int(mode == "exhaustive" and detail.get("strings", 0) > 0)


# Counters read from a wrapped function's return value.
EXTRACTORS: dict[str, Callable] = {
    "constraints.check_local_moments": _rung_counts,
    "constraints.check_commuting_moments": _rung_counts,
    "constraints.check_p_uncertainty": _uncertainty_counts,
}


class Recorder:
    """In-memory spans and counters; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, layer: str, module: str, fn: Callable) -> Callable:
        extract = EXTRACTORS.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.starts)
            self.names.append(layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                self.ends[index] = clock()
                self._stack.pop()
            if extract is not None:
                for key, value in extract(result):
                    self.counters[f"{layer}.{key}"] += value
            return result

        return wrapper

    def spans(self) -> list[tuple[float, float, int]]:
        return list(zip(self.starts, self.ends, self.parents))

    def dump(self, path) -> None:
        """Write every span as JSON: one row per span, layer names indexed."""
        layers = sorted(set(self.names))
        index = {name: i for i, name in enumerate(layers)}
        rows = [
            [index[n], s, e, p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        with open(path, "w") as handle:
            json.dump({"layers": layers, "columns": ["layer", "start", "end", "parent", "op"], "spans": rows}, handle)


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every function in :data:`TRACED` wherever the package binds it.

    Functions missing from the installed package are skipped; their
    per-layer metrics then read zero.  Returns the undo list for
    :func:`uninstall`.
    """
    undo: list[tuple[object, str, object]] = []
    for module_name in TRACED:
        importlib.import_module(f"boxworld.{module_name}")
    namespaces = [m for name, m in sorted(sys.modules.items()) if name == "boxworld" or name.startswith("boxworld.")]
    for module_name, names in TRACED.items():
        module = sys.modules[f"boxworld.{module_name}"]
        for qualname in names:
            layer = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(recorder.wrap(layer, module_name, raw.__func__)))
                    undo.append((owner, attr, raw))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = recorder.wrap(layer, module_name, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        undo.append((namespace, key, original))
    return undo


def uninstall(undo: Sequence[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` holds (start, end, parent index) rows, with parent -1 for
    a root.  Children are clipped to their parent's interval and
    overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(i, ())):
            child_start, child_end = max(child_start, start), min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_metrics(recorder: Recorder, cache_entries: int) -> dict[str, float]:
    """The per-layer table: calls and self time per layer, rung counters,
    certification and cache ratios, and exceptions per module."""
    out: dict[str, float] = {}
    calls: Counter = Counter(recorder.names)
    self_s: Counter = Counter()
    for name, value in zip(recorder.names, self_times(recorder.spans())):
        self_s[name] += value
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    c = recorder.counters
    for layer in ("constraints.check_local_moments", "constraints.check_commuting_moments"):
        out[f"{layer}.collections"] = c[f"{layer}.collections"]
        out[f"{layer}.skipped"] = c[f"{layer}.skipped"]
    pu = "constraints.check_p_uncertainty"
    out[f"{pu}.sets"] = c[f"{pu}.sets"]
    out[f"{pu}.certified_ratio"] = c[f"{pu}.certified"] / c[f"{pu}.reports"] if c[f"{pu}.reports"] else 0.0
    exhaustive = c[f"{pu}.exhaustive_nonempty"]
    misses = calls["pauli.maximal_anticommuting_sets"]
    out["pauli.anticommuting_cache.hit_ratio"] = 1.0 - misses / exhaustive if exhaustive else 0.0
    out["pauli.anticommuting_cache.entries"] = cache_entries
    for module in MODULES:
        out[f"{module}.errors"] = recorder.errors[module]
    return out


def cache_entries() -> int:
    """Entries in the anti-commuting set cache, or 0 once it is gone."""
    cached = getattr(sys.modules.get("boxworld.pauli"), "_cached_maximal_sets", None)
    info = getattr(cached, "cache_info", None)
    return info().currsize if info is not None else 0


# Metrics the orchestrator adds to the traced run's table.
RUN_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
    ("cli.startup_share", "ratio", "lower"),
    ("trace.overhead_ops_per_s", "ops/s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    units = {"calls": "count", "self_s": "s", "collections": "count", "skipped": "count",
             "sets": "count", "entries": "count", "errors": "count"}
    better = {"certified_ratio": "higher", "hit_ratio": "higher"}
    probe = Recorder()
    names = list(layer_metrics(probe, 0)) + [name for name, _, _ in RUN_METRICS]
    run_units = {name: (unit, b) for name, unit, b in RUN_METRICS}
    out = []
    for name in names:
        if name in run_units:
            out.append((name, *run_units[name]))
            continue
        last = name.rsplit(".", 1)[1]
        out.append((name, units.get(last, "ratio"), better.get(last, "lower")))
    return out
