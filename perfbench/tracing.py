"""Per-layer spans for the traced benchmark run.

The tracer rebinds public functions of the ``srampuf`` modules with timing
wrappers, at every place a module holds a reference to them (``keygen``
holds its own ``mask_fingerprint``, ``cli`` its own ``load_dump``, ...), so
calls between modules are traced without any change to the package.
Spans live in one flat in-memory array and are written out when the run
ends.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Layer module -> public functions wrapped in spans named "<layer>.<function>".
# The leading underscore of "_kv" is dropped from span and metric names.
TRACED = {
    "simulate": ("new_device", "collect_samples", "power_up_sample"),
    "bitvec": ("load_dump", "save_dump"),
    "enroll": ("build_mask", "mask_fingerprint", "save_mask", "load_mask"),
    "analytics": ("block_stability", "threshold_sweep", "flip_rate_summary",
                  "window_flip_rate", "block_reports_to_csv", "sweep_to_csv"),
    "keygen": ("generate_key", "reproduce_key", "apply_mask", "derive_key"),
    "fuzzy": ("generate", "reproduce", "save_helper", "load_helper"),
    "registry": ("load_registry", "save_registry"),
    "_kv": ("atomic_write_text",),
    "cli": ("main",),
}

SETUP = -1   # op id of spans recorded while a workload sets up
CHECK = -2   # op id of spans recorded while the benchmark checks outputs

# Span row layout in Tracer.rows.
NAME, OP, START, END, PARENT = range(5)
WIDTH = 5


def _count_windows(counts, mask, args, kwargs):
    counts["enroll.windows_scanned"] += mask.num_windows
    counts["enroll.positions_scanned"] += mask.num_windows * mask.window_length
    counts["enroll.positions_selected"] += mask.target_len


def _count_verified(counts, registry, args, kwargs):
    if kwargs.get("verify_files", args[1] if len(args) > 1 else True):
        counts["registry.files_verified"] += sum(
            1 + bool(entry.helper_file) for entry in registry.entries.values())


def _count_corrected(counts, recovered, args, kwargs):
    counts["fuzzy.corrected"] += recovered != args[0]


# Span name -> hook(counts, result, args, kwargs), run after calls made by an op.
RESULT_HOOKS = {
    "enroll.build_mask": _count_windows,
    "registry.load_registry": _count_verified,
    "fuzzy.reproduce": _count_corrected,
}


class Tracer:
    """Records spans of (name, op id, start ns, end ns, parent span index)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows = array("q")
        self.counts: Counter[str] = Counter()
        self.op_id = SETUP
        self._open = -1
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.rows) // WIDTH
        self.rows.extend((name_id, self.op_id, perf_counter_ns(), 0, self._open))
        self._open = index
        return index

    def end(self, index: int) -> None:
        self.rows[index * WIDTH + END] = perf_counter_ns()
        self._open = self.rows[index * WIDTH + PARENT]

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.rows, dtype=np.int64).reshape(-1, WIDTH)

    def _wrap(self, function, name: str, refused_error: type):
        hook = RESULT_HOOKS.get(name)
        counts_refusals = name == "fuzzy.reproduce"

        def traced(*args, **kwargs):
            span = self.begin(f"cli.{args[0][0]}" if name == "cli.main" else name)
            try:
                result = function(*args, **kwargs)
            except refused_error:
                if counts_refusals and self.op_id >= 0:
                    self.counts["fuzzy.refused"] += 1
                raise
            finally:
                self.end(span)
            if hook is not None and self.op_id >= 0:
                hook(self.counts, result, args, kwargs)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        """Rebind every reference to a traced function inside ``srampuf``."""
        if self._undo:
            return
        package = importlib.import_module("srampuf")
        modules = [package] + [importlib.import_module(f"srampuf.{m}") for m in TRACED]
        refused_error = importlib.import_module("srampuf.fuzzy").ReproduceFailure
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"srampuf.{layer}")
            for function_name in functions:
                original = getattr(home, function_name)
                wrapper = self._wrap(original, f"{layer.lstrip('_')}.{function_name}",
                                     refused_error)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def self_times(spans: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    duration = spans[:, END] - spans[:, START]
    parent = spans[:, PARENT]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(spans))
    return duration - covered.astype(np.int64)


def uncovered_share(spans: np.ndarray, names: list[str]) -> float:
    """Share of measured operation time that lies under no layer span."""
    op_ids = [i for i, name in enumerate(names) if name.startswith("op.")]
    ops = np.isin(spans[:, NAME], op_ids)
    total = int((spans[ops, END] - spans[ops, START]).sum())
    return float(self_times(spans)[ops].sum()) / total if total else 0.0


def _per_layer_spec():
    """(metric, unit, kind, a, b) for every per-layer metric.

    kind "duration"/"self": median time of span a, times scale b.
    kind "per_call": counter b per call of span a.
    kind "calls_per_op": calls of span a per measured operation.
    kind "ratio": counter a over counter b.
    """
    us, ms = 1e-3, 1e-6
    spec = [
        ("simulate.power_up_sample_us", "us", "duration", "simulate.power_up_sample", us),
        ("simulate.collect_samples_ms", "ms", "duration", "simulate.collect_samples", ms),
        ("simulate.new_device_ms", "ms", "duration", "simulate.new_device", ms),
        ("enroll.build_mask_ms", "ms", "duration", "enroll.build_mask", ms),
        ("enroll.windows_scanned", "count/call", "per_call", "enroll.build_mask",
         "enroll.windows_scanned"),
        ("enroll.selected_per_scanned", "ratio", "ratio", "enroll.positions_selected",
         "enroll.positions_scanned"),
        ("enroll.mask_fingerprint_us", "us", "duration", "enroll.mask_fingerprint", us),
        ("enroll.mask_fingerprint_calls", "count/op", "calls_per_op",
         "enroll.mask_fingerprint", None),
    ]
    spec += [(f"analytics.{fn}_ms", "ms", "duration", f"analytics.{fn}", ms)
             for fn in ("threshold_sweep", "block_stability", "flip_rate_summary",
                        "window_flip_rate")]
    spec += [
        ("keygen.reproduce_key_self_us", "us", "self", "keygen.reproduce_key", us),
        ("keygen.apply_mask_us", "us", "duration", "keygen.apply_mask", us),
        ("keygen.derive_key_us", "us", "duration", "keygen.derive_key", us),
        ("keygen.generate_key_us", "us", "duration", "keygen.generate_key", us),
        ("fuzzy.reproduce_us", "us", "duration", "fuzzy.reproduce", us),
    ]
    spec += [(f"fuzzy.{c}", "count/call", "per_call", "fuzzy.reproduce", f"fuzzy.{c}")
             for c in ("corrected", "refused", "wrong_key")]
    spec += [
        ("bitvec.load_dump_ms", "ms", "duration", "bitvec.load_dump", ms),
        ("bitvec.save_dump_ms", "ms", "duration", "bitvec.save_dump", ms),
        ("registry.load_registry_ms", "ms", "duration", "registry.load_registry", ms),
        ("registry.files_verified", "count/call", "per_call", "registry.load_registry",
         "registry.files_verified"),
        ("registry.save_registry_ms", "ms", "duration", "registry.save_registry", ms),
        ("kv.atomic_write_text_ms", "ms", "duration", "kv.atomic_write_text", ms),
    ]
    spec += [(f"cli.{c}_self_ms", "ms", "self", f"cli.{c}", ms)
             for c in ("enroll", "genkey", "reproduce")]
    return spec


PER_LAYER = _per_layer_spec()


def per_layer_metrics(tracer: Tracer, ops: int, scale) -> dict[str, dict]:
    """Per-layer metrics from the spans and counters of one traced run.

    Times are medians over every call outside the benchmark's own checks,
    set-up calls included; ``scale(seconds)`` maps the perf_counter time of
    a span to the factor that takes its timings to nominal speed. Counts
    cover calls made by measured operations only, per call of the named
    span or per operation. A layer the workload never calls reads 0.
    """
    spans = tracer.spans()
    self_ns = self_times(spans)
    factor = scale((spans[:, START] + spans[:, END]) / 2e9)
    ids = {name: i for i, name in enumerate(tracer.names)}
    metrics = {}
    for metric, unit, kind, a, b in PER_LAYER:
        named = spans[:, NAME] == ids.get(a, -1)
        if kind in ("duration", "self"):
            timed = named & (spans[:, OP] != CHECK)
            values = (spans[timed, END] - spans[timed, START]) if kind == "duration" \
                else self_ns[timed]
            values = values * factor[timed]
            value = float(np.median(values)) * b if values.size else 0.0
        elif kind == "ratio":
            value = tracer.counts[a] / tracer.counts[b] if tracer.counts[b] else 0.0
        else:
            calls = int(np.count_nonzero(named & (spans[:, OP] >= 0)))
            per = ops if kind == "calls_per_op" else calls
            value = (calls if kind == "calls_per_op" else tracer.counts[b]) / per if per else 0.0
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
