"""Spans around each module's public functions, installed from outside.

The tracer replaces a function at the name its caller looks up (for example
``wavemask.masking.build_wrm``, which ``mask_signal`` calls) with a wrapper
that records a span: op index, layer name, start, end and the enclosing
span.  Nothing in the package changes.  A name that no longer exists is
skipped and reported as a note, so the benchmark outlives refactors.

Spans stay in memory and are written out once, when the run ends.  A
layer's self time is its span minus the spans directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

# (module, class or None, attribute, layer name).  One layer may be reached
# through several names, e.g. synthesis from both the operator build and the
# reassembly of the detail bands.
SPAN_TARGETS = (
    ("wavemask", None, "mask_signal", "masking.mask_signal"),
    ("wavemask.cli", None, "main", "cli.main"),
    ("wavemask.cli", None, "mask_signal", "masking.mask_signal"),
    ("wavemask.cli", None, "build_constraints", "masking.constraints"),
    ("wavemask.cli", None, "load_csv", "microdata.load"),
    ("wavemask.cli", None, "extract_quantity_signal", "microdata.extract"),
    ("wavemask.cli", None, "plan_resynthesis", "microdata.plan"),
    ("wavemask.cli", None, "apply_plan", "microdata.apply"),
    ("wavemask.cli", None, "write_csv", "microdata.write"),
    ("wavemask.masking", None, "decompose", "wavelet.decompose"),
    ("wavemask.masking", None, "build_wrm", "wrm.build"),
    ("wavemask.masking", None, "build_constraints", "masking.constraints"),
    ("wavemask.masking", None, "solve", "lp.solve"),
    ("wavemask.masking", None, "assemble_masked_signal", "masking.assemble"),
    ("wavemask.masking", None, "round_and_repair", "masking.round"),
    ("wavemask.masking", None, "evaluate_goals", "masking.evaluate"),
    ("wavemask.masking", None, "reconstruct_component", "wavelet.synthesis"),
    ("wavemask.wrm", None, "reconstruct_component", "wavelet.synthesis"),
    ("wavemask.wrm", "ReconstructionMatrix", "apply", "wrm.apply"),
)

# Called thousands of times per LP; counted, not spanned.
COUNT_TARGETS = (
    ("wavemask.lp", "_Tableau", "pivot", "lp.pivots"),
)

ROW_RTOL = 1e-6
# Layers whose arguments and results feed the per-op counts.
OBSERVED = frozenset({"wrm.build", "lp.solve", "masking.round"})

# Per-layer time metric -> the layer whose self time it sums per op.
TIME_METRICS = {
    "wrm.build_s": "wrm.build",
    "wrm.apply_s": "wrm.apply",
    "wavelet.synthesis_s": "wavelet.synthesis",
    "wavelet.decompose_s": "wavelet.decompose",
    "lp.solve_s": "lp.solve",
    "masking.constraints_s": "masking.constraints",
    "masking.assemble_s": "masking.assemble",
    "masking.round_s": "masking.round",
    "masking.evaluate_s": "masking.evaluate",
    "masking.mask_signal_s": "masking.mask_signal",
    "microdata.load_s": "microdata.load",
    "microdata.extract_s": "microdata.extract",
    "microdata.plan_s": "microdata.plan",
    "microdata.apply_s": "microdata.apply",
    "microdata.write_s": "microdata.write",
    "cli.main_s": "cli.main",
}
# Per-layer count metric -> unit.
COUNT_METRICS = {
    "wavelet.synthesis_calls": "count",
    "wrm.operator_bytes": "bytes",
    "lp.rows": "count",
    "lp.vars": "count",
    "lp.pivots": "count",
    "masking.repair_units": "count",
    "microdata.records": "count",
    "microdata.eligible": "count",
    "microdata.moves": "count",
    "microdata.input_bytes": "bytes",
    "cli.report_bytes": "bytes",
}


def _resolve(module_name, class_name):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return owner if class_name is None else getattr(owner, class_name, None)


def _array_bytes(obj) -> int:
    """Bytes held in the numpy arrays among an object's attributes."""
    fields = getattr(obj, "__dict__", {})
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


def _round_half_away(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return np.sign(arr) * np.floor(np.abs(arr) + 0.5)


class Tracer:
    """Installs wrappers for one op at a time and keeps every span."""

    def __init__(self):
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.ops: dict[int, dict] = {}
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._op_first_span = 0
        self._counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, list] = defaultdict(list)
        self._installed: list[tuple] = []
        self._patches = self._build_patches()

    def _build_patches(self) -> list[tuple]:
        patches = []
        for module_name, class_name, attr, layer in SPAN_TARGETS + COUNT_TARGETS:
            owner = _resolve(module_name, class_name)
            original = getattr(owner, attr, None) if owner is not None else None
            where = ".".join(p for p in (module_name, class_name, attr) if p)
            if original is None:
                self.notes.append(f"absent: {where} (layer {layer} not traced there)")
                continue
            if (module_name, class_name, attr, layer) in COUNT_TARGETS:
                wrapper = self._counter(layer, original)
            else:
                wrapper = self._spanner(layer, original)
            patches.append((owner, attr, original, wrapper))
        return patches

    def _counter(self, name, fn):
        counts = self._counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, name, fn):
        spans, stack, seen = self.spans, self._stack, self._seen
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self._op, name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end
            if name in OBSERVED:
                # Keep references only; counts are computed after the op.
                seen[name].append((args, result))
            return result

        return traced

    def begin(self, op: int) -> None:
        self._op = op
        self._op_first_span = len(self.spans)
        self._counts.clear()
        self._seen.clear()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = self._patches

    def end(self) -> None:
        for owner, attr, original, _wrapper in self._installed:
            setattr(owner, attr, original)
        self._installed = []

    def finish_op(self, extra_counts: dict) -> dict:
        """Per-op self times and counts, computed after the op's timer stopped."""
        first = self._op_first_span
        op_spans = self.spans[first:]
        child_time = defaultdict(float)
        for _op, _name, start, end, parent in op_spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        total = 0.0
        for offset, (_op, name, start, end, parent) in enumerate(op_spans):
            self_time[name] += (end - start) - child_time[first + offset]
            calls[name] += 1
            if parent < 0:
                total += end - start
        counts = {
            "wavelet.synthesis_calls": calls["wavelet.synthesis"],
            "wrm.operator_bytes": sum(_array_bytes(r) for _a, r in self._seen["wrm.build"]),
            "lp.pivots": self._counts["lp.pivots"],
        }
        rows = variables = valid = repair = 0
        try:
            for args, solution in self._seen["lp.solve"]:
                lp_rows = args[0].all_rows()
                rows += len(lp_rows)
                variables += args[0].num_vars
                x = getattr(solution, "x", None)
                if x is not None and all(r.violation(x) <= ROW_RTOL * max(1.0, abs(r.rhs)) for r in lp_rows):
                    valid += 1
            for args, _result in self._seen["masking.round"]:
                repair += int(abs(_round_half_away(args[0]).sum() - int(args[1])))
        except (AttributeError, IndexError, TypeError) as exc:
            note = f"LP or rounding counts not derived: {type(exc).__name__}: {exc}"
            if note not in self.notes:
                self.notes.append(note)
        counts.update({"lp.rows": rows, "lp.vars": variables, "masking.repair_units": repair})
        counts.update(extra_counts)
        record = {
            "self_s": dict(self_time),
            "total_s": total,
            "counts": counts,
            "lp_solves": len(self._seen["lp.solve"]),
            "lp_valid": valid,
        }
        self.ops[self._op] = record
        self._seen.clear()
        return record

    def metrics(self) -> dict:
        """Median per traced op of every per-layer metric, plus the LP validity ratio."""
        records = list(self.ops.values())
        out = {}
        for metric, layer in TIME_METRICS.items():
            out[metric] = (statistics.median(r["self_s"].get(layer, 0.0) for r in records), "s")
        for metric, unit in COUNT_METRICS.items():
            out[metric] = (statistics.median(r["counts"].get(metric, 0) for r in records), unit)
        solves = sum(r["lp_solves"] for r in records)
        out["lp.valid_ratio"] = (sum(r["lp_valid"] for r in records) / solves if solves else 0.0, "ratio")
        return out

    def shares(self) -> dict:
        """Each layer's self time as a share of all traced op time."""
        total = sum(r["total_s"] for r in self.ops.values())
        by_layer: dict[str, float] = defaultdict(float)
        for r in self.ops.values():
            for layer, seconds in r["self_s"].items():
                by_layer[layer] += seconds
        ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
        return {layer: seconds / total for layer, seconds in ranked} if total else {}

    def dump(self) -> dict:
        return {
            "notes": self.notes,
            "span_fields": ["op", "layer", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "ops": {str(k): v for k, v in self.ops.items()},
        }
