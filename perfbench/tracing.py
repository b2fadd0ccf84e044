"""Span tracing around the library's layer boundaries, from outside the library.

Each boundary in ``BOUNDARIES`` names a function by the module that defines
it. Installing the tracer replaces that function object in every loaded
``setfuse`` module namespace that binds it, because ``from``-imports copy the
binding: ``setfuse.kernels.spd_log`` is what the kernel code calls, not
``setfuse.spd.spd_log``. A boundary whose function no longer exists (renamed
or deleted by a later change) is reported absent instead of failing the run.

Every call records a span: boundary, start, end, parent span, the harness
phase ("setup" or "op") and the index of the timed operation it ran under.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _outer_iters(args, result):
    return len(result.objective_trace)


def _inner_iters(args, result):
    return len(result.ratio_history) - 1


def _encoded_set(args, result):
    return id(args[0])


# (defining module, function, phase whose spans the metrics count, note).
# "setup" boundaries are reported per set-up, "op" boundaries per timed
# operation. A note reads a count from the call's arguments or its result.
BOUNDARIES = (
    ("data", "generate_synthetic", "setup", None),
    ("persistence", "save_model", "setup", None),
    ("persistence", "load_model", "setup", None),
    ("experiment", "run_experiment", "op", None),
    ("experiment", "train_on_sets", "op", _outer_iters),
    ("trainer", "train", "op", None),
    ("descriptors", "encode_set", "op", _encoded_set),
    ("kernels", "build_kernel_bank", "op", None),
    ("kernels", "cross_kernel_vector", "op", None),
    ("spd", "spd_log", "op", None),
    ("trainer", "scatter_matrices", "op", None),
    ("trainer", "remove_null_space", "op", None),
    ("trainer", "solve_trace_ratio", "op", _inner_iters),
    ("trainer", "_objective_for_params", "op", None),
    ("gating", "gating_gradients", "op", None),
    ("gating", "gating_weights", "op", None),
    ("classify", "predict", "op", None),
    ("classify", "distance_profile", "op", None),
)

# Metrics derived from counts rather than from one boundary's spans.
DERIVED = (
    ("spd.spd_log.per_probe", "count"),
    ("trainer.outer_iters", "count"),
    ("trainer.itr_inner_iters", "count"),
    ("trainer.itr_inner_per_outer", "ratio"),
    ("trainer.scatter_per_outer", "ratio"),
    ("descriptors.distinct_per_encode", "ratio"),
)

# Figures the harness adds to a traced run's report.
RUN_FIGURES = (
    ("persistence.model_bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("trace.absent", "count"),
)


def boundary_name(module: str, func: str) -> str:
    return f"{module}.{func}"


def per_layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module, func, _, _ in BOUNDARIES:
        name = boundary_name(module, func)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.s", "s")]
    return out + list(DERIVED) + list(RUN_FIGURES)


def _library_modules():
    return [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == "setfuse" or key.startswith("setfuse."))
    ]


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        # span: [boundary index, start, end, parent span, phase, op index, note]
        self.spans: list[list] = []
        self.phase = "setup"
        self.op = -1
        self.absent: list[str] = []
        self.note_failed: set[int] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _library_modules()
        for b, (module, func, _, note) in enumerate(BOUNDARIES):
            home = sys.modules.get(f"setfuse.{module}")
            original = getattr(home, func, None)
            if not callable(original):
                self.absent.append(boundary_name(module, func))
                continue
            wrapper = self._wrap(b, original, note)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, b: int, original, note):
        spans = self.spans
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rec = [b, perf_counter(), 0.0, stack[-1] if stack else -1, self.phase, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                try:
                    rec[6] = note(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.note_failed.add(b)
            return result

        return traced

    def metrics(self, n_setups: int, n_ops: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the names of those reported absent (as 0).

        "setup" boundaries are averaged over ``n_setups`` traced set-ups, all
        others over ``n_ops`` traced operations.
        """
        index = {boundary_name(m, f): b for b, (m, f, _, _) in enumerate(BOUNDARIES)}
        n_b = len(BOUNDARIES)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls = [0] * n_b
        total = [0.0] * n_b
        self_s = [0.0] * n_b
        notes: list[list] = [[] for _ in range(n_b)]
        for i, rec in enumerate(self.spans):
            b = rec[0]
            if rec[4] != BOUNDARIES[b][2]:
                continue
            dur = rec[2] - rec[1]
            calls[b] += 1
            total[b] += dur
            self_s[b] += dur - child[i]
            if rec[6] is not None:
                notes[b].append((rec[5], rec[6]))

        out: dict[str, float] = {}
        absent = [f"{a}.{suffix}" for a in self.absent for suffix in ("calls", "self_s", "s")]
        for b, (module, func, phase, _) in enumerate(BOUNDARIES):
            name = boundary_name(module, func)
            n = max(1, n_setups if phase == "setup" else n_ops)
            out[f"{name}.calls"] = calls[b] / n
            out[f"{name}.self_s"] = self_s[b] / n
            out[f"{name}.s"] = total[b] / n

        def note_sum(name):
            b = index[name]
            if name in self.absent or b in self.note_failed:
                return None
            return sum(v for _, v in notes[b]) / max(1, n_ops)

        outer = note_sum("experiment.train_on_sets")
        inner = note_sum("trainer.solve_trace_ratio")
        scatter_ok = "trainer.scatter_matrices" not in self.absent
        derived = {
            "spd.spd_log.per_probe": self._per_probe_spd_log(index),
            "trainer.outer_iters": outer,
            "trainer.itr_inner_iters": inner,
            "trainer.itr_inner_per_outer": None
            if outer is None or inner is None
            else (inner / outer if outer else 0.0),
            "trainer.scatter_per_outer": None
            if outer is None or not scatter_ok
            else (out["trainer.scatter_matrices.calls"] / outer if outer else 0.0),
            "descriptors.distinct_per_encode": self._distinct_per_encode(index, notes),
        }
        for name, value in derived.items():
            if value is None:
                absent.append(name)
                value = 0.0
            out[name] = float(value)
        return out, absent

    def _per_probe_spd_log(self, index) -> float | None:
        """spd_log calls made under a predict call, per predict call."""
        log_b = index["spd.spd_log"]
        predict_b = index["classify.predict"]
        if {"spd.spd_log", "classify.predict"} & set(self.absent):
            return None
        spans = self.spans
        probes = sum(1 for r in spans if r[0] == predict_b and r[4] == "op")
        if not probes:
            return 0.0
        under = 0
        for rec in spans:
            if rec[0] != log_b or rec[4] != "op":
                continue
            p = rec[3]
            while p >= 0 and spans[p][0] != predict_b:
                p = spans[p][3]
            under += p >= 0
        return under / probes

    def _distinct_per_encode(self, index, notes) -> float | None:
        """Distinct sets encoded per encode call, averaged over operations."""
        b = index["descriptors.encode_set"]
        if "descriptors.encode_set" in self.absent or b in self.note_failed:
            return None
        by_op: dict[int, list] = {}
        for op, set_id in notes[b]:
            by_op.setdefault(op, []).append(set_id)
        if not by_op:
            return 0.0
        return sum(len(set(ids)) / len(ids) for ids in by_op.values()) / len(by_op)

    def dump(self) -> dict:
        """Spans in a JSON-ready form."""
        return {
            "boundaries": [boundary_name(m, f) for m, f, _, _ in BOUNDARIES],
            "fields": ["boundary", "start", "end", "parent", "phase", "op"],
            "spans": [r[:6] for r in self.spans],
        }
