"""Per-layer tracing from outside the package.

While a `Tracer` is active it replaces the public functions of the five
`ehcr` modules (and every alias of them another `ehcr` module imported) with
wrappers that record a span per call: name, start, end, parent span and the
benchmark job that caused it. Aggregates are kept per function and per
group; raw spans are kept in memory up to `SPAN_CAP` and written out after
the run. Leaving the `with` block restores every attribute.

Self time is a span's duration minus the durations of its direct child
spans. A group's time counts only its outermost spans, so a gamma call made
inside another gamma call is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("numerics", "fading", "analysis", "sim", "cli")
SPAN_CAP = 50_000

GROUPS = {
    "numerics.gamma": ("numerics.regularized_lower_gamma", "numerics.regularized_upper_gamma",
                       "numerics.upper_incomplete_gamma"),
    "numerics.quad": ("numerics.integrate_adaptive",),
    "fading.sample": ("fading.sample",),
    "fading.survival": ("fading.survival",),
    "analysis.quadrature": ("analysis.phi1_quadrature", "analysis.phi2_quadrature"),
    "sim.streams": ("sim.placement_streams",),
    "cli.emit": ("cli.RunReport.to_csv", "cli.RunReport.to_json"),
}
_GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# (metric, unit): every per-layer metric the traced run reports; the layer is
# the name's prefix.
METRICS = (
    ("numerics.gamma_calls", "count"),
    ("numerics.gamma_s", "s"),
    ("numerics.quad_calls", "count"),
    ("numerics.quad_s", "s"),
    ("fading.sample_calls", "count"),
    ("fading.sample_draws", "count"),
    ("fading.sample_s", "s"),
    ("fading.survival_calls", "count"),
    ("fading.survival_points", "count"),
    ("fading.survival_s", "s"),
    ("analysis.evaluate_calls", "count"),
    ("analysis.evaluate_self_s", "s"),
    ("analysis.effective_range_calls", "count"),
    ("analysis.quadrature_s", "s"),
    ("sim.run_calls", "count"),
    ("sim.streams_s", "s"),
    ("sim.generators", "count"),
    ("sim.gain_draws", "count"),
    ("sim.slot_steps", "count"),
    ("sim.slot_loop_s", "s"),
    ("sim.gain_bytes_peak", "B"),
    ("sim.draws_per_reported_slot", "ratio"),
    ("cli.jobs", "count"),
    ("cli.emit_s", "s"),
    ("cli.self_s", "s"),
)
UNITS = dict(METRICS)

# Counts that depend only on the inputs; two traced rounds must agree exactly.
EXACT_COUNTS = (
    "numerics.gamma_calls",
    "analysis.effective_range_calls",
    "sim.gain_draws",
    "sim.generators",
)


class _Frame:
    __slots__ = ("idx", "start", "child_ns", "span", "parent", "in_sim")


class Tracer:
    """Context manager that traces the `ehcr` modules while active."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules  # layer name -> module
        self.names = []
        self.layer_of = []
        self.group_idx = []
        self.calls = []
        self.total_ns = []
        self.self_ns = []
        self.groups = list(GROUPS)
        self.group_depth = [0] * len(self.groups)
        self.group_calls = [0] * len(self.groups)
        self.group_ns = [0] * len(self.groups)
        self.group_work = [0] * len(self.groups)
        self.sim_depth = 0
        self.counters = {
            "sim.generators": 0,
            "sim.gain_draws": 0,
            "sim.slot_steps": 0,
            "sim.reported_slots": 0,
            "sim.gain_bytes_peak": 0,
        }
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_span = 0
        self.job = None
        self._patches = []
        self._warmup_slots = getattr(package_modules.get("sim"), "warmup_slots", None)
        self._run_signature = None

    # -- installation -----------------------------------------------------

    def __enter__(self):
        ehcr_modules = [m for n, m in sys.modules.items() if n == "ehcr" or n.startswith("ehcr.")]
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, obj)
                for owner in ehcr_modules:
                    for alias, value in list(vars(owner).items()):
                        if value is obj:
                            self._patch(owner, alias, wrapper)
        report = getattr(self.modules.get("cli"), "RunReport", None)
        for method in ("to_csv", "to_json"):
            if report is not None and inspect.isfunction(getattr(report, method, None)):
                self._patch(report, method, self._wrap(f"cli.RunReport.{method}", "cli",
                                                       getattr(report, method)))
        self._patch(np.random, "default_rng", self._count_generators(np.random.default_rng))
        sim_run = getattr(self.modules.get("sim"), "run", None)
        if sim_run is not None:
            self._run_signature = inspect.signature(sim_run)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count_generators(self, default_rng):
        tracer = self

        @functools.wraps(default_rng)
        def wrapper(*args, **kwargs):
            if tracer.sim_depth:
                tracer.counters["sim.generators"] += 1
            return default_rng(*args, **kwargs)

        return wrapper

    def _wrap(self, name, layer, fn):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        group = _GROUP_OF.get(name)
        self.group_idx.append(self.groups.index(group) if group else -1)
        hook = {
            "fading.sample": self._on_sample,
            "fading.survival": self._on_survival,
            "sim.run": self._on_run,
            "sim.placement_streams": self._on_streams,
        }.get(name)
        is_sim = layer == "sim"
        push, pop = self._push, self._pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = push(idx, is_sim)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                pop(frame, is_sim)
                if done and hook is not None:
                    hook(frame, args, kwargs, result)
            return result

        return wrapper

    # -- span bookkeeping -------------------------------------------------

    def _push(self, idx, is_sim):
        frame = _Frame()
        frame.idx = idx
        frame.child_ns = 0
        frame.span = self.next_span
        self.next_span += 1
        frame.parent = self.stack[-1].span if self.stack else -1
        frame.in_sim = self.sim_depth > 0
        if is_sim:
            self.sim_depth += 1
        g = self.group_idx[idx]
        if g >= 0:
            self.group_depth[g] += 1
        self.stack.append(frame)
        frame.start = time.perf_counter_ns()
        return frame

    def _pop(self, frame, is_sim):
        end = time.perf_counter_ns()
        self.stack.pop()
        duration = end - frame.start
        idx = frame.idx
        self.calls[idx] += 1
        self.total_ns[idx] += duration
        self.self_ns[idx] += duration - frame.child_ns
        if self.stack:
            self.stack[-1].child_ns += duration
        if is_sim:
            self.sim_depth -= 1
        g = self.group_idx[idx]
        if g >= 0:
            self.group_depth[g] -= 1
            if self.group_depth[g] == 0:
                self.group_calls[g] += 1
                self.group_ns[g] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.span, frame.parent, self.job, idx, frame.start, end))
        else:
            self.dropped += 1

    def _add_work(self, group, amount):
        self.group_work[self.groups.index(group)] += amount

    def _on_sample(self, frame, args, kwargs, result):
        draws = int(np.size(result))
        self._add_work("fading.sample", draws)
        if frame.in_sim:
            self.counters["sim.gain_draws"] += draws

    def _on_survival(self, frame, args, kwargs, result):
        self._add_work("fading.survival", int(np.size(result)))

    def _on_run(self, frame, args, kwargs, result):
        bound = self._run_signature.bind(*args, **kwargs)
        placements = int(bound.arguments["n_placements"])
        slots = int(bound.arguments["n_slots"])
        self.counters["sim.reported_slots"] += placements * slots
        if self._warmup_slots is not None:
            self.counters["sim.slot_steps"] += placements * (self._warmup_slots(slots) + slots)

    def _on_streams(self, frame, args, kwargs, result):
        arrays = result if isinstance(result, tuple) else (result,)
        nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.ndim == 2)
        peak = self.counters["sim.gain_bytes_peak"]
        self.counters["sim.gain_bytes_peak"] = max(peak, nbytes)

    # -- results ----------------------------------------------------------

    def _present(self, *names):
        return any(n in self.names for n in names)

    def _by_name(self, table, name):
        return table[self.names.index(name)]

    def _group(self, table, group):
        return table[self.groups.index(group)]

    def metrics(self, reported_slots=None) -> dict:
        """Per-layer values; a metric whose functions no longer exist is None.

        `reported_slots` is the placement-slots the round's jobs report on; when
        the workload does not know it, the sim.run arguments supply it.
        """
        out = {}

        def group_metrics(prefix, group, calls=True, work=None):
            if not self._present(*GROUPS[group]):
                return
            if calls:
                out[f"{prefix}_calls"] = self._group(self.group_calls, group)
            if work:
                out[f"{prefix}_{work}"] = self._group(self.group_work, group)
            out[f"{prefix}_s"] = self._group(self.group_ns, group) / 1e9

        group_metrics("numerics.gamma", "numerics.gamma")
        group_metrics("numerics.quad", "numerics.quad")
        group_metrics("fading.sample", "fading.sample", work="draws")
        group_metrics("fading.survival", "fading.survival", work="points")
        if self._present("analysis.evaluate"):
            out["analysis.evaluate_calls"] = self._by_name(self.calls, "analysis.evaluate")
            out["analysis.evaluate_self_s"] = self._by_name(self.self_ns, "analysis.evaluate") / 1e9
        if self._present("analysis.effective_range"):
            out["analysis.effective_range_calls"] = self._by_name(self.calls, "analysis.effective_range")
        if self._present(*GROUPS["analysis.quadrature"]):
            out["analysis.quadrature_s"] = self._group(self.group_ns, "analysis.quadrature") / 1e9
        if self._present("sim.run"):
            out["sim.run_calls"] = self._by_name(self.calls, "sim.run")
            out["sim.slot_loop_s"] = self._by_name(self.self_ns, "sim.run") / 1e9
            if self._warmup_slots is not None:
                out["sim.slot_steps"] = self.counters["sim.slot_steps"]
        if self._present("sim.placement_streams"):
            out["sim.streams_s"] = self._group(self.group_ns, "sim.streams") / 1e9
            out["sim.gain_bytes_peak"] = self.counters["sim.gain_bytes_peak"]
        out["sim.generators"] = self.counters["sim.generators"]
        if self._present("fading.sample"):
            out["sim.gain_draws"] = self.counters["sim.gain_draws"]
            if reported_slots is None and self._present("sim.run"):
                reported_slots = self.counters["sim.reported_slots"]
            if reported_slots is not None:
                draws = self.counters["sim.gain_draws"]
                out["sim.draws_per_reported_slot"] = draws / reported_slots if reported_slots else 0.0
        if self._present("cli.main"):
            out["cli.jobs"] = self._by_name(self.calls, "cli.main")
        if self._present(*GROUPS["cli.emit"]):
            out["cli.emit_s"] = self._group(self.group_ns, "cli.emit") / 1e9
        cli_self = [ns for ns, layer in zip(self.self_ns, self.layer_of) if layer == "cli"]
        if cli_self:
            out["cli.self_s"] = sum(cli_self) / 1e9
        return {name: out.get(name) for name, _ in METRICS}

    def profile(self) -> dict:
        """Calls, total and self seconds of every wrapped function that ran."""
        return {
            name: {"calls": calls, "total_s": total / 1e9, "self_s": own / 1e9}
            for name, calls, total, own in zip(self.names, self.calls, self.total_ns, self.self_ns)
            if calls
        }

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON: one [id, parent, job, name, start_ns, end_ns] each."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["span", "parent", "job", "name", "start_ns", "end_ns"],
                    "names": self.names,
                    "dropped": self.dropped,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
