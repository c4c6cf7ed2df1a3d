"""Span tracing of the program's layers for the benchmark's traced runs.

``Tracer.install`` wraps the public functions of each layer module (plus
a few private entry points that carry a layer's work) and rebinds every
``ionreadout`` module attribute that refers to the original, so
``ionreadout.scenario.simulate_dataset`` and ``ionreadout.cli.
adaptive_classify_batch`` are traced the same as the definitions in
their home modules.  Each call records a span (name, start, end,
parent); functions called once per trial or per point are aggregated
into one count and one total per parent instead.  ``layer_metrics``
turns the spans into the per-layer metrics listed in ``METRICS``.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("photon_sim", "readout", "io", "scenario", "cli", "timing", "optics", "rfcircuit")

# Private functions that are the layer's entry point for some caller.
EXTRA = {
    "readout": ("_log_bayes_update",),
    "io": ("_write_rows",),
    "cli": ("_cmd_simulate", "_cmd_classify", "_cmd_calibrate", "_cmd_run"),
}
# Called once per trial, per sweep point or per fit evaluation: aggregated.
PER_ITEM = {
    "photon_sim": ("simulate_trial", "apply_herald"),
    "readout": ("threshold_classify", "adaptive_classify", "bayes_step", "_log_bayes_update"),
    "optics": ("expected_rate",),
    "rfcircuit": ("predict_counts", "reduced_current"),
}

# metric -> (unit, better, layer, functions whose busy time or count it sums)
METRICS = {
    "photon_sim.simulate_s": ("s", "lower", "photon_sim", ("simulate_dataset", "simulate_trial")),
    "photon_sim.bins": ("count", "lower", "photon_sim", ("simulate_dataset",)),
    "photon_sim.herald_s": ("s", "lower", "photon_sim", ("apply_herald_dataset", "apply_herald")),
    "photon_sim.timetags_s": ("s", "lower", "photon_sim", ("simulate_timetag_streams",)),
    "photon_sim.tags": ("count", "lower", "photon_sim", ("simulate_timetag_streams",)),
    "readout.threshold_s": ("s", "lower", "readout", ("optimize_threshold",)),
    "readout.sweep_s": ("s", "lower", "readout", ("optimize_threshold", "threshold_error_vs_duration")),
    "readout.adaptive_s": ("s", "lower", "readout",
                           ("adaptive_classify_batch", "adaptive_classify", "bayes_step")),
    "readout.adaptive_bins_stepped": ("count", "lower", "readout", ("_log_bayes_update",)),
    "readout.adaptive_useful_ratio": ("ratio", "higher", "readout",
                                      ("adaptive_classify_batch", "_log_bayes_update")),
    "readout.calibrate_s": ("s", "lower", "readout", ("calibrate_rates",)),
    "readout.stats_s": ("s", "lower", "readout", ("error_stats",)),
    "readout.classify_calls": ("count", "lower", "readout", ("threshold_classify",)),
    "io.write_s": ("s", "lower", "io", ("write_trajectories_csv", "write_results_csv", "_write_rows")),
    "io.read_s": ("s", "lower", "io", ("read_trajectories_csv",)),
    "io.bytes_written": ("bytes", "lower", "io", ("write_trajectories_csv", "write_results_csv", "_write_rows")),
    "io.rows_written": ("count", "lower", "io", ("write_trajectories_csv", "write_results_csv", "_write_rows")),
    "io.rows_read": ("count", "lower", "io", ("read_trajectories_csv",)),
    "scenario.load_s": ("s", "lower", "scenario", ("load_scenario", "parse_flat_config")),
    "scenario.self_s": ("s", "lower", "scenario", ("run_scenario",)),
    "cli.simulate_s": ("s", "lower", "cli", ("_cmd_simulate",)),
    "cli.classify_s": ("s", "lower", "cli", ("_cmd_classify",)),
    "cli.calibrate_s": ("s", "lower", "cli", ("_cmd_calibrate",)),
    "cli.self_s": ("s", "lower", "cli", ("main",)),
    "timing.g2_s": ("s", "lower", "timing", ("g2_estimate", "find_dip")),
    "timing.pairs": ("count", "lower", "timing", ("g2_estimate",)),
    "optics.sweep_s": ("s", "lower", "optics", ("rate_vs_position", "expected_rate")),
    "optics.cells": ("count", "lower", "optics", ("expected_rate", "collection_fraction")),
    "rfcircuit.solve_s": ("s", "lower", "rfcircuit", ("solve_network",)),
    "rfcircuit.fit_s": ("s", "lower", "rfcircuit", ("fit_pickup",)),
    "rfcircuit.predict_calls": ("count", "lower", "rfcircuit", ("predict_counts",)),
    "trace.overhead_s": ("s", "lower", None, ()),
}


class Tracer:
    """Records spans and counters for one traced run, in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.per_item: dict[tuple[str, str, int | None], list[float]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.files: list[tuple[str, str]] = []  # (read|write, path), sized after the run
        self.wrapped: set[tuple[str, str]] = set()
        self.unaccounted: dict[str, str] = {}  # function -> why its counter failed
        self._stack: list[int | None] = [None]

    # ---------------------------------------------------------- wrapping

    def install(self, package) -> None:
        """Wrap every layer's functions and rebind them wherever they are bound."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package.__name__}.{layer}")
            if mod is None:
                continue
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and (not n.startswith("_") or n in EXTRA.get(layer, ()))]
            for name in names:
                orig = getattr(mod, name)
                wrapper = self._wrap(layer, name, orig, name in PER_ITEM.get(layer, ()))
                self.wrapped.add((layer, name))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn, per_item: bool):
        clock = time.perf_counter
        account = _ACCOUNTING.get((layer, name))
        sig = inspect.signature(fn)

        if per_item:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    key = (layer, name, self._stack[-1])
                    entry = self.per_item.get(key)
                    if entry is None:
                        entry = self.per_item[key] = [0, 0.0]
                    entry[0] += 1
                    entry[1] += clock() - start
                    if account is not None:
                        self._account(account, name, sig, args, kwargs, None)
            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = len(self.spans)
            record = {"id": span_id, "layer": layer, "name": name,
                      "parent": self._stack[-1], "start": clock(), "end": None}
            self.spans.append(record)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record["end"] = clock()
            if account is not None:
                self._account(account, name, sig, args, kwargs, result)
            return result
        return span

    def _account(self, account, name, sig, args, kwargs, result) -> None:
        # A counter that no longer fits the program's signature or result
        # type is reported, not allowed to break the traced run.
        try:
            account(self, sig.bind(*args, **kwargs).arguments, result)
        except (KeyError, AttributeError, TypeError, IndexError, ValueError) as exc:
            self.unaccounted[name] = f"{type(exc).__name__}: {exc}"

    # ---------------------------------------------------------- results

    def settle_files(self) -> None:
        """Size the files the traced run wrote and read (after the clock)."""
        for kind, path in self.files:
            p = Path(path)
            if not p.is_file():
                continue
            with open(p, "rb") as fh:
                rows = max(sum(1 for _ in fh) - 1, 0)
            if kind == "write":
                self.counters["io.bytes_written"] += p.stat().st_size
                self.counters["io.rows_written"] += rows
            else:
                self.counters["io.rows_read"] += rows
        self.files.clear()

    def dump(self, path) -> None:
        """Write spans, per-item aggregates and counters as JSON."""
        Path(path).write_text(json.dumps({
            "spans": self.spans,
            "per_item": [dict(layer=l, name=n, parent=p, count=c, total_s=t)
                         for (l, n, p), (c, t) in self.per_item.items()],
            "counters": dict(self.counters),
        }))

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, float], list[str]]:
        """Per-layer metrics, per-layer self time, and what could not be measured.

        A metric's busy time sums its functions' calls that are not nested
        inside another call of the same metric.  A layer's self time is the
        time inside its calls not covered by calls they made into any
        traced function, so the self times of all layers add up to the
        time covered by top-level calls.
        """
        by_id = {s["id"]: s for s in self.spans}

        def dur(s):
            return s["end"] - s["start"]

        def nested_in(parent, names):
            while parent is not None:
                if by_id[parent]["name"] in names:
                    return True
                parent = by_id[parent]["parent"]
            return False

        def busy(names, pick=None):
            total = sum(dur(s) for s in self.spans
                        if s["name"] in names and not nested_in(s["parent"], names)
                        and (pick is None or pick(s)))
            total += sum(t for (_, n, p), (_, t) in self.per_item.items()
                         if n in names and not nested_in(p, names) and pick is None)
            return total

        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += dur(s)
        for (_, _, p), (_, t) in self.per_item.items():
            if p is not None:
                child_time[p] += t
        self_time: dict[str, float] = defaultdict(float)
        for s in self.spans:
            self_time[s["layer"]] += dur(s) - child_time[s["id"]]
        for (layer, _, _), (_, t) in self.per_item.items():
            self_time[layer] += t

        # The first optimize_threshold under a caller is its operating point;
        # the rest are that caller's duration sweep.
        first_threshold = set()
        seen_parents = set()
        for s in self.spans:
            if s["name"] == "optimize_threshold" and s["parent"] not in seen_parents:
                seen_parents.add(s["parent"])
                first_threshold.add(s["id"])

        calls = defaultdict(int)
        for (layer, name, _), (count, _) in self.per_item.items():
            calls[(layer, name)] += count

        out: dict[str, float] = {}
        absent = []
        for metric, (unit, _, layer, names) in METRICS.items():
            if layer is None:
                continue
            if not any((layer, n) in self.wrapped for n in names):
                absent.append(metric)
                out[metric] = 0.0
                continue
            if metric in ("scenario.self_s", "cli.self_s"):
                out[metric] = self_time[layer]
            elif metric == "readout.threshold_s":
                out[metric] = busy(names, lambda s: s["id"] in first_threshold)
            elif metric == "readout.sweep_s":
                out[metric] = (busy(("optimize_threshold",),
                                    lambda s: s["id"] not in first_threshold)
                               + busy(("threshold_error_vs_duration",)))
            elif metric in ("readout.classify_calls", "rfcircuit.predict_calls"):
                out[metric] = float(calls[(layer, names[0])])
            elif metric == "readout.adaptive_useful_ratio":
                stepped = self.counters["readout.adaptive_bins_stepped"]
                useful = self.counters["readout.adaptive_bins_useful"]
                out[metric] = useful / stepped if stepped else 0.0
            elif unit == "s":
                out[metric] = busy(names)
            else:
                out[metric] = float(self.counters[metric])
        absent += [f"{name} counter ({why})" for name, why in self.unaccounted.items()]
        return out, dict(self_time), absent


# Counters taken from a call's arguments and result.  Each receives the
# tracer, the bound arguments and the result (None for per-item calls).

def _count_bins(tr, args, result):
    tr.counters["photon_sim.bins"] += 2 * args["trials_per_state"] * args["cfg"].n_bins


def _count_tags(tr, args, result):
    tr.counters["photon_sim.tags"] += sum(s.t_ns.size for s in result)


def _count_stepped(tr, args, result):
    # One filter step of the batch loop: as many trial-bins as the
    # posterior arrays it updates hold.
    parent = tr._stack[-1]
    if parent is not None and tr.spans[parent]["name"] == "adaptive_classify_batch":
        tr.counters["readout.adaptive_bins_stepped"] += int(np.size(args["log_pb"]))


def _count_useful(tr, args, result):
    top = max(result, key=lambda r: r.confidence_level)
    tr.counters["readout.adaptive_bins_useful"] += int(top.bins_consumed.sum())


def _count_pairs(tr, args, result):
    tr.counters["timing.pairs"] += int(result.n_pairs.sum())


def _count_cells(tr, args, result):
    scene = args["scene"]
    tr.counters["optics.cells"] += (round(scene.detector_w_um / scene.grid_pitch_um)
                                    * round(scene.detector_h_um / scene.grid_pitch_um))


def _note_file(kind):
    def note(tr, args, result):
        # only the outermost io call of a nest touches the counters
        parent = tr._stack[-1]
        if parent is not None and tr.spans[parent]["layer"] == "io":
            return
        tr.files.append((kind, str(args["path"])))
    return note


_ACCOUNTING = {
    ("photon_sim", "simulate_dataset"): _count_bins,
    ("photon_sim", "simulate_timetag_streams"): _count_tags,
    ("readout", "_log_bayes_update"): _count_stepped,
    ("readout", "adaptive_classify_batch"): _count_useful,
    ("timing", "g2_estimate"): _count_pairs,
    ("optics", "expected_rate"): _count_cells,
    ("optics", "collection_fraction"): _count_cells,
    ("io", "read_trajectories_csv"): _note_file("read"),
    ("io", "_write_rows"): _note_file("write"),
    ("io", "write_trajectories_csv"): _note_file("write"),
    ("io", "write_results_csv"): _note_file("write"),
}
