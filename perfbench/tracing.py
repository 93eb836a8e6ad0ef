"""In-memory span tracer for the nfmimo pipeline, installed from outside the package.

The tracer replaces public functions at the module attributes through which
their callers look them up (for example `nfmimo.stats.matrix_parts`, which
`mean_capacity` calls, and `nfmimo.channel.matrix_parts`, which
`channel_matrix` calls) with wrappers that record one span per call: name,
start, end, parent span and invocation id. Spans stay in memory until the
pass ends. The parent stack is thread-local; a thread of the realization
pool starts with an empty stack, and its spans are parented to the span the
installing thread is blocked in, so runs with NFMIMO_THREADS > 1 nest too.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import nfmimo.channel
import nfmimo.cli
import nfmimo.harness
import nfmimo.scattering
import nfmimo.stats

# Modules whose spans, together with harness.write, should account for the
# traced wall time below cli.main.
WORK_MODULES = ("stats", "channel", "scattering", "geometry")

_STATS_FUNCTIONS = (
    "mean_capacity",
    "model_error_delta",
    "ro_complexity",
    "spatial_ccf_series",
    "temporal_acf_series",
    "frequency_cf_series",
)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.invocation = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installer_stack = self._stack()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def maximum(self, counter: str, value: int) -> None:
        with self._lock:
            self.counters[counter] = max(self.counters[counter], value)

    def _replace(self, owner: object, attr: str, original, replacement) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str, on_return=None) -> None:
        """Record a span named `name` for every call of `owner.attr`.

        on_return(tracer, arguments, result), if given, runs after the call
        with the call's bound arguments, outside the span.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if on_return else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                installer = self._installer_stack
                parent = installer[-1] if installer and stack is not installer else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.invocation))
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        self._replace(owner, attr, original, traced)

    def count(self, owner: object, attr: str, counter: str) -> None:
        """Count calls of `owner.attr` without recording spans."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.add(counter)
            return original(*args, **kwargs)

        self._replace(owner, attr, original, counted)

    def install(self) -> None:
        """Wrap the pipeline's public functions at every binding its callers use."""
        stats, channel, scattering, harness = nfmimo.stats, nfmimo.channel, nfmimo.scattering, nfmimo.harness
        self.wrap(nfmimo.cli, "main", "cli.main")
        self.wrap(nfmimo.cli, "run_experiment", "harness.run_experiment")
        self.wrap(stats.CorrelationSeries, "to_csv", "harness.write")
        self.wrap(harness.RunManifest, "to_json", "harness.write")
        for fn in _STATS_FUNCTIONS:
            self.wrap(harness, fn, f"stats.{fn}", on_return=_count_realizations)
        for module in (harness, stats):
            self.wrap(module, "field_for_realization", "scattering.field", on_return=_count_rays)
        self.wrap(scattering.ScattererField, "positions", "scattering.positions")
        self.wrap(scattering.ScattererField, "phases", "scattering.positions")
        self.count(scattering, "sample_von_mises", "scattering.von_mises_draws")
        self.wrap(stats, "channel_matrix", "channel.channel_matrix")
        for module in (stats, channel):
            self.wrap(module, "matrix_parts", "channel.matrix_parts", on_return=_count_phasors)
            self.wrap(module, "combine_parts", "channel.combine_parts")
            self.wrap(module, "nlos_delays", "channel.nlos_delays")
        self.wrap(stats, "los_phase", "channel.los_phase")
        self.wrap(stats, "nlos_ray_phases", "channel.nlos_ray_phases")
        self.wrap(channel, "make_partition", "geometry.make_partition")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self time in s).

        A span's self time is its duration minus the part of it that its
        child spans cover; children from pool threads may overlap, so the
        covered part is the union of their intervals.
        """
        children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append((span.start, span.end))
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for lo, hi in sorted(children.get(span.sid, ())):
                lo, hi = max(lo, reach), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            calls[span.name] += 1
            self_s[span.name] += (span.end - span.start) - covered
        return {name: (calls[name], self_s[name]) for name in calls}


def _count_realizations(tracer: Tracer, arguments: dict, result) -> None:
    if "n_realizations" in arguments:
        tracer.add("stats.realizations", arguments["n_realizations"])
    elif "field" in arguments:  # model_error_delta: one given field
        tracer.add("stats.realizations", 1)


def _count_rays(tracer: Tracer, arguments: dict, field) -> None:
    cfg = arguments["cfg"]
    tracer.add("scattering.rays", field.n_rays)
    if cfg.cluster_level_angles:
        tracer.add("scattering.cluster_draws", 2 * cfg.L_clusters)


def _count_phasors(tracer: Tracer, arguments: dict, result) -> None:
    cfg, n_rays = arguments["cfg"], arguments["field"].n_rays
    n_p = cfg.P_h * cfg.P_v
    tracer.add("channel.matrix_parts.phasors", n_p * n_rays + cfg.Q * n_p + cfg.Q * n_rays)
    # complex128 departure table, P x N
    tracer.maximum("channel.matrix_parts.table_bytes", 16 * n_p * n_rays)
