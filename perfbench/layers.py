"""Per-layer host-time ledger: wrappers around layer-boundary functions.

:class:`LayerTracer` replaces each probed function *at the attribute it
is looked up from* (a class attribute for methods, the importing
module's global for functions imported by name) with a wrapper that
counts calls, accumulates inclusive time, and subtracts the inclusive
time of wrapped children to get self time.  Spans (name, start, end,
parent span) are kept in memory up to :data:`MAX_SPANS` and exported as
a Chrome trace.  Leaving the ``with`` block restores every original
attribute, so nothing in the program changes outside a traced run.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

import repro.api
import repro.gpu.inference
import repro.platform.rpu
from repro.platform import GpuPlatform, RpuPlatform
from repro.serving import engine
from repro.serving.cluster import ClusterReport, ClusterSim, DecodePod
from repro.serving.engine import EventCalendar
from repro.serving.kvstore import KvBlockStore
from repro.serving.requests import RequestGenerator
from repro.serving.scheduler import ContinuousBatchScheduler
from repro.specdec import SpecDecConfig

#: Spans kept per tracer (~170 bytes each in the Chrome trace); calls
#: beyond it are still counted and timed, and reported as dropped.
MAX_SPANS = 50_000


@dataclass(frozen=True)
class Probe:
    """One wrapped attribute: ``owner.attr`` is billed to ``key``
    (several probes may share a key) inside ``layer``."""

    layer: str
    key: str
    owner: object
    attr: str


def _public_methods(layer: str, cls: type) -> list[Probe]:
    """Every public plain function defined on ``cls`` (properties and
    generators excluded: a wrapper would time only their creation)."""
    probes = []
    for name, value in vars(cls).items():
        if name.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__code__", None) is None or value.__code__.co_flags & 0x20:
            continue
        probes.append(Probe(layer, f"{layer}.{name}", cls, name))
    return probes


def default_probes() -> list[Probe]:
    """The benchmark's layer boundaries.

    ``engine`` is the calendar's push/pop only: wrapping ``run_loop``
    would bill every (unwrapped) cluster event handler to the engine.
    Whatever ``ClusterSim.run`` does outside its wrapped children --
    event handlers, the bulk quiet lane -- is ``cluster`` self time.
    """
    return [
        Probe("requests", "requests.generate", RequestGenerator, "generate"),
        Probe("requests", "requests.generate", RequestGenerator, "replay"),
        Probe("requests", "requests.generate", repro.api, "merge_requests"),
        Probe("costmodel", "platform.prefill", RpuPlatform, "prefill"),
        Probe("costmodel", "platform.prefill", GpuPlatform, "prefill"),
        Probe("costmodel", "platform.decode_step", RpuPlatform, "decode_step"),
        Probe("costmodel", "platform.decode_step", GpuPlatform, "decode_step"),
        Probe("costmodel", "perf_model.decode_step_perf",
              repro.platform.rpu, "decode_step_perf"),
        Probe("costmodel", "flops.chunked_prefill_flops",
              repro.platform.rpu, "chunked_prefill_flops"),
        Probe("costmodel", "flops.chunked_prefill_flops",
              repro.gpu.inference, "chunked_prefill_flops"),
        Probe("costmodel", "cluster.step_cost", DecodePod, "step_cost"),
        Probe("costmodel", "specdec.effective_step_cost",
              SpecDecConfig, "effective_step_cost"),
        *_public_methods("scheduler", ContinuousBatchScheduler),
        *_public_methods("kvstore", KvBlockStore),
        Probe("engine", "engine.push", EventCalendar, "push"),
        Probe("engine", "engine.pop_batch", EventCalendar, "pop_batch"),
        Probe("cluster", "cluster.run", ClusterSim, "run"),
        Probe("report", "report.to_json", ClusterReport, "to_json"),
        Probe("report", "report.summary_table", ClusterReport, "summary_table"),
        Probe("report", "report.percentile", ClusterReport, "ttft_percentile"),
        Probe("report", "report.percentile", ClusterReport, "tpot_percentile"),
        Probe("report", "report.percentile", ClusterReport, "e2e_percentile"),
        Probe("report", "report.digest", engine, "report_digest"),
    ]


class KeyStats:
    """Calls, inclusive and self seconds of one ledger key."""

    __slots__ = ("layer", "calls", "incl_s", "self_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Context manager that wraps every probe while active.

    ``stats`` maps each key to its totals and ``spans`` holds the first
    :data:`MAX_SPANS` ``(key, start, end, parent_index)`` tuples in entry
    order (``parent_index`` -1 for a root span).
    """

    def __init__(self) -> None:
        self.probes = default_probes()
        self.stats: dict[str, KeyStats] = {}
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.spans_dropped = 0
        # One frame per open wrapped call: [children_s, span_index].
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------
    def __enter__(self) -> LayerTracer:
        for probe in self.probes:
            original = vars(probe.owner)[probe.attr]
            stats = self.stats.setdefault(probe.key, KeyStats(probe.layer))
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, self._wrap(original, probe.key, stats))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, key: str, stats: KeyStats) -> Callable:
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stats.calls += 1
                stats.incl_s += elapsed
                stats.self_s += elapsed - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                if index >= 0:
                    spans[index] = (key, start, end, parent)

        return wrapper

    # -- results ------------------------------------------------------
    def calls(self) -> dict[str, int]:
        return {key: s.calls for key, s in self.stats.items()}

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (sum over the layer's keys)."""
        totals: dict[str, float] = {}
        for s in self.stats.values():
            totals[s.layer] = totals.get(s.layer, 0.0) + s.self_s
        return totals

    def chrome_trace(self, name: str) -> dict:
        """The recorded spans as a Chrome trace (``chrome://tracing``)."""
        recorded = [(i, span) for i, span in enumerate(self.spans) if span is not None]
        origin = min((span[1] for _, span in recorded), default=0.0)
        events = [
            {
                "name": key,
                "cat": self.stats[key].layer,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent},
            }
            for index, (key, start, end, parent) in recorded
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": name, "dropped_spans": self.spans_dropped},
        }

    def write_chrome_trace(self, path, name: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(name), fh)
