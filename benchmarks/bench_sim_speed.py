"""Simulator-speed benchmark: the vectorized event core vs the frozen
PR 6 reference on a production multi-tenant scenario -- emitted as a
table and as machine-readable ``BENCH_sim_speed.json``.

The acceptance claim (ISSUE 7): on a 100k-request
``multi_tenant_prod``-class run, the batched event engine (bulk quiet
decode lane, cross-pod quiet horizon, in-span KV block growth, cost
memoization) completes at least 10x faster than the PR 6 code path
while producing a digest-identical :class:`ClusterReport` -- same
floats, same event order, same JSON.

Two modes share one scenario shape, scaled by stretching the arrival
traces' duration (rates, tenants, policies untouched):

- smoke (default, CI): ``SMOKE_SCALE`` -- a ~1.3k-request run that
  checks digest equality end-to-end and a conservative speedup floor.
- full: ``REPRO_SIM_SPEED_FULL=1`` -- the 100k-request pinned run the
  committed JSON is produced from (several minutes: it runs the
  reference simulator too).

Only a full run writes ``BENCH_sim_speed.json``: a smoke run checks the
same claims at its own floor and prints its table, but must never
replace the full-scale record.
"""

import dataclasses
import os
import time
from pathlib import Path

from conftest import emit

import _reference_sim
from _emit import write_bench_json
from repro import TraceConfig
from repro.api import (
    AdmissionConfig,
    ArrivalTrace,
    AutoscalerConfig,
    PodGroup,
    PrefillPolicy,
    Scenario,
    TenantSpec,
    TrafficSpec,
)
from repro.models.llama3 import LLAMA3_8B
from repro.serving import BATCH, INTERACTIVE, STANDARD
from repro.serving.cluster import ClusterSim
from repro.serving.engine import report_digest
from repro.util.profiling import Timer
from repro.util.tables import Table

JSON_PATH = Path(__file__).resolve().parent / "BENCH_sim_speed.json"

SMOKE_SCALE = 8          # ~1.3k requests; CI-sized
FULL_SCALE = 600         # ~102k requests (>= the 100k the pin names)
SMOKE_MIN_SPEEDUP = 4.0  # measured ~10x; floor leaves CI-machine slack
FULL_MIN_SPEEDUP = 10.0  # the ISSUE 7 acceptance pin
MAX_TRACE_OVERHEAD = 1.25  # traced run may cost at most 25% wall-clock
TRACE_TIMING_ROUNDS = 3    # min-of-N absorbs machine noise
FULL = bool(os.environ.get("REPRO_SIM_SPEED_FULL"))


def scenario(scale: float) -> Scenario:
    """The ``multi_tenant_prod`` roster with its arrival traces
    stretched to ``scale`` x the preset's 40 s window -- same tenants,
    rates, policies, admission control and autoscaler."""
    duration_s = 40.0 * scale
    tenants = (
        TenantSpec(
            "interactive",
            traffic=TrafficSpec(
                prompt_mean=512, decode_mean=256, seed=11,
                trace=ArrivalTrace.diurnal(2.0, duration_s, seed=11),
            ),
            slo=INTERACTIVE, priority=2, weight=2.0,
        ),
        TenantSpec(
            "agentic",
            traffic=TrafficSpec(
                prompt_mean=2048, decode_mean=512, seed=12,
                prefix_share_prob=0.85, prefix_fanout=8, prefix_frac=0.75,
                trace=ArrivalTrace.diurnal(1.5, duration_s, seed=12),
            ),
            slo=STANDARD, priority=1, weight=1.0,
        ),
        TenantSpec(
            "batch",
            traffic=TrafficSpec(
                rate_rps=0.75, duration_s=duration_s,
                prompt_mean=1024, decode_mean=4096, seed=13,
            ),
            slo=BATCH, priority=0, weight=0.5,
        ),
    )
    return Scenario(
        model=LLAMA3_8B,
        name="sim_speed",
        traffic=TrafficSpec(tenants=tenants),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
        prefill_policy=PrefillPolicy.PRIORITY,
        prefix_caching=True,
        admission=AdmissionConfig(enabled=True),
        autoscaler=AutoscalerConfig(),
    )


def build(scale: float):
    """(config, requests) for one run; called once per simulator so
    each gets a fresh, identically-seeded request list."""
    scn = scenario(scale)
    return scn.cluster(), scn.requests()


def timed_run(scale: float, *, traced: bool, rounds: int):
    """Min-of-``rounds`` wall-clock for one engine run (fresh config
    and request list per round), plus the last report's digest."""
    best_s = float("inf")
    digest = ""
    for _ in range(rounds):
        config, requests = build(scale)
        if traced:
            config = dataclasses.replace(config, trace=TraceConfig())
        t0 = time.perf_counter()
        report = ClusterSim(config).run(requests)
        best_s = min(best_s, time.perf_counter() - t0)
        digest = report_digest(report)
    return best_s, digest


def test_sim_speed(benchmark):
    scale = FULL_SCALE if FULL else SMOKE_SCALE
    config, requests = build(scale)
    num_requests = len(requests)
    if FULL:
        assert num_requests >= 100_000

    report = benchmark.pedantic(
        lambda: ClusterSim(config).run(requests), rounds=1, iterations=1
    )
    new_s = benchmark.stats.stats.total

    ref_config, ref_requests = build(scale)
    with Timer("reference") as ref_timer:
        ref_report = _reference_sim.simulate(ref_config, ref_requests)
    ref_s = ref_timer.elapsed_s

    # -- digest-identical reports: same lifecycle floats, same event
    # order, same serialized JSON -------------------------------------
    digest = report_digest(report)
    assert digest == report_digest(ref_report)

    speedup = ref_s / new_s
    floor = FULL_MIN_SPEEDUP if FULL else SMOKE_MIN_SPEEDUP
    assert speedup >= floor, (
        f"engine speedup {speedup:.2f}x under the {floor:.0f}x floor "
        f"(new {new_s:.2f}s vs reference {ref_s:.2f}s)"
    )

    # -- observability overhead: the traced run must stay digest-
    # identical (zero-cost-off is pinned in the test suite; this pins
    # bounded-cost-ON) and within MAX_TRACE_OVERHEAD of the untraced
    # wall-clock, min-of-N timed so machine noise can't flake the bound.
    rounds = 1 if FULL else TRACE_TIMING_ROUNDS
    untraced_s, untraced_digest = timed_run(scale, traced=False, rounds=rounds)
    traced_s, traced_digest = timed_run(scale, traced=True, rounds=rounds)
    assert untraced_digest == digest
    assert traced_digest == digest, "tracing perturbed the simulation"
    trace_overhead = traced_s / untraced_s
    assert trace_overhead <= MAX_TRACE_OVERHEAD, (
        f"traced run cost {trace_overhead:.3f}x the untraced one, over the "
        f"{MAX_TRACE_OVERHEAD:.2f}x bound "
        f"(traced {traced_s:.3f}s vs untraced {untraced_s:.3f}s)"
    )

    table = Table("Simulator speed: batched engine vs PR 6 reference",
                  ["metric", "value"])
    table.add_row(["mode", "full (pinned)" if FULL else "smoke"])
    table.add_row(["requests", f"{num_requests:,}"])
    table.add_row(["decode tokens", f"{report.decode_tokens:,}"])
    table.add_row(["reference wall (s)", f"{ref_s:.2f}"])
    table.add_row(["batched engine wall (s)", f"{new_s:.2f}"])
    table.add_row(["speedup", f"{speedup:.2f}x"])
    table.add_row(["trace overhead", f"{trace_overhead:.3f}x"])
    table.add_row(["report digest", digest[:16]])
    emit(table)
    if not FULL:
        return

    write_bench_json(
        JSON_PATH,
        "sim_speed",
        config={
            "mode": "full",
            "scale": scale,
            "min_speedup": floor,
            "max_trace_overhead": MAX_TRACE_OVERHEAD,
        },
        metrics={
            "requests": num_requests,
            "decode_tokens": report.decode_tokens,
            "reference_wall_s": ref_s,
            "engine_wall_s": new_s,
            "speedup": speedup,
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "trace_overhead": trace_overhead,
            "digest": digest,
            "digest_match": True,
            "report": {
                "goodput": report.goodput,
                "tokens_per_s": report.tokens_per_s,
                "ttft_p95_s": report.ttft_percentile(95),
                "completed": len(report.completed),
                "shed": len(report.shed),
            },
        },
    )
    emit(f"wrote {JSON_PATH.name}")
