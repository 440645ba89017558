"""The benchmark's three workloads, built from a workload seed.

Every workload is a :class:`repro.api.Scenario`; the simulator only
ever sees the ``Request`` list its ``requests()`` call generates.

A run of one workload simulates :data:`PARTS` independent fleets
("parts"), each a full scenario over a fixed multiple of its preset's
arrival window.  Several short simulations instead of one long one
keep every timed run short enough for the calibration around it to
track the host's speed (see ``calibrate.py``), while the parts
together carry enough traffic that results move little between
workload seeds.

Seed rule: part ``i`` of workload seed ``n`` adds ``n * parts + i`` to
every tenant's ``TrafficSpec.seed`` and to the seed of its
``ArrivalTrace``.  Part 0 of seed 0 therefore uses the preset seeds
(``multi_tenant_prod``: 11/12/13, ``reasoning_prod``: 21/22), and no
two parts of any two seeds share traffic.

Why each workload exists (which simulator layer dominates it):

- ``multi_tenant``: the ``multi_tenant_prod`` roster.  The bulk quiet
  decode lane collapses almost every decode step, so the analytic cost
  models and the lane's replay loop dominate host time.
- ``multi_tenant_specdec``: the same traffic with fleet-wide
  speculative decoding.  Speculation bypasses the bulk lane, so every
  decode step takes the per-step scheduler/engine/``step_cost`` path.
- ``reasoning_prod``: the registered preset as is (chain-of-thought
  tool pauses with the AUTO swap tier, self-consistency fan-out).
  Pending tool pauses defeat the lane; scheduler, cluster and engine
  dominate, cost models are negligible, and only this workload parks
  and swaps KV.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import (
    AdmissionConfig,
    ArrivalTrace,
    AutoscalerConfig,
    PodGroup,
    PrefillPolicy,
    Scenario,
    TenantSpec,
    TrafficSpec,
    scenario,
)
from repro.models.llama3 import LLAMA3_8B
from repro.serving import BATCH, INTERACTIVE, STANDARD
from repro.specdec import SpecDecConfig

#: The served model of every workload (the simulator-speed model).
MODEL = LLAMA3_8B

#: Parts per run and the arrival window of each, as a multiple of the
#: preset's (40 s for ``multi_tenant_prod``, 30 s for
#: ``reasoning_prod``).  Traffic totals and tail latencies vary less
#: across workload seeds the more traffic a run carries: the
#: ``multi_tenant`` pair's decode tokens spread ~6% (IQR/median over
#: seeds) at 8x the preset's window against ~20% at 1x.  The specdec
#: per-step path (~5 us per decode token) caps the total there.
#: ``reasoning_prod`` is one fleet of the preset as is (see ``run.py``
#: for why ``BENCHMARK.json`` leaves it out).
PARTS = {
    "multi_tenant": (4, 2.0),
    "multi_tenant_specdec": (4, 2.0),
    "reasoning_prod": (1, 1.0),
}

WORKLOADS = tuple(PARTS)


def multi_tenant_scenario(
    scale: float, seed: int = 0, *, specdec: SpecDecConfig | None = None
) -> Scenario:
    """The ``multi_tenant_prod`` roster over ``scale`` x its 40 s
    window: same tenants, rates, SLOs, admission and autoscaler."""
    duration_s = 40.0 * scale
    tenants = (
        TenantSpec(
            "interactive",
            traffic=TrafficSpec(
                prompt_mean=512, decode_mean=256, seed=11 + seed,
                trace=ArrivalTrace.diurnal(2.0, duration_s, seed=11 + seed),
            ),
            slo=INTERACTIVE, priority=2, weight=2.0,
        ),
        TenantSpec(
            "agentic",
            traffic=TrafficSpec(
                prompt_mean=2048, decode_mean=512, seed=12 + seed,
                prefix_share_prob=0.85, prefix_fanout=8, prefix_frac=0.75,
                trace=ArrivalTrace.diurnal(1.5, duration_s, seed=12 + seed),
            ),
            slo=STANDARD, priority=1, weight=1.0,
        ),
        TenantSpec(
            "batch",
            traffic=TrafficSpec(
                rate_rps=0.75, duration_s=duration_s,
                prompt_mean=1024, decode_mean=4096, seed=13 + seed,
            ),
            slo=BATCH, priority=0, weight=0.5,
        ),
    )
    return Scenario(
        model=MODEL,
        name="multi_tenant_prod",
        traffic=TrafficSpec(tenants=tenants),
        prefill=(PodGroup("gpu", count=2),),
        decode=(PodGroup("rpu", count=2),),
        prefill_policy=PrefillPolicy.PRIORITY,
        prefix_caching=True,
        admission=AdmissionConfig(enabled=True),
        autoscaler=AutoscalerConfig(),
        specdec=specdec,
    )


def reasoning_scenario(scale: float = 1.0, seed: int = 0) -> Scenario:
    """The registered ``reasoning_prod`` preset over ``scale`` x its
    30 s window, with every tenant's seed offset by ``seed`` (its
    tenants sample Poisson arrivals; none replays a trace)."""
    preset = scenario("reasoning_prod", MODEL)
    tenants = tuple(
        replace(
            t,
            traffic=replace(
                t.traffic,
                seed=t.traffic.seed + seed,
                duration_s=t.traffic.duration_s * scale,
            ),
        )
        for t in preset.traffic.tenants
    )
    if any(t.traffic.trace is not None for t in tenants):
        raise ValueError("reasoning_prod gained an arrival trace; offset its seed too")
    return replace(preset, traffic=replace(preset.traffic, tenants=tenants))


def build(name: str, seed: int = 0, window: float = 1.0) -> Scenario:
    """One fleet of the named workload: its preset over ``window`` x
    the preset's arrival window, every tenant seed offset by ``seed``."""
    if name == "multi_tenant":
        return multi_tenant_scenario(window, seed)
    if name == "multi_tenant_specdec":
        return multi_tenant_scenario(window, seed, specdec=SpecDecConfig())
    if name == "reasoning_prod":
        return reasoning_scenario(window, seed)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


def parts(name: str, seed: int = 0, scale: float = 1.0) -> list[tuple[int, float]]:
    """``(seed offset, window)`` of each part of workload seed ``seed``;
    ``scale`` shrinks the windows (the harness test uses it)."""
    if name not in PARTS:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    count, window = PARTS[name]
    return [(seed * count + i, window * scale) for i in range(count)]
