"""Fleet-scale sweeps: one :class:`Sweep` over declarative scenarios.

A :class:`Sweep` takes a base :class:`~repro.api.Scenario`, a grid of
axes and a set of named metrics, and returns one flat row per grid
point: the axis columns, then the metric columns, then ``digest`` (the
run's :func:`~repro.serving.engine.report_digest`).  An axis is either

- a **field path** (``"traffic.rate_rps"``, ``"kv_budget_bytes"``,
  ``"admission.enabled"``) with a sequence of values, or
- a **label** (``"fleet"``, ``"binding"``) mapping each label to a
  ``{field path: value}`` override dict -- for joint flips such as a
  GPU-colocated vs an ISO-TDP RPU decode pool.

The grid is the cartesian product with the first axis outermost.
Requests are generated once per distinct (model, traffic) pair, so
axes that change only the fleet see identical arrivals.  Consumers
that compare two fleets pair rows by axis value.

Every study below is one declaration over a base scenario:

- **throughput_latency_curve**: offered load (RPS) on a fixed fleet;
  TTFT tails and goodput degrade as the decode pool saturates;
- **pod_scaling_curve**: decode-pod count at fixed offered load;
  delivered tokens/s grows until the pool absorbs the load;
- **gpu_vs_disaggregated**: the paper's Section I claim at fleet
  scale -- identical prefill pods, and a decode pool of either GPU
  groups (colocated) or RPU boards sized to the *same TDP*
  (ISO-power), on reasoning traffic;
- **fleet_layout_comparison**: identical traffic over arbitrary
  (possibly mixed RPU + H100 + H200) decode pools;
- **reservation_sweep**: FULL vs PAGED KV reservation at equal KV
  budget; the paged pool turns stranded capacity into batch depth;
- **prefix_hit_sweep**: prefix caching off vs on at each sharing
  level; hits buy lower TTFT and higher goodput at equal budget;
- **prefill_policy_sweep**: arrival-bound FIFO vs every late-bound
  :class:`~repro.serving.cluster.PrefillPolicy` as load saturates one
  prefill pod; late binding recovers the hits of siblings whose
  founder is still queued, and the gap widens with load;
- **swap_crossover_sweep**: recompute vs swap-to-host vs ``AUTO``
  preemption across host-link bandwidths, next to the analytic
  :func:`~repro.serving.kvstore.swap_recompute_costs`;
- **tenant_contention_sweep**: interactive and batch tenants sharing a
  fleet as load rises, admission control off and on (one row per
  tenant per run);
- **autoscaler_sweep**: a static peak-provisioned fleet vs an elastic
  one on the same flash-crowd trace; comparable goodput at lower $/Mtok;
- **specdec_acceptance_sweep**: speculative decoding at each
  acceptance rate against the no-specdec baseline; effective decode
  throughput (:func:`effective_decode_rate`) tracks
  :func:`repro.specdec.speculative_speedup`.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.api import PodGroup, Scenario, TrafficSpec
from repro.models.config import ModelConfig
from repro.platform import Platform, as_platform
from repro.serving.cluster import ClusterReport, PrefillPolicy
from repro.serving.engine import report_digest
from repro.serving.kvstore import SwapPolicy, swap_recompute_costs
from repro.serving.requests import (
    ArrivalTrace,
    Request,
    prefix_founders,
    reasoning_traffic,
    sibling_ttft_mean,
)
from repro.serving.scheduler import Reservation
from repro.serving.tenancy import BATCH, INTERACTIVE, AutoscalerConfig, TenantSpec
from repro.specdec import SpecDecConfig, SpeculativeConfig

Row = dict[str, object]


@dataclass(frozen=True)
class SweepRun:
    """One simulated grid point: the resolved scenario, the arrivals it
    was served, and its report."""

    scenario: Scenario
    requests: list[Request]
    report: ClusterReport


Metric = Callable[[SweepRun], object]


def _override(obj: object, names: list[str], value: object, path: str) -> object:
    """``obj`` with the field at ``names`` replaced by ``value``."""
    if not dataclasses.is_dataclass(obj) or names[0] not in {
        f.name for f in dataclasses.fields(obj)
    }:
        raise ValueError(f"unknown scenario field path {path!r}")
    if len(names) > 1:
        value = _override(getattr(obj, names[0]), names[1:], value, path)
    return dataclasses.replace(obj, **{names[0]: value})  # type: ignore[type-var]


@dataclass(frozen=True)
class Sweep:
    """A grid of scenarios derived from ``base``, reduced to rows."""

    base: Scenario
    axes: Mapping[str, Sequence[object] | Mapping[object, Mapping[str, object]]]
    metrics: Mapping[str, Metric]

    def points(self) -> list[tuple[Row, Scenario]]:
        """Every grid point's axis columns and resolved scenario, first
        axis outermost."""
        choices = [
            list(values.items())
            if isinstance(values, Mapping)
            else [(value, {key: value}) for value in values]
            for key, values in self.axes.items()
        ]
        points = []
        for combo in itertools.product(*choices):
            scenario = self.base
            for _, overrides in combo:
                for path, value in overrides.items():
                    scenario = _override(scenario, path.split("."), value, path)
            points.append((dict(zip(self.axes, (label for label, _ in combo))), scenario))
        return points

    def run(self) -> list[Row]:
        """Simulate every grid point, in grid order."""
        streams: list[tuple[tuple[ModelConfig, TrafficSpec], list[Request]]] = []
        rows = []
        for columns, scenario in self.points():
            key = (scenario.model, scenario.traffic)
            requests = next((reqs for seen, reqs in streams if seen == key), None)
            if requests is None:
                requests = scenario.requests()
                streams.append((key, requests))
            run = SweepRun(scenario, requests, scenario.run(requests))
            rows.append({
                **columns,
                **{name: metric(run) for name, metric in self.metrics.items()},
                "digest": report_digest(run.report),
            })
        return rows


# ----------------------------------------------------------------------
# Metric helpers
# ----------------------------------------------------------------------
def _report(*names: str) -> dict[str, Metric]:
    """Metrics reading the same-named :class:`ClusterReport` attribute."""
    return {name: (lambda run, name=name: getattr(run.report, name)) for name in names}


def _before_digest(row: Row, columns: Mapping[str, object]) -> Row:
    """``row`` with derived ``columns`` inserted ahead of its ``digest``."""
    return {
        **{key: value for key, value in row.items() if key != "digest"},
        **columns,
        "digest": row["digest"],
    }


def _completed(run: SweepRun) -> int:
    return len(run.report.completed)


def _decode_platform(run: SweepRun) -> Platform:
    scenario = run.scenario
    return scenario.decode[0].build(scenario.sizing_workload())[0]


def _reasoning(model: ModelConfig, duration_s: float, rate_rps: float = 1.0) -> TrafficSpec:
    """The reasoning mix (2k prompt / 4k chain of thought)."""
    return TrafficSpec(
        rate_rps=rate_rps, duration_s=duration_s, classes=(reasoning_traffic(model),)
    )


def _rpu(count: int) -> tuple[PodGroup, ...]:
    return (PodGroup("rpu", count=count),)


# ----------------------------------------------------------------------
# Studies
# ----------------------------------------------------------------------
def throughput_latency_curve(
    model: ModelConfig,
    *,
    rates_rps: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    duration_s: float = 30.0,
) -> list[Row]:
    """Delivered throughput and latency tails as offered load rises."""
    return Sweep(
        Scenario(model, traffic=_reasoning(model, duration_s)),
        {"traffic.rate_rps": rates_rps},
        {
            **_report("tokens_per_s", "goodput"),
            "ttft_p50_s": lambda run: run.report.ttft_percentile(50),
            "ttft_p99_s": lambda run: run.report.ttft_percentile(99),
            "tpot_p50_s": lambda run: run.report.tpot_percentile(50),
            **_report("mean_queueing_delay_s"),
        },
    ).run()


def _mean_decode_utilization(run: SweepRun) -> float:
    report = run.report
    decode = [p for p in report.pod_stats if p.kind == "decode"]
    return sum(p.utilization(report.duration_s) for p in decode) / len(decode)


def pod_scaling_curve(
    model: ModelConfig,
    *,
    pod_counts: Sequence[int] = (1, 2, 4),
    rate_rps: float = 4.0,
    duration_s: float = 20.0,
) -> list[Row]:
    """Fleet sizing: tokens/s vs decode pods at fixed offered load (four
    prefill pods, so decode is the binding pool)."""
    return Sweep(
        Scenario(
            model,
            traffic=_reasoning(model, duration_s, rate_rps),
            prefill=(PodGroup("gpu", count=4),),
        ),
        {"num_decode_pods": {n: {"decode": _rpu(n)} for n in pod_counts}},
        {
            **_report("tokens_per_s", "goodput"),
            "mean_decode_utilization": _mean_decode_utilization,
        },
    ).run()


def gpu_vs_disaggregated(
    model: ModelConfig, *, rate_rps: float = 1.0, duration_s: float = 30.0
) -> list[Row]:
    """Reasoning traffic on two fleets with identical prefill pods and
    equal-TDP decode pools: two colocated 2xH100 groups vs two RPU
    boards sized by the paper's ISO-TDP rule.  One row per fleet,
    ``"gpu_only"`` first."""
    return Sweep(
        Scenario(model, traffic=_reasoning(model, duration_s, rate_rps)),
        {
            "fleet": {
                "gpu_only": {"decode": (PodGroup("gpu", count=2),), "colocated": True},
                "disaggregated": {
                    "decode": (PodGroup("rpu_iso_tdp", count=2, options={"gpus": 2}),)
                },
            }
        },
        {
            **_report("goodput", "tokens_per_s", "energy_per_token_j", "total_energy_j"),
            "ttft_p50_s": lambda run: run.report.ttft_percentile(50),
            "tpot_p50_s": lambda run: run.report.tpot_percentile(50),
            "decode_pod_tdp_w": lambda run: _decode_platform(run).tdp_w,
            "decode_pod_cus": lambda run: getattr(
                _decode_platform(run).engine, "num_cus", None
            ),
        },
    ).run()


def fleet_layout_comparison(
    model: ModelConfig,
    layouts: Mapping[str, tuple[object, ...]],
    *,
    rate_rps: float = 1.0,
    duration_s: float = 30.0,
) -> list[Row]:
    """Identical reasoning traffic over arbitrary decode-pool layouts.

    ``layouts`` maps a label to the platforms (or raw ``RpuSystem`` /
    ``GpuSystem`` engines) filling the decode pool -- homogeneous or
    mixed (an RPU board next to H100 and H200 groups).
    Prefill pods are identical across layouts, isolating the decode
    hardware.
    """
    return Sweep(
        Scenario(model, traffic=_reasoning(model, duration_s, rate_rps)),
        {
            "layout": {
                label: {"decode": tuple(PodGroup(as_platform(pod)) for pod in pods)}
                for label, pods in layouts.items()
            }
        },
        {
            **_report("num_submitted", "goodput", "tokens_per_s", "energy_per_token_j"),
            "completed": _completed,
            "rejected": lambda run: len(run.report.rejected),
        },
    ).run()


def reservation_sweep(
    model: ModelConfig,
    *,
    kv_budgets_gb: Sequence[float] = (3.0, 4.0, 6.0),
    rate_rps: float = 2.0,
    duration_s: float = 30.0,
    num_decode_pods: int = 1,
) -> list[Row]:
    """FULL and PAGED KV reservation on the same fleet and reasoning
    traffic at each (equal) KV budget, FULL first.

    ``tokens_per_s`` is drain-inclusive -- the comparable rate here,
    since both policies see identical arrivals.  At budgets tight
    enough that full-context reservation starves admission, the paged
    pool's deeper batches buy strictly more decode throughput and at
    least equal goodput.
    """
    return Sweep(
        Scenario(
            model,
            traffic=_reasoning(model, duration_s, rate_rps),
            decode=_rpu(num_decode_pods),
        ),
        {
            "kv_budget_gb": {gb: {"kv_budget_bytes": gb * 1e9} for gb in kv_budgets_gb},
            "reservation": (Reservation.FULL, Reservation.PAGED),
        },
        {
            **_report(
                "goodput",
                "tokens_per_s",
                "arrival_window_tokens_per_s",
                "mean_decode_kv_occupancy",
            ),
            "preemptions": lambda run: run.report.total_preemptions,
            "completed": _completed,
        },
    ).run()


def _fanout(**overrides: object) -> TrafficSpec:
    """Agentic fan-out traffic: groups of 8 sharing 3/4 of the founder's
    2k prompt."""
    return TrafficSpec(
        prompt_mean=2048, decode_mean=512, prefix_fanout=8, prefix_frac=0.75, **overrides
    )


def prefix_hit_sweep(
    model: ModelConfig,
    *,
    share_probs: Sequence[float] = (0.0, 0.5, 0.9),
    rate_rps: float = 6.0,
    duration_s: float = 20.0,
) -> list[Row]:
    """Prefix caching off vs on at each sharing level, on one decode pod
    with a 4 GB KV budget.  ``arrival_window_tokens_per_s`` is the
    comparable rate; the uncached run's hit rate is 0."""
    return Sweep(
        Scenario(
            model,
            traffic=_fanout(rate_rps=rate_rps, duration_s=duration_s),
            decode=_rpu(1),
            kv_budget_bytes=4e9,
        ),
        {"traffic.prefix_share_prob": share_probs, "prefix_caching": (False, True)},
        {
            "hit_rate": lambda run: run.report.prefix_hit_rate,
            **_report("goodput", "arrival_window_tokens_per_s"),
            "ttft_p50_s": lambda run: run.report.ttft_percentile(50),
            "completed": _completed,
        },
    ).run()


def prefill_policy_sweep(
    model: ModelConfig,
    *,
    rates_rps: Sequence[float] = (2.0, 6.0, 10.0),
    duration_s: float = 15.0,
) -> list[Row]:
    """Late-bound prefill scheduling vs the arrival-bound baseline on
    shared-prefix fan-out traffic, across offered loads.

    One deliberately scarce prefill pod, so rising load queues work.
    At each rate the identical traffic is served with ``binding``
    ``"arrival"`` (arrival-bound FIFO: the cache is checked when a
    request arrives) and late-bound under each policy (labelled by
    ``PrefillPolicy.value``).  Under saturation a sibling usually
    arrives while its founder is still queued, so the baseline misses;
    the service-start re-check recovers those hits -- visible in
    ``late_hit_tokens`` and in ``sibling_ttft_mean_s``.
    """
    return Sweep(
        Scenario(
            model,
            traffic=_fanout(duration_s=duration_s, prefix_share_prob=0.9),
            prefill=(PodGroup("gpu", count=1),),
            kv_budget_bytes=4e9,
            prefix_caching=True,
        ),
        {
            "traffic.rate_rps": rates_rps,
            "binding": {
                "arrival": {"late_binding": False},
                **{p.value: {"prefill_policy": p} for p in PrefillPolicy},
            },
        },
        {
            "hit_rate": lambda run: run.report.prefix_hit_rate,
            **_report("late_hit_tokens", "goodput"),
            "ttft_p50_s": lambda run: run.report.ttft_percentile(50),
            "sibling_ttft_mean_s": lambda run: sibling_ttft_mean(
                run.report.completed, prefix_founders(run.requests)
            ),
            "queue_mean_depth": lambda run: run.report.prefill_queue.mean_depth,
            "queue_peak_depth": lambda run: run.report.prefill_queue.peak_depth,
            "completed": _completed,
        },
    ).run()


def swap_crossover_sweep(
    model: ModelConfig,
    *,
    host_link_gbps: Sequence[float] = (400.0, 100.0, 25.0, 6.0, 1.5),
    duration_s: float = 20.0,
) -> list[Row]:
    """Preemption resolution across host-link bandwidths under a tight
    3 GB block pool: recompute-on-resume (``NEVER``), swap-to-host
    (``ALWAYS``) and the ``AUTO`` cost model on identical traffic.

    Swapping moves the victim's KV across the host link twice;
    recomputing re-pays the context prefill plus the hand-off.  Swap
    wins on fast links and recompute on slow ones (``swap_s`` vs
    ``recompute_s``), and ``AUTO``'s ``swap_fraction`` should follow
    whichever is cheaper.
    """
    from repro.models.kv_cache import kv_cache_bytes
    from repro.platform.base import KV_TRANSFER_BYTES_PER_S

    base = Scenario(
        model,
        traffic=TrafficSpec(
            rate_rps=2.0, duration_s=duration_s, prompt_mean=2048, decode_mean=4096
        ),
        decode=_rpu(1),
        kv_budget_bytes=3e9,
    )
    host_rates = {gbps: gbps * 1e9 / 8.0 for gbps in host_link_gbps}
    # Analytic per-victim (swap_s, recompute_s) at a representative
    # context: the full prompt plus half the reasoning.
    context = base.traffic.prompt_mean + base.traffic.decode_mean // 2
    prefill_platform = base.prefill[0].build(base.sizing_workload())[0]
    costs = {
        rate: swap_recompute_costs(
            model,
            context,
            kv_cache_bytes(model, context, 1, base.kv_dtype),
            prefill_platform=prefill_platform,
            kv_dtype=base.kv_dtype,
            handoff_bytes_per_s=KV_TRANSFER_BYTES_PER_S,
            host_bytes_per_s=rate,
        )
        for rate in host_rates.values()
    }
    return Sweep(
        base,
        {
            "host_link_gbps": {
                gbps: {"swap_bytes_per_s": rate} for gbps, rate in host_rates.items()
            },
            "swap_policy": (SwapPolicy.NEVER, SwapPolicy.ALWAYS, SwapPolicy.AUTO),
        },
        {
            "swap_s": lambda run: costs[run.scenario.swap_bytes_per_s][0],
            "recompute_s": lambda run: costs[run.scenario.swap_bytes_per_s][1],
            "swap_fraction": lambda run: (
                run.report.total_swaps / run.report.total_preemptions
                if run.report.total_preemptions
                else 0.0
            ),
            "e2e_p95_s": lambda run: run.report.e2e_percentile(95),
            "preemptions": lambda run: run.report.total_preemptions,
        },
    ).run()


def _contention_roster(duration_s: float, scale: float) -> TrafficSpec:
    """Interactive chats (2 RPS at scale 1) and batch generations (1 RPS)."""
    return TrafficSpec(
        tenants=(
            TenantSpec(
                "interactive",
                traffic=TrafficSpec(
                    rate_rps=2.0 * scale,
                    duration_s=duration_s,
                    prompt_mean=512,
                    decode_mean=256,
                    seed=1,
                ),
                slo=INTERACTIVE,
                priority=2,
                weight=2.0,
            ),
            TenantSpec(
                "batch",
                traffic=TrafficSpec(
                    rate_rps=scale,
                    duration_s=duration_s,
                    prompt_mean=1024,
                    decode_mean=4096,
                    seed=2,
                ),
                slo=BATCH,
                weight=0.5,
            ),
        )
    )


def tenant_contention_sweep(
    model: ModelConfig,
    *,
    load_scales: Sequence[float] = (0.5, 1.0, 2.0),
    duration_s: float = 30.0,
) -> list[Row]:
    """Interactive + batch tenants on one fleet as offered load rises,
    with admission control off and on at each load; one row per tenant
    per run (``fairness`` is the run's max/min attainment ratio).

    Without shedding, batch decode tokens crowd the shared KV pool and
    the interactive tenant's attainment sinks with load.  With
    per-tenant token buckets the low-weight batch tenant is throttled
    first once fleet pressure crosses the floor.
    """
    rows = Sweep(
        Scenario(
            model,
            prefill_policy=PrefillPolicy.PRIORITY,
            kv_budget_bytes=3e9,
        ),
        {
            "load_scale": {
                scale: {"traffic": _contention_roster(duration_s, scale)}
                for scale in load_scales
            },
            "admission.enabled": (False, True),
        },
        {
            "fairness": lambda run: run.report.fairness,
            "tenants": lambda run: [
                {
                    "tenant": name,
                    "offered": tenant.offered,
                    "shed": tenant.shed,
                    "attainment": tenant.attainment,
                    "ttft_p95_s": tenant.ttft_p95_s,
                }
                for name, tenant in sorted(run.report.per_tenant().items())
            ],
        },
    ).run()
    return [
        _before_digest(row, tenant) for row in rows for tenant in row.pop("tenants")
    ]


def autoscaler_sweep(
    model: ModelConfig,
    *,
    peak_scales: Sequence[float] = (2.0, 4.0, 8.0),
    duration_s: float = 40.0,
) -> list[Row]:
    """A static fleet of four decode pods vs an elastic one (one to four)
    on the same 0.5 RPS flash-crowd trace, at each spike multiple.

    The elastic fleet starts at the floor, scales up through the spike
    and drains back down afterwards, so goodput stays comparable while
    its $/1e6-token cost drops.
    """

    def count(action: str) -> Metric:
        return lambda run: sum(1 for e in run.report.scaling_events if e.action == action)

    return Sweep(
        Scenario(model, traffic=_reasoning(model, duration_s), kv_budget_bytes=3e9),
        {
            "peak_scale": {
                peak: {
                    "traffic.trace": ArrivalTrace.flash_crowd(
                        0.5, duration_s, peak_rps=0.5 * peak, seed=0
                    )
                }
                for peak in peak_scales
            },
            "elastic": {
                False: {"decode": _rpu(4)},
                True: {
                    "decode": _rpu(1),
                    "autoscaler": AutoscalerConfig(
                        min_decode_pods=1,
                        max_decode_pods=4,
                        min_prefill_pods=2,
                        max_prefill_pods=2,
                    ),
                },
            },
        },
        {
            "goodput": lambda run: run.report.goodput,
            "ttft_p95_s": lambda run: run.report.ttft_percentile(95),
            "completed": _completed,
            "scale_ups": count("up"),
            "scale_downs": count("down"),
            **_report("cost_usd", "usd_per_mtok"),
        },
    ).run()


def effective_decode_rate(report: ClusterReport) -> float:
    """Goodput-weighted decode tokens per decode-pod busy second -- the
    saturation-proof rate speculation lifts even when wall-clock
    throughput is arrival-bound."""
    busy = sum(p.busy_s for p in report.pod_stats if p.kind == "decode")
    if busy <= 0.0:
        return 0.0
    return report.goodput * report.decode_tokens / busy


def specdec_acceptance_sweep(
    model: ModelConfig,
    *,
    accepted: Sequence[float] = (2.0, 3.0, 4.6, 6.0),
    duration_s: float = 30.0,
) -> list[Row]:
    """Fleet throughput vs speculative acceptance rate on identical
    2 RPS reasoning traffic at equal KV budget.

    The first row is the no-specdec baseline (``accepted_per_window``
    0.0, ``lookahead`` 0); each following row runs lookahead-8
    draft/verify speculation at that acceptance rate (colocated draft,
    draft-KV headroom charged).  ``speedup`` is each row's
    ``effective_decode_tokens_per_s`` over the baseline's (1.0 on the
    baseline row, 0.0 when the baseline decoded nothing).
    """
    rows = Sweep(
        Scenario(model, traffic=_reasoning(model, duration_s, 2.0)),
        {
            "accepted_per_window": {
                0.0: {},
                **{
                    accept: {
                        "specdec": SpecDecConfig(
                            speculation=SpeculativeConfig(
                                lookahead=8, accepted_per_window=accept
                            )
                        )
                    }
                    for accept in accepted
                },
            }
        },
        {
            "lookahead": lambda run: (
                run.scenario.specdec.speculation.lookahead if run.scenario.specdec else 0
            ),
            **_report("goodput", "tokens_per_s"),
            "effective_decode_tokens_per_s": lambda run: effective_decode_rate(run.report),
            **_report("energy_per_token_j"),
            "completed": _completed,
        },
    ).run()
    base, *speculative = rows
    base_rate = base["effective_decode_tokens_per_s"]
    speedups = [1.0] + [
        row["effective_decode_tokens_per_s"] / base_rate if base_rate > 0.0 else 0.0
        for row in speculative
    ]
    return [_before_digest(row, {"speedup": x}) for row, x in zip(rows, speedups)]
