"""Scenario runner: ISO-TDP parity with the pre-platform API, hybrid
fleets, presets, and the deprecation shims."""

import warnings

import pytest

from repro.analysis.cluster_sweep import fleet_layout_comparison, gpu_vs_disaggregated
from repro.analysis.perf_model import iso_tdp_system, system_for
from repro.api import (
    SCENARIOS,
    PodGroup,
    Scenario,
    TrafficSpec,
    comparison_table,
    scenario,
)
from repro.gpu.system import GpuSystem
from repro.models.llama3 import LLAMA3_70B
from repro.models.workload import Workload
from repro.platform import GpuPlatform, RpuPlatform, build_platform
from repro.serving.cluster import (
    ClusterConfig,
    DecodePodSpec,
    gpu_only_cluster,
    simulate,
)
from repro.serving.engine import report_digest
from repro.serving.requests import RequestGenerator, reasoning_traffic
from repro.serving.scheduler import Reservation


def reasoning_spec(rate_rps=1.0, duration_s=20.0, seed=0):
    """TrafficSpec matching the sweeps' reasoning mix exactly."""
    return TrafficSpec(
        rate_rps=rate_rps,
        duration_s=duration_s,
        seed=seed,
        classes=(reasoning_traffic(LLAMA3_70B),),
    )


class TestIsoTdpParity:
    """The gpu_vs_disaggregated study (Scenario-built fleets) must
    reproduce fleets hand-built with the pre-platform builders
    (gpu_only_cluster, iso_tdp_system, ClusterConfig) on the same
    reasoning arrivals."""

    @pytest.fixture(scope="class")
    def versus(self):
        rows = gpu_vs_disaggregated(LLAMA3_70B, rate_rps=1.0, duration_s=20.0)
        return {row["fleet"]: row for row in rows}

    @pytest.fixture(scope="class")
    def requests(self):
        return RequestGenerator(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=1.0, seed=0
        ).generate(20.0)

    def test_disaggregated_fleet_matches(self, versus, requests):
        gpu_pod = GpuSystem(count=2)
        rpu_pod = iso_tdp_system(
            gpu_pod, Workload(LLAMA3_70B, batch_size=32, seq_len=8192)
        )
        config = ClusterConfig(
            prefill_engines=gpu_only_cluster(LLAMA3_70B).prefill_engines,
            decode_pods=(DecodePodSpec(RpuPlatform(rpu_pod), LLAMA3_70B),) * 2,
        )
        report = simulate(config, requests)
        row = versus["disaggregated"]
        assert report.goodput == pytest.approx(row["goodput"])
        assert report.tokens_per_s == pytest.approx(row["tokens_per_s"], rel=1e-9)
        assert report.total_energy_j == pytest.approx(
            row["total_energy_j"], rel=1e-9
        )
        assert report_digest(report) == row["digest"]
        assert row["decode_pod_cus"] == rpu_pod.num_cus
        assert row["decode_pod_tdp_w"] == pytest.approx(RpuPlatform(rpu_pod).tdp_w)
        assert row["decode_pod_tdp_w"] <= gpu_pod.tdp_w
        assert versus["gpu_only"]["decode_pod_tdp_w"] == pytest.approx(gpu_pod.tdp_w)

    def test_gpu_only_fleet_matches(self, versus, requests):
        config = gpu_only_cluster(
            LLAMA3_70B, num_prefill_pods=2, num_decode_pods=2, gpus_per_decode=2
        )
        report = simulate(config, requests)
        row = versus["gpu_only"]
        assert report.goodput == pytest.approx(row["goodput"])
        assert report.tokens_per_s == pytest.approx(row["tokens_per_s"], rel=1e-9)
        assert report_digest(report) == row["digest"]

    def test_raw_system_config_matches_platform_config(self):
        """The deprecation shim (raw engines) and the platform path
        must produce identical reports."""
        sizing = Workload(LLAMA3_70B, batch_size=32, seq_len=8192)
        rpu = system_for(128, sizing)
        requests = reasoning_spec(duration_s=10.0).requests(LLAMA3_70B)
        old_style = ClusterConfig(
            prefill_engines=(GpuSystem(count=2), GpuSystem(count=2)),
            decode_pods=(DecodePodSpec(rpu, LLAMA3_70B),) * 2,
        )
        new_style = ClusterConfig(
            prefill_engines=(GpuPlatform(GpuSystem(count=2)),) * 2,
            decode_pods=(DecodePodSpec(RpuPlatform(rpu), LLAMA3_70B),) * 2,
        )
        with pytest.warns(DeprecationWarning):
            old = simulate(old_style, requests)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            new = simulate(new_style, requests)
        assert old.duration_s == new.duration_s
        assert old.goodput == new.goodput
        assert old.total_energy_j == pytest.approx(new.total_energy_j)
        assert [r.completed_s for r in old.completed] == [
            r.completed_s for r in new.completed
        ]


class TestHybridFleets:
    """Topologies only the platform API can express."""

    @pytest.fixture(scope="class")
    def pressure_traffic(self):
        generator = RequestGenerator(
            classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=2.0, seed=0
        )
        return generator.generate(15.0)

    def test_rpu_prefill_gpu_decode_conserves_requests(self, pressure_traffic):
        """Inverted fleet under the paged scheduler with a tight budget:
        preemption storms must not lose or duplicate requests."""
        inverted = Scenario(
            model=LLAMA3_70B,
            prefill=(PodGroup("rpu", count=2, options={"num_cus": 64}),),
            decode=(PodGroup("gpu", count=1, options={"gpus": 2}),),
            reservation=Reservation.PAGED,
            kv_budget_bytes=3e9,
        )
        report = inverted.run(pressure_traffic)
        assert report.num_submitted == len(pressure_traffic)
        assert len(report.completed) + len(report.rejected) == len(pressure_traffic)
        assert len(report.completed) == len(pressure_traffic)
        assert report.total_preemptions > 0  # the budget really was tight
        prefill = [p for p in report.pod_stats if p.kind == "prefill"]
        assert all(p.platform.startswith("rpu-") for p in prefill)
        assert all(p.busy_s > 0 for p in prefill)

    def test_three_way_mixed_decode_pool(self, pressure_traffic):
        """RPU + H100 + H200 decode pods side by side, one model."""
        mixed = Scenario(
            model=LLAMA3_70B,
            prefill=(PodGroup("gpu", count=2),),
            decode=(
                PodGroup("rpu", options={"num_cus": 128}),
                PodGroup("h100", options={"gpus": 2}),
                PodGroup("h200", options={"gpus": 2}),
            ),
        )
        report = mixed.run(pressure_traffic)
        assert len(report.completed) == len(pressure_traffic)
        decode = [p for p in report.pod_stats if p.kind == "decode"]
        assert sorted(p.platform for p in decode) == [
            "2xH100-SXM", "2xH200-SXM", "rpu-128cu",
        ]
        # The router load-balances: every platform kind does real work.
        assert all(p.busy_s > 0 for p in decode)

    def test_fleet_layout_comparison_sweep(self):
        """The analysis-layer sweep expresses the same mixed pools."""
        sizing = Workload(LLAMA3_70B, batch_size=32, seq_len=8192)
        layouts = {
            "rpu-only": (build_platform("rpu", sizing=sizing),) * 2,
            "mixed": (
                build_platform("rpu", sizing=sizing),
                build_platform("h100"),
            ),
        }
        rows = fleet_layout_comparison(
            LLAMA3_70B, layouts, rate_rps=0.5, duration_s=8.0
        )
        reports = {row["layout"]: row for row in rows}
        assert set(reports) == {"rpu-only", "mixed"}
        for report in reports.values():
            assert report["num_submitted"] == (
                reports["rpu-only"]["completed"] + reports["rpu-only"]["rejected"]
            )

    def test_fleet_layout_comparison_wraps_raw_systems(self):
        """Raw GpuSystem/RpuSystem pods are coerced to platforms."""
        rows = fleet_layout_comparison(
            LLAMA3_70B,
            {
                "raw": (GpuSystem(count=2),),
                "platform": (GpuPlatform(GpuSystem(count=2)),),
            },
            rate_rps=0.5,
            duration_s=4.0,
        )
        raw, platform = rows
        assert raw["digest"] == platform["digest"]
        assert raw["completed"] > 0


class TestPresets:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_preset_runs_end_to_end(self, name):
        entry = scenario(
            name, LLAMA3_70B, traffic=TrafficSpec(rate_rps=1.0, duration_s=5.0)
        )
        assert entry.name == name
        report = entry.run()
        assert report.num_submitted > 0
        assert len(report.completed) == report.num_submitted

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("nope", LLAMA3_70B)

    def test_batch_offline_has_no_interactive_slo(self):
        entry = scenario("batch_offline", LLAMA3_70B)
        assert entry.slo_s == float("inf")
        report = entry.run(
            scenario(
                "batch_offline",
                LLAMA3_70B,
                traffic=TrafficSpec(rate_rps=0.5, duration_s=5.0),
            ).requests()
        )
        # Everything completed => goodput degenerates to completion rate.
        assert report.goodput == 1.0
        assert report.slo_s == float("inf")

    def test_slo_threads_through_to_goodput(self):
        tight = Scenario(
            model=LLAMA3_70B,
            traffic=reasoning_spec(duration_s=5.0),
            slo_s=1e-3,  # nothing finishes a reasoning query in 1 ms
        )
        report = tight.run()
        assert report.slo_s == 1e-3
        assert report.goodput == 0.0
        assert len(report.completed) == report.num_submitted


class TestScenarioValidation:
    def test_needs_pod_groups(self):
        with pytest.raises(ValueError, match="pod group"):
            Scenario(model=LLAMA3_70B, prefill=())
        with pytest.raises(ValueError, match="pod group"):
            Scenario(model=LLAMA3_70B, decode=())

    def test_pod_group_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            PodGroup("rpu", count=0)

    def test_options_rejected_on_concrete_platform(self):
        pod = build_platform("h100")
        with pytest.raises(ValueError, match="options"):
            PodGroup(pod, options={"gpus": 4})

    def test_requests_are_replayable(self):
        entry = scenario(
            "chatbot", LLAMA3_70B, traffic=TrafficSpec(duration_s=5.0)
        )
        a = entry.requests()
        b = entry.requests()
        assert [(r.request_id, r.arrival_s, r.prompt_len) for r in a] == [
            (r.request_id, r.arrival_s, r.prompt_len) for r in b
        ]

    def test_comparison_table_renders(self):
        entries = [
            scenario(
                name, LLAMA3_70B, traffic=TrafficSpec(rate_rps=0.5, duration_s=4.0)
            )
            for name in sorted(SCENARIOS)
        ]
        rendered = comparison_table(entries).render()
        for name in SCENARIOS:
            assert name in rendered


class TestTopLevelExports:
    def test_serving_api_exported_from_repro(self):
        import repro

        for name in (
            "simulate",
            "disaggregated_cluster",
            "gpu_only_cluster",
            "ClusterConfig",
            "ClusterReport",
            "Scenario",
            "PodGroup",
            "TrafficSpec",
            "Platform",
            "RpuPlatform",
            "GpuPlatform",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_docstring_module_list_is_current(self):
        import repro

        for module in ("repro.platform", "repro.api", "repro.serving"):
            assert module in repro.__doc__


class TestKvHierarchyKnobs:
    def test_knobs_thread_through_to_cluster_config(self):
        from repro.serving.kvstore import SwapPolicy

        entry = Scenario(
            model=LLAMA3_70B,
            prefix_caching=True,
            swap_policy=SwapPolicy.AUTO,
            host_kv_bytes=32e9,
            swap_bytes_per_s=25e9 / 8,
        )
        config = entry.cluster()
        assert config.prefix_caching is True
        assert config.swap_policy is SwapPolicy.AUTO
        assert config.host_kv_bytes == 32e9
        assert config.swap_bytes_per_s == 25e9 / 8

    def test_defaults_are_off(self):
        from repro.serving.kvstore import SwapPolicy

        config = Scenario(model=LLAMA3_70B).cluster()
        assert config.prefix_caching is False
        assert config.swap_policy is SwapPolicy.NEVER

    def test_traffic_spec_threads_prefix_structure(self):
        spec = TrafficSpec(
            prefix_share_prob=0.8, prefix_fanout=6, prefix_frac=0.6
        )
        (cls,) = spec.traffic_classes(LLAMA3_70B)
        assert cls.prefix_share_prob == 0.8
        assert cls.prefix_fanout == 6
        assert cls.prefix_frac == 0.6

    def test_agentic_fanout_preset_shares_prefixes(self):
        entry = scenario("agentic_fanout", LLAMA3_70B)
        assert entry.prefix_caching is True
        assert entry.traffic.prefix_share_prob > 0.5
        requests = scenario(
            "agentic_fanout",
            LLAMA3_70B,
            traffic=TrafficSpec(
                rate_rps=4.0, duration_s=10.0, prefix_share_prob=0.85
            ),
        ).requests()
        assert any(r.prefix_id is not None for r in requests)

    def test_agentic_fanout_caching_pays_at_equal_budget(self):
        """The acceptance scenario: identical fan-out traffic, equal KV
        budget, caching off vs on -- measurably higher goodput and
        lower TTFT with the cache."""
        kwargs = dict(
            kv_budget_bytes=2e9, prefill=(PodGroup("gpu", count=1),)
        )
        cached_scenario = scenario("agentic_fanout", LLAMA3_70B, **kwargs)
        requests = cached_scenario.requests()
        uncached = scenario(
            "agentic_fanout", LLAMA3_70B, prefix_caching=False, **kwargs
        ).run(requests)
        cached = cached_scenario.run(requests)
        assert cached.prefix_hit_rate > 0.0
        assert cached.goodput > uncached.goodput + 0.02
        assert cached.ttft_percentile(50) < uncached.ttft_percentile(50)


class TestPrefillQueueKnobs:
    """PR 5: the prefill service queue plumbs through Scenario and
    TrafficSpec."""

    def test_scenario_threads_queue_knobs(self):
        from repro.serving.cluster import PrefillPolicy

        entry = Scenario(
            model=LLAMA3_70B,
            prefill_policy=PrefillPolicy.PREFIX_AFFINE,
            affine_defer_s=0.5,
            prefill_aging_s=3.0,
        )
        config = entry.cluster()
        assert config.prefill_policy is PrefillPolicy.PREFIX_AFFINE
        assert config.affine_defer_s == 0.5
        assert config.prefill_aging_s == 3.0
        arrival = Scenario(model=LLAMA3_70B, late_binding=False).cluster()
        assert arrival.late_binding is False
        # The silently-degenerate combo is rejected at cluster build.
        with pytest.raises(ValueError):
            Scenario(
                model=LLAMA3_70B,
                prefill_policy=PrefillPolicy.PREFIX_AFFINE,
                late_binding=False,
            ).cluster()

    def test_defaults_are_fifo_late_bound(self):
        from repro.serving.cluster import PrefillPolicy

        config = Scenario(model=LLAMA3_70B).cluster()
        assert config.prefill_policy is PrefillPolicy.FIFO
        assert config.late_binding is True

    def test_traffic_spec_priority_mix(self):
        spec = TrafficSpec(priorities=(0, 2, 5))
        classes = spec.traffic_classes(LLAMA3_70B)
        assert [cls.priority for cls in classes] == [0, 2, 5]
        assert len({cls.weight for cls in classes}) == 1  # equal weight
        # The mix reaches the generated requests.
        requests = TrafficSpec(
            priorities=(0, 5), rate_rps=8.0, duration_s=10.0, seed=1
        ).requests(LLAMA3_70B)
        assert {r.priority for r in requests} == {0, 5}

    def test_priority_mix_defaults_to_single_class(self):
        spec = TrafficSpec(priority=3)
        (cls,) = spec.traffic_classes(LLAMA3_70B)
        assert cls.priority == 3

    def test_late_binding_recovers_hits_on_agentic_fanout(self):
        """The PR 5 acceptance scenario at API level: identical
        prefill-bound fan-out traffic, hits bound at service start vs
        at arrival."""
        kwargs = dict(
            kv_budget_bytes=2e9, prefill=(PodGroup("gpu", count=1),)
        )
        late_scenario = scenario("agentic_fanout", LLAMA3_70B, **kwargs)
        requests = late_scenario.requests()
        arrival = scenario(
            "agentic_fanout", LLAMA3_70B, late_binding=False, **kwargs
        ).run(requests)
        late = late_scenario.run(requests)
        assert late.prefix_hit_rate > arrival.prefix_hit_rate
        assert late.late_hits > 0
        assert arrival.late_hits == 0
        assert len(late.completed) == len(arrival.completed)
