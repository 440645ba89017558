"""Cluster sweeps: the Sweep runner, saturation behaviour, pod scaling,
the ISO-power claim, and digest pins for the fleet-operations studies."""

import pytest

from repro.analysis.cluster_sweep import (
    Sweep,
    autoscaler_sweep,
    gpu_vs_disaggregated,
    pod_scaling_curve,
    reservation_sweep,
    specdec_acceptance_sweep,
    tenant_contention_sweep,
    throughput_latency_curve,
)
from repro.api import PodGroup, Scenario, TrafficSpec
from repro.models.llama3 import LLAMA3_70B
from repro.serving.scheduler import Reservation
from repro.serving.tenancy import AdmissionConfig


@pytest.fixture(scope="module")
def load_curve():
    return throughput_latency_curve(
        LLAMA3_70B, rates_rps=(0.25, 1.0, 4.0), duration_s=15.0
    )


@pytest.fixture(scope="module")
def scaling_curve():
    return pod_scaling_curve(
        LLAMA3_70B, pod_counts=(1, 2, 4), rate_rps=4.0, duration_s=12.0
    )


@pytest.fixture(scope="module")
def versus():
    gpu_only, disaggregated = gpu_vs_disaggregated(
        LLAMA3_70B, rate_rps=1.0, duration_s=15.0
    )
    return gpu_only, disaggregated


def tiny_base(**overrides):
    """A scenario small enough to simulate in milliseconds."""
    settings = dict(
        model=LLAMA3_70B,
        traffic=TrafficSpec(rate_rps=0.5, duration_s=4.0, prompt_mean=256, decode_mean=64),
        decode=(PodGroup("rpu", count=1),),
    )
    settings.update(overrides)
    return Scenario(**settings)


class TestSweep:
    def test_grid_order_is_outer_axis_first(self):
        sweep = Sweep(
            tiny_base(),
            {"traffic.rate_rps": (0.5, 1.0), "prefix_caching": (False, True)},
            {},
        )
        points = sweep.points()
        assert [columns for columns, _ in points] == [
            {"traffic.rate_rps": 0.5, "prefix_caching": False},
            {"traffic.rate_rps": 0.5, "prefix_caching": True},
            {"traffic.rate_rps": 1.0, "prefix_caching": False},
            {"traffic.rate_rps": 1.0, "prefix_caching": True},
        ]
        assert [
            (s.traffic.rate_rps, s.prefix_caching) for _, s in points
        ] == [(0.5, False), (0.5, True), (1.0, False), (1.0, True)]

    def test_rows_hold_axes_then_metrics_then_digest(self):
        rows = Sweep(
            tiny_base(),
            {"prefix_caching": (False, True)},
            {"completed": lambda run: len(run.report.completed)},
        ).run()
        assert [list(row) for row in rows] == [
            ["prefix_caching", "completed", "digest"]
        ] * 2
        assert all(row["completed"] > 0 for row in rows)

    def test_one_request_generation_per_distinct_traffic(self, monkeypatch):
        calls = []
        generate = TrafficSpec.requests

        def counting(self, model):
            calls.append(self.rate_rps)
            return generate(self, model)

        monkeypatch.setattr(TrafficSpec, "requests", counting)
        rows = Sweep(
            tiny_base(),
            {
                "traffic.rate_rps": (0.5, 1.0),
                "fleet": {
                    "one": {},
                    "two": {"decode": (PodGroup("rpu", count=2),)},
                },
            },
            {"requests": lambda run: run.requests},
        ).run()
        assert calls == [0.5, 1.0]
        # Fleet-only axes see the very same arrivals.
        assert rows[0]["requests"] is rows[1]["requests"]
        assert rows[2]["requests"] is rows[3]["requests"]
        assert rows[0]["requests"] is not rows[2]["requests"]

    def test_nested_field_path(self):
        base = tiny_base(admission=AdmissionConfig(pressure_floor=0.5))
        (_, off), (_, on) = Sweep(
            base, {"admission.enabled": (False, True)}, {}
        ).points()
        assert off.admission == AdmissionConfig(enabled=False, pressure_floor=0.5)
        assert on.admission == AdmissionConfig(enabled=True, pressure_floor=0.5)
        assert base.admission.pressure_floor == 0.5  # base untouched

    def test_label_axis_applies_joint_overrides(self):
        points = Sweep(
            tiny_base(),
            {
                "fleet": {
                    "gpu": {"decode": (PodGroup("gpu", count=2),), "colocated": True},
                    "rpu": {"decode": (PodGroup("rpu", count=3),)},
                }
            },
            {},
        ).points()
        (gpu_columns, gpu), (rpu_columns, rpu) = points
        assert gpu_columns == {"fleet": "gpu"} and rpu_columns == {"fleet": "rpu"}
        assert gpu.decode == (PodGroup("gpu", count=2),) and gpu.colocated
        assert rpu.decode == (PodGroup("rpu", count=3),) and not rpu.colocated

    @pytest.mark.parametrize(
        "path",
        ["traffic.rate_rsp", "no_such_field", "autoscaler.max_decode_pods"],
    )
    def test_unknown_field_path_is_named(self, path):
        with pytest.raises(ValueError, match=path.replace(".", r"\.")):
            Sweep(tiny_base(), {path: (1,)}, {}).run()


class TestThroughputLatency:
    def test_throughput_tracks_offered_load(self, load_curve):
        delivered = [p["tokens_per_s"] for p in load_curve]
        assert delivered == sorted(delivered)
        # An uncongested fleet delivers what is offered: 16x the RPS
        # (0.25 -> 4.0) buys several times the delivered tokens.
        assert load_curve[-1]["tokens_per_s"] > 4 * load_curve[0]["tokens_per_s"]

    def test_latency_tails_grow_with_load(self, load_curve):
        assert load_curve[-1]["ttft_p99_s"] >= load_curve[0]["ttft_p99_s"]
        assert all(p["ttft_p50_s"] <= p["ttft_p99_s"] for p in load_curve)

    def test_uncongested_fleet_meets_slo(self, load_curve):
        assert load_curve[0]["goodput"] == pytest.approx(1.0)
        assert load_curve[0]["mean_queueing_delay_s"] == pytest.approx(0.0, abs=0.05)


class TestPodScaling:
    def test_throughput_monotone_in_pods(self, scaling_curve):
        delivered = [p["tokens_per_s"] for p in scaling_curve]
        assert all(b >= a * 0.99 for a, b in zip(delivered, delivered[1:]))

    def test_goodput_recovers_with_pods(self, scaling_curve):
        assert scaling_curve[-1]["goodput"] >= scaling_curve[0]["goodput"]
        assert scaling_curve[-1]["goodput"] > 0.95

    def test_marginal_pod_utilization_falls(self, scaling_curve):
        """Once the pool absorbs the load, extra pods sit idle more."""
        assert (
            scaling_curve[-1]["mean_decode_utilization"]
            <= scaling_curve[0]["mean_decode_utilization"]
        )


class TestReservationSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        # Budgets chosen so KV admission binds for FULL at this load
        # (at generous budgets both policies tie, trivially).
        return reservation_sweep(
            LLAMA3_70B, kv_budgets_gb=(3.0, 4.0), duration_s=20.0
        )

    def test_two_points_per_budget(self, sweep):
        assert len(sweep) == 4
        assert [p["reservation"] for p in sweep] == [
            Reservation.FULL, Reservation.PAGED,
            Reservation.FULL, Reservation.PAGED,
        ]

    def test_paged_wins_at_equal_budget(self, sweep):
        """The acceptance claim: paged reservation never loses goodput
        and strictly wins decode throughput at every budget."""
        for full, paged in zip(sweep[::2], sweep[1::2]):
            assert full["kv_budget_gb"] == paged["kv_budget_gb"]
            assert paged["goodput"] >= full["goodput"]
            assert paged["tokens_per_s"] > full["tokens_per_s"]
            assert paged["completed"] == full["completed"]

    def test_only_paged_preempts(self, sweep):
        for p in sweep:
            if p["reservation"] is Reservation.FULL:
                assert p["preemptions"] == 0

    def test_tight_budget_goodput_gap_is_large(self, sweep):
        full, paged = sweep[0], sweep[1]
        assert paged["goodput"] - full["goodput"] > 0.1


class TestIsoPowerComparison:
    def test_disaggregated_goodput_wins_at_equal_power(self, versus):
        gpu_only, disaggregated = versus
        assert disaggregated["goodput"] >= gpu_only["goodput"]
        assert disaggregated["goodput"] > 0.9
        assert disaggregated["goodput"] - gpu_only["goodput"] >= 0.0

    def test_disaggregated_decodes_faster(self, versus):
        gpu_only, disaggregated = versus
        assert disaggregated["tokens_per_s"] / gpu_only["tokens_per_s"] > 2.0
        assert disaggregated["tpot_p50_s"] < gpu_only["tpot_p50_s"]

    def test_iso_power_is_honest(self, versus):
        """The RPU pool was sized to the GPU decode pods' TDP."""
        gpu_only, disaggregated = versus
        assert (gpu_only["fleet"], disaggregated["fleet"]) == (
            "gpu_only", "disaggregated",
        )
        assert gpu_only["decode_pod_tdp_w"] == pytest.approx(1400.0)
        assert disaggregated["decode_pod_cus"] >= 1


class TestPrefixHitSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.analysis.cluster_sweep import prefix_hit_sweep

        rows = prefix_hit_sweep(
            LLAMA3_70B,
            share_probs=(0.0, 0.9),
            rate_rps=4.0,
            duration_s=12.0,
        )
        # (uncached, cached) pairs, one per sharing level.
        return list(zip(rows[::2], rows[1::2]))

    def test_hit_rate_rises_with_sharing(self, sweep):
        (_, no_share), (_, high_share) = sweep
        assert no_share["traffic.prefix_share_prob"] == 0.0
        assert no_share["hit_rate"] == 0.0
        assert high_share["hit_rate"] > no_share["hit_rate"]

    def test_caching_never_loses_at_equal_budget(self, sweep):
        for uncached, cached in sweep:
            assert (uncached["prefix_caching"], cached["prefix_caching"]) == (False, True)
            assert cached["completed"] == uncached["completed"]
            assert cached["goodput"] >= uncached["goodput"]

    def test_hits_lower_ttft(self, sweep):
        uncached, cached = sweep[-1]
        assert cached["ttft_p50_s"] < uncached["ttft_p50_s"]


class TestSwapCrossoverSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.analysis.cluster_sweep import swap_crossover_sweep

        rows = swap_crossover_sweep(
            LLAMA3_70B,
            host_link_gbps=(100.0, 1.5),
            duration_s=15.0,
        )
        # Per link: {swap policy value: row}.
        by_link = {}
        for row in rows:
            by_link.setdefault(row["host_link_gbps"], {})[row["swap_policy"].value] = row
        return by_link[100.0], by_link[1.5]

    def test_crossover_exists_along_the_link_axis(self, sweep):
        fast, slow = (link["auto"] for link in sweep)
        assert fast["swap_s"] < fast["recompute_s"]
        assert not slow["swap_s"] < slow["recompute_s"]
        # Recompute cost does not depend on the host link.
        assert fast["recompute_s"] == pytest.approx(slow["recompute_s"])

    def test_auto_tracks_the_cheaper_branch(self, sweep):
        fast, slow = sweep
        assert fast["auto"]["preemptions"] > 0 and slow["auto"]["preemptions"] > 0
        assert fast["auto"]["swap_fraction"] == 1.0
        assert slow["auto"]["swap_fraction"] == 0.0
        # On the slow link AUTO must not pay the swap penalty.
        assert slow["auto"]["e2e_p95_s"] <= slow["always"]["e2e_p95_s"] + 1e-9


class TestPrefillPolicySweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.analysis.cluster_sweep import prefill_policy_sweep

        rows = prefill_policy_sweep(
            LLAMA3_70B,
            rates_rps=(2.0, 8.0),
            duration_s=10.0,
        )
        # {rate: {binding label: row}}; "arrival" is the arrival-bound
        # FIFO baseline, the rest are late-bound policies.
        by_rate = {}
        for row in rows:
            by_rate.setdefault(row["traffic.rate_rps"], {})[row["binding"]] = row
        return by_rate

    @staticmethod
    def late(runs):
        return [row for label, row in runs.items() if label != "arrival"]

    @staticmethod
    def recovered_hit_rate(runs):
        return [row["hit_rate"] - runs["arrival"]["hit_rate"] for row in
                TestPrefillPolicySweep.late(runs)]

    def test_every_policy_completes_everything(self, sweep):
        from repro.serving.cluster import PrefillPolicy

        for runs in sweep.values():
            assert set(runs) == {"arrival"} | {p.value for p in PrefillPolicy}
            # Identical traffic at each rate: every policy completes the
            # same request count.
            assert len({row["completed"] for row in self.late(runs)}) == 1

    def test_late_binding_recovers_hits_under_saturation(self, sweep):
        saturated = sweep[8.0]
        arrival = saturated["arrival"]
        for p in self.late(saturated):
            assert p["hit_rate"] > arrival["hit_rate"]
            assert p["late_hit_tokens"] > 0
            assert p["hit_rate"] - arrival["hit_rate"] > 0.0
            assert p["sibling_ttft_mean_s"] < arrival["sibling_ttft_mean_s"]

    def test_gap_widens_with_load(self, sweep):
        """The recovered hit rate grows as the prefill pool saturates
        -- at low load the queue is empty and both bindings agree."""
        assert max(self.recovered_hit_rate(sweep[2.0])) < min(
            self.recovered_hit_rate(sweep[8.0])
        )

    def test_affine_beats_fifo_hit_rate_at_saturation(self, sweep):
        saturated = sweep[8.0]
        assert saturated["prefix_affine"]["hit_rate"] >= saturated["fifo"]["hit_rate"]
        assert saturated["prefix_affine"]["queue_peak_depth"] >= 1


class TestTenantContentionSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return tenant_contention_sweep(
            LLAMA3_70B, load_scales=(1.0, 4.0), duration_s=10.0
        )

    def test_one_row_per_tenant_per_run(self, rows):
        assert [
            (r["load_scale"], r["admission.enabled"], r["tenant"]) for r in rows
        ] == [
            (scale, shedding, tenant)
            for scale in (1.0, 4.0)
            for shedding in (False, True)
            for tenant in ("batch", "interactive")
        ]
        assert all(list(r)[-1] == "digest" for r in rows)

    def test_no_shedding_without_admission(self, rows):
        assert all(r["shed"] == 0 for r in rows if not r["admission.enabled"])
        # At 4x load the admission-controlled fleet sheds the low-weight
        # batch tenant, never the interactive one.
        shed = {r["tenant"]: r["shed"] for r in rows
                if r["load_scale"] == 4.0 and r["admission.enabled"]}
        assert shed["batch"] > 0 and shed["interactive"] == 0

    def test_digests_pinned(self, rows):
        assert [r["digest"] for r in rows[::2]] == [
            "dcab2687ea2285a62ab60da37723ed34cb3c052671658176a69c82b42e899b7c",
            "dcab2687ea2285a62ab60da37723ed34cb3c052671658176a69c82b42e899b7c",
            "6d69c76e4ed23e19f98e326a719e91b6e54dbd2671f22f7f4e02f35802e313a5",
            "7fe66f597d4b02bd350b2a46c5b2304c3def8f175c8390685625fa4777400957",
        ]


class TestAutoscalerSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return autoscaler_sweep(LLAMA3_70B, peak_scales=(2.0, 8.0), duration_s=20.0)

    def test_elastic_fleet_is_cheaper(self, rows):
        assert [(r["peak_scale"], r["elastic"]) for r in rows] == [
            (2.0, False), (2.0, True), (8.0, False), (8.0, True),
        ]
        for static, elastic in zip(rows[::2], rows[1::2]):
            assert static["scale_ups"] == static["scale_downs"] == 0
            assert elastic["scale_ups"] > 0
            assert elastic["completed"] == static["completed"]
            assert elastic["usd_per_mtok"] < static["usd_per_mtok"]

    def test_digests_pinned(self, rows):
        assert [r["digest"] for r in rows] == [
            "ee356dcf3f44ea02ca2d788b8c0f2304f3075b3054704ed21fc0f3ee92af6a9f",
            "ee534b55c980706d48182cfaa94d5cb21c48ba5abd04695098d5e12759f2c042",
            "4a7b09ec10f4a6402151a73b004334bb50c109483b3ee0a1dd1a18656f531030",
            "341488844790ac2e089e38643838466296da8c5ac9648419fed0aefa91b34966",
        ]


class TestSpecDecAcceptanceSweep:
    @pytest.fixture(scope="class")
    def rows(self):
        return specdec_acceptance_sweep(LLAMA3_70B, accepted=(2.0, 4.6), duration_s=5.0)

    def test_baseline_first_and_speedup_relative_to_it(self, rows):
        baseline = rows[0]
        assert (baseline["accepted_per_window"], baseline["lookahead"]) == (0.0, 0)
        assert baseline["speedup"] == 1.0
        assert [r["lookahead"] for r in rows[1:]] == [8, 8]
        assert rows[2]["speedup"] > rows[1]["speedup"]
        assert all(r["completed"] == baseline["completed"] for r in rows)
        assert all(list(r)[-2:] == ["speedup", "digest"] for r in rows)

    def test_digests_pinned(self, rows):
        assert [r["digest"] for r in rows] == [
            "ac3c3f8f3ae364187fd28d4cb2c08f74bf1e61dbedc1c0d49b0fe1a961a5d24c",
            "cecbac9ca929ae7cbee503aaba4bc03f4cc126089b0624c72408e088d4ab5f5a",
            "0c52fd5c8a52636c35d7a2389e6b79fbad74e609628fcb7790a2571e12aeeddf",
        ]
