"""Analytical RPU model: paper headline anchors."""

import dataclasses

import pytest

from repro.analysis import perf_model
from repro.analysis.perf_model import (
    decode_step_perf,
    decode_step_perf_row,
    iso_tdp_system,
    min_cus_for,
    system_for,
)
from repro.gpu.inference import decode_step
from repro.gpu.system import GpuSystem
from repro.models.dtypes import DType
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B, LLAMA3_405B
from repro.models.llama4 import LLAMA4_MAVERICK
from repro.models.registry import MODELS
from repro.models.workload import Workload
from repro.platform import GpuPlatform, RpuPlatform
from repro.serving.cluster import STEP_CONTEXT_BUCKET, ClusterConfig


class TestHeadlineLatencies:
    """Paper Section VIII: the fastest reported token latencies."""

    def test_70b_at_204_cus(self):
        workload = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
        result = decode_step_perf(system_for(204, workload), workload)
        assert result.latency_s * 1e3 == pytest.approx(0.4, rel=0.15)

    def test_405b_at_428_cus(self):
        workload = Workload(LLAMA3_405B, batch_size=1, seq_len=8192)
        result = decode_step_perf(system_for(428, workload), workload)
        assert result.latency_s * 1e3 == pytest.approx(1.0, rel=0.25)

    def test_maverick_at_128_cus(self):
        workload = Workload(LLAMA4_MAVERICK, batch_size=1, seq_len=8192)
        result = decode_step_perf(system_for(128, workload), workload)
        assert result.latency_s * 1e3 == pytest.approx(0.2, abs=0.06)

    def test_8b_sub_100us_possible(self):
        workload = Workload(LLAMA3_8B, batch_size=1, seq_len=8192)
        result = decode_step_perf(system_for(108, workload), workload)
        assert result.latency_s < 0.12e-3


class TestIsoTdpSpeedups:
    """Paper: 35-45x lower latency than H100 systems at ISO-TDP."""

    @pytest.mark.parametrize(
        "model, gpus, low, high",
        [
            (LLAMA3_405B, 4, 25, 55),
            (LLAMA3_70B, 2, 30, 55),
            (LLAMA3_8B, 1, 25, 55),
        ],
    )
    def test_speedup_band(self, model, gpus, low, high):
        workload = Workload(model, batch_size=1, seq_len=8192)
        gpu = GpuSystem(count=gpus)
        rpu = iso_tdp_system(gpu, workload)
        speedup = (
            decode_step(gpu, workload).latency_s
            / decode_step_perf(rpu, workload).latency_s
        )
        assert low <= speedup <= high

    def test_iso_tdp_cu_count_for_4xh100(self):
        workload = Workload(LLAMA3_405B, batch_size=1, seq_len=8192)
        rpu = iso_tdp_system(GpuSystem(count=4), workload)
        assert 280 <= rpu.num_cus <= 340  # paper: 308


class TestModelStructure:
    def test_memory_bound_at_small_scale(self):
        workload = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
        result = decode_step_perf(system_for(32, workload), workload)
        assert result.bound in ("memory", "compute")
        assert result.mem_bw_utilization > 0.8

    def test_network_bound_at_plateau(self):
        """Beyond the optimal scale, broadcasting dominates (Sec VIII)."""
        workload = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
        result = decode_step_perf(system_for(500, workload), workload)
        assert result.bound == "network"

    def test_latency_monotone_then_plateau(self):
        workload = Workload(LLAMA3_405B, batch_size=1, seq_len=8192)
        lat = [
            decode_step_perf(system_for(n, workload), workload).latency_s
            for n in (64, 128, 256, 428)
        ]
        assert lat[0] > lat[1] > lat[2] > lat[3]

    def test_coupled_slower_than_decoupled(self):
        workload = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
        system = system_for(204, workload)
        coupled = decode_step_perf(system, workload, decoupled=False)
        decoupled = decode_step_perf(system, workload, decoupled=True)
        assert coupled.latency_s > decoupled.latency_s

    def test_energy_memory_dominated(self):
        workload = Workload(LLAMA3_405B, batch_size=1, seq_len=8192)
        result = decode_step_perf(system_for(64, workload), workload)
        assert result.energy_mem_j > result.energy_comp_j + result.energy_net_j

    def test_capacity_check(self):
        workload = Workload(LLAMA3_405B, batch_size=1, seq_len=8192)
        from repro.arch.system import RpuSystem

        with pytest.raises(ValueError, match="cannot hold"):
            decode_step_perf(RpuSystem(16), workload)

    def test_min_cus_positive_and_sufficient(self):
        workload = Workload(LLAMA3_405B, batch_size=1, seq_len=8192)
        floor = min_cus_for(workload)
        system = system_for(floor, workload)
        assert system.fits(workload.memory_footprint_bytes())


# ----------------------------------------------------------------------
# Row variant: one numpy pass per context row, bit-identical elements
# ----------------------------------------------------------------------
needs_rows = pytest.mark.skipif(
    perf_model._np is None, reason="row path needs numpy (off or not installed)"
)

#: Batches the fleet's lane asks for most (1-4) plus mid and max batch.
ROW_BATCHES = (1, 2, 3, 7, 64, 128)
#: Bucket multiples past the sub-bucket range, across Llama4's 8192
#: local window (``np.minimum`` on local layers).
ROW_BUCKET_MULTIPLES = (1024, 8192, 8704, 16384, 130560)


def _rpu_for(model):
    sizing = Workload(model, batch_size=32, seq_len=8192)
    return RpuPlatform(system_for(max(128, min_cus_for(sizing)), sizing))


@needs_rows
class TestDecodeStepRow:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_row_equals_scalar_platform_step(self, name):
        """Every element ``==`` the scalar ``RpuPlatform.decode_step``
        for every registry model (dense, local-window, MoE).  Each
        (batch, dtype) pair checks every ``len(pairs)``-th sub-bucket
        context at a distinct offset, so together they cover contexts
        1-512 exactly once, plus the bucket multiples in every pair."""
        model = MODELS[name]
        platform = _rpu_for(model)
        # The fleet's verify dtype (the cluster default) and its draft
        # dtype (the platform's preferred one), plus FP8: another
        # bytes-per-weight and stream-decoder rate.
        dtypes = dict.fromkeys(
            (ClusterConfig.weight_dtype, platform.preferred_weight_dtype, DType.FP8)
        )
        pairs = [(b, d) for b in ROW_BATCHES for d in dtypes]
        covered = set()
        for offset, (batch, dtype) in enumerate(pairs):
            contexts = list(range(1 + offset, STEP_CONTEXT_BUCKET + 1, len(pairs)))
            contexts += ROW_BUCKET_MULTIPLES
            covered.update(contexts)
            point = Workload(model, batch_size=batch, seq_len=contexts[0],
                             decode_len=1, weight_dtype=dtype)
            row = platform.decode_step_row(point, contexts)
            assert len(row) == len(contexts)
            for context, step in zip(contexts, row):
                scalar = platform.decode_step(
                    point.with_seq_len(context), check_capacity=False
                )
                assert step == scalar, (name, batch, dtype, context)
                assert type(step.latency_s) is float
        assert covered >= set(range(1, STEP_CONTEXT_BUCKET + 1))

    def test_every_result_field_matches(self):
        workload = Workload(LLAMA4_MAVERICK, batch_size=3, seq_len=1, decode_len=1)
        system = _rpu_for(LLAMA4_MAVERICK).system
        contexts = [1, 2, 511, 512, 8192, 9000]
        row = decode_step_perf_row(system, workload, contexts)
        for i, context in enumerate(contexts):
            scalar = decode_step_perf(
                system, workload.with_seq_len(context), check_capacity=False
            )
            for field in dataclasses.fields(scalar):
                value = getattr(row, field.name)
                element = value if field.name == "num_cus" else value[i]
                assert element == getattr(scalar, field.name), (field.name, context)

    def test_no_row_without_numpy(self, monkeypatch):
        monkeypatch.setattr(perf_model, "_np", None)
        point = Workload(LLAMA3_8B, batch_size=1, seq_len=8, decode_len=1)
        assert _rpu_for(LLAMA3_8B).decode_step_row(point, [8, 9]) is None


def test_gpu_decode_has_no_row_path():
    """GPU decode shrinks each context until it fits: scalar only."""
    point = Workload(LLAMA3_8B, batch_size=1, seq_len=8, decode_len=1)
    assert GpuPlatform(GpuSystem(count=2)).decode_step_row(point, [8, 9]) is None
