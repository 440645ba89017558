"""Kernel profiles: arithmetic intensity shapes, KV sizing, consistency."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.models.dtypes import DType
from repro.models import MODELS
from repro.models.flops import (
    KernelKind,
    chunked_prefill_flops,
    decode_step_profile,
    decode_step_values,
    layer_step_profiles,
    prefill_step_profile,
    prefill_step_values,
    step_arithmetic_intensity,
    step_totals,
)
from repro.models.kv_cache import kv_bytes_per_token, kv_cache_bytes
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B, LLAMA3_405B
from repro.models.llama4 import LLAMA4_MAVERICK
from repro.models.workload import Workload


class TestArithmeticIntensity:
    def test_dense_bs1_low(self):
        workload = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
        assert 2 < step_arithmetic_intensity(workload) < 8

    def test_dense_ai_grows_with_batch(self):
        """Fig 1 right: dense AI rises ~linearly, reaching ~64 at BS=32."""
        w1 = Workload(LLAMA3_70B, batch_size=1, seq_len=8192)
        w32 = w1.with_batch(32)
        assert step_arithmetic_intensity(w32) == pytest.approx(64, rel=0.15)

    def test_moe_ai_flattens(self):
        """Fig 1 right: MoE stays well below dense at BS=32."""
        dense = step_arithmetic_intensity(Workload(LLAMA3_70B, batch_size=32))
        moe = step_arithmetic_intensity(Workload(LLAMA4_MAVERICK, batch_size=32))
        assert moe < dense / 2

    @given(st.sampled_from([1, 2, 4, 8, 16, 32]))
    def test_ai_monotone_in_batch(self, batch):
        w = Workload(LLAMA3_8B, batch_size=batch, seq_len=4096)
        w2 = w.with_batch(batch * 2)
        assert step_arithmetic_intensity(w2) > step_arithmetic_intensity(w)


class TestProfiles:
    def test_dense_405b_step_traffic(self):
        """~217 GB per BS=1 step at MXFP4 + 8k FP8 KV."""
        totals = step_totals(decode_step_profile(Workload(LLAMA3_405B)))
        assert totals["hbm_bytes"] / 1e9 == pytest.approx(217, rel=0.02)

    def test_weight_bytes_batch_invariant(self):
        """Weights are read once per step regardless of batch (dense)."""
        t1 = step_totals(decode_step_profile(Workload(LLAMA3_8B, batch_size=1)))
        t8 = step_totals(decode_step_profile(Workload(LLAMA3_8B, batch_size=8)))
        assert t1["weight_bytes"] == pytest.approx(t8["weight_bytes"])

    def test_kv_bytes_scale_with_batch(self):
        t1 = step_totals(decode_step_profile(Workload(LLAMA3_8B, batch_size=1)))
        t8 = step_totals(decode_step_profile(Workload(LLAMA3_8B, batch_size=8)))
        assert t8["kv_bytes"] == pytest.approx(8 * t1["kv_bytes"])

    def test_moe_weight_bytes_grow_with_batch(self):
        """MoE weight traffic grows with unique experts activated."""
        t1 = step_totals(decode_step_profile(Workload(LLAMA4_MAVERICK, batch_size=1)))
        t32 = step_totals(decode_step_profile(Workload(LLAMA4_MAVERICK, batch_size=32)))
        assert t32["weight_bytes"] > 3 * t1["weight_bytes"]

    def test_flops_scale_with_batch(self):
        t1 = step_totals(decode_step_profile(Workload(LLAMA3_8B, batch_size=1)))
        t4 = step_totals(decode_step_profile(Workload(LLAMA3_8B, batch_size=4)))
        assert t4["flops"] == pytest.approx(4 * t1["flops"], rel=0.01)

    def test_kernel_names_match_fig8(self):
        names = {k.name for k in decode_step_profile(Workload(LLAMA3_8B))}
        for expected in ("wQKV", "QK^T", "s(QK)V", "wO", "wUp/wGate", "wDown"):
            assert expected in names

    def test_broadcast_kernels_only_fresh_inputs(self):
        kernels = decode_step_profile(Workload(LLAMA3_8B))
        with_collective = {
            k.name for k in kernels if k.kind is KernelKind.LINEAR and k.collective_bytes
        }
        assert with_collective == {"wQKV", "wUp/wGate", "lm_head"}

    def test_sdpa_ai_independent_of_seq(self):
        """Attention AI is constant in seq length (flops and KV both scale)."""
        short = decode_step_profile(Workload(LLAMA3_8B, seq_len=2048))
        long = decode_step_profile(Workload(LLAMA3_8B, seq_len=16384))
        ai = lambda ks: next(
            k.arithmetic_intensity for k in ks if k.kind is KernelKind.SDPA
        )
        assert ai(short) == pytest.approx(ai(long))

    def test_prefill_scales_flops_not_weights(self):
        w = Workload(LLAMA3_8B, batch_size=1, seq_len=4096)
        decode = step_totals(decode_step_profile(w))
        prefill = step_totals(prefill_step_profile(w, chunk_tokens=512))
        assert prefill["weight_bytes"] == pytest.approx(
            decode["weight_bytes"] - LLAMA3_8B.vocab_size * LLAMA3_8B.hidden_size
            * w.weight_dtype.nbytes,
            rel=0.01,
        )
        assert prefill["flops"] > 100 * decode["flops"]

    def test_prefill_rejects_zero_chunk(self):
        with pytest.raises(ValueError):
            prefill_step_profile(Workload(LLAMA3_8B), chunk_tokens=0)


def _flat_prefill_flops(workload, chunk_tokens):
    """The flat per-kernel FLOPs sum over the prefill step kernels."""
    prompt = workload.prefill_len
    if prompt == 0:
        return 0.0
    num_chunks = max(1, round(prompt / chunk_tokens))
    total = 0.0
    for kernel in prefill_step_values(workload, prompt // num_chunks):
        total += kernel.flops
    return total * num_chunks


class TestValueSharing:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_chunked_prefill_flops_bit_identical(self, name):
        """Class FLOPs rows give the flat sum bit for bit: batch 1 and 3,
        prompts at and around chunk multiples, and contexts on both
        sides of Llama4's local window (8192)."""
        for batch in (1, 3):
            for chunk in (512, 2048):
                for prompt in (0, 1, 100, 2047, 2048, 2049, 4095, 4096, 4097, 6144):
                    for decode in (1, 4000, 8192):
                        workload = Workload(
                            MODELS[name], batch_size=batch,
                            seq_len=prompt + decode, decode_len=decode,
                        )
                        assert chunked_prefill_flops(workload, chunk) == (
                            _flat_prefill_flops(workload, chunk)
                        ), workload

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("seq_len", [100, 8192, 8193, 20000])
    def test_shared_layer_lists_match_labeled_profile(self, name, seq_len):
        """Shared per-signature lists equal the labeled profile up to the
        ``layer`` label; one list per distinct (span, MoE) signature."""
        workload = Workload(MODELS[name], batch_size=2, seq_len=seq_len)
        strip = lambda kernels: [dataclasses.replace(k, layer=None) for k in kernels]
        assert strip(decode_step_values(workload)) == strip(decode_step_profile(workload))
        assert strip(prefill_step_values(workload, 64)) == strip(
            prefill_step_profile(workload, 64)
        )
        model = workload.model
        lists = layer_step_profiles(workload, 2)
        signatures = [
            (model.attention.attention_span(layer, seq_len), model.is_moe_layer(layer))
            for layer in range(model.num_layers)
        ]
        for layer, kernels in enumerate(lists):
            first = signatures.index(signatures[layer])
            assert kernels is lists[first]
            assert {k.layer for k in kernels} == {first}


class TestKvCache:
    def test_405b_kv_per_token(self):
        """126 layers x 2 x 1 KiB at FP8 = 258 KB/token."""
        assert kv_bytes_per_token(LLAMA3_405B, DType.FP8) == pytest.approx(
            258e3, rel=0.01
        )

    def test_local_attention_caps_kv(self):
        """Llama4's local layers stop growing past the window."""
        short = kv_cache_bytes(LLAMA4_MAVERICK, 8192, 1, DType.FP8)
        long = kv_cache_bytes(LLAMA4_MAVERICK, 131072, 1, DType.FP8)
        # 16x the sequence but far less than 16x the cache.
        assert long < 6 * short

    def test_dense_kv_linear_in_seq(self):
        short = kv_cache_bytes(LLAMA3_70B, 4096, 1, DType.FP8)
        long = kv_cache_bytes(LLAMA3_70B, 8192, 1, DType.FP8)
        assert long == pytest.approx(2 * short)

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            kv_cache_bytes(LLAMA3_8B, -1, 1, DType.FP8)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_class_spans_match_per_layer_sum(self, name):
        """Per-class spans give the per-layer float sum bit for bit."""
        model = MODELS[name]
        for seq_len in (0, 77, 8191, 8192, 8193, 131072):
            for dtype in DType:
                per_layer_token = 2 * model.attention.kv_dim * dtype.nbytes
                total = 0.0
                for layer in range(model.num_layers):
                    total += model.attention.attention_span(layer, seq_len) * per_layer_token
                assert kv_cache_bytes(model, seq_len, 3, dtype) == 3 * total


class TestWorkload:
    def test_footprint_is_weights_plus_kv(self):
        w = Workload(LLAMA3_70B, batch_size=4, seq_len=8192)
        assert w.memory_footprint_bytes() == pytest.approx(
            w.weight_footprint_bytes() + w.kv_footprint_bytes()
        )

    def test_prefill_len(self):
        w = Workload(LLAMA3_8B, seq_len=16384, decode_len=2048)
        assert w.prefill_len == 14336

    def test_kv_fraction_grows_with_batch(self):
        w1 = Workload(LLAMA3_70B, batch_size=1, seq_len=32768)
        w8 = w1.with_batch(8)
        assert w8.kv_capacity_fraction() > w1.kv_capacity_fraction()

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            Workload(LLAMA3_8B, batch_size=0)

    def test_str_mentions_dtypes(self):
        assert "mxfp4" in str(Workload(LLAMA3_8B))
