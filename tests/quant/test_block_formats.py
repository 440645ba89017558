"""Block formats: MXFP, BFP, NxFP round-trips, error bounds, storage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.bfp import BfpCodec
from repro.quant.mxfp import MXFP4, MXFP6, MXFP8
from repro.quant.nxfp import NxfpCodec
from repro.quant.registry import codec_for

ALL_CODECS = [MXFP4, MXFP6, MXFP8, BfpCodec(), BfpCodec(mantissa_bits=8), NxfpCodec()]

tensors = hnp.arrays(
    np.float32,
    st.tuples(st.integers(1, 8), st.integers(1, 40)),
    elements=st.floats(-1e3, 1e3, width=32),
)


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
class TestRoundTrip:
    def test_shape_preserved(self, codec):
        x = np.random.default_rng(0).normal(size=(13, 7)).astype(np.float32)
        assert codec.quantize(x).shape == x.shape

    def test_zero_exact(self, codec):
        x = np.zeros((4, 16), np.float32)
        assert np.array_equal(codec.quantize(x), x)

    def test_idempotent(self, codec):
        x = np.random.default_rng(1).normal(size=64).astype(np.float32)
        once = codec.quantize(x)
        assert np.allclose(codec.quantize(once), once, rtol=1e-6, atol=1e-12)

    def test_sign_preserved(self, codec):
        x = np.array([-1.0, 1.0, -0.25, 0.25] * 8, np.float32)
        out = codec.quantize(x)
        nonzero = out != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(x[nonzero]))

    def test_relative_error_reasonable(self, codec):
        rng = np.random.default_rng(2)
        x = rng.normal(size=4096).astype(np.float32)
        rel = np.abs(codec.quantize(x) - x).mean() / np.abs(x).mean()
        assert rel < 0.25

    def test_codec_mismatch_rejected(self, codec):
        x = np.ones(32, np.float32)
        encoded = codec.encode(x)
        encoded.codec_name = "other"
        with pytest.raises(ValueError):
            codec.decode(encoded)


class TestErrorOrdering:
    def test_more_bits_less_error(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8192).astype(np.float32)
        errors = [
            np.abs(c.quantize(x) - x).mean() for c in (MXFP4, MXFP6, MXFP8)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_nxfp_beats_mxfp_at_4_bits(self):
        """Microexponents recover precision in quiet sub-blocks."""
        rng = np.random.default_rng(4)
        # Blocks with one outlier: worst case for a single shared scale.
        x = rng.normal(size=(256, 32)).astype(np.float32) * 0.1
        x[:, 0] = 8.0
        mx = np.abs(MXFP4.quantize(x) - x).mean()
        nx = np.abs(NxfpCodec().quantize(x) - x).mean()
        assert nx < mx

    def test_bfp_flushes_small_values_next_to_outlier(self):
        codec = BfpCodec(mantissa_bits=4, block_size=16)
        x = np.full(16, 0.001, np.float32)
        x[0] = 100.0
        out = codec.quantize(x)
        assert out[0] == pytest.approx(100.0, rel=0.2)
        assert np.all(out[1:] == 0.0)


class TestStorage:
    def test_mxfp4_bits_per_element(self):
        assert MXFP4.bits_per_element() == pytest.approx(4.25)

    def test_bfp4_bits_per_element(self):
        assert BfpCodec().bits_per_element() == pytest.approx(4.5)

    def test_nxfp4_bits_per_element(self):
        assert NxfpCodec().bits_per_element() == pytest.approx(4.375)

    def test_storage_bits_accounting(self):
        x = np.ones(64, np.float32)
        enc = MXFP4.encode(x)
        assert enc.storage_bits(4, 8) == 2 * (32 * 4 + 8)

    def test_registry_lookup(self):
        assert codec_for("mxfp4") is MXFP4

    def test_registry_unknown(self):
        with pytest.raises(KeyError):
            codec_for("int3")


class TestProperties:
    @settings(max_examples=30)
    @given(tensors)
    def test_mxfp8_error_bound(self, x):
        out = MXFP8.quantize(x)
        block_max = np.abs(x).max() if x.size else 0.0
        # Error bounded by the element format's epsilon times block scale.
        assert np.all(np.abs(out - x) <= np.abs(x) * 0.0725 + block_max * 2e-3 + 1e-30)

    @settings(max_examples=30)
    @given(tensors)
    def test_nxfp_padding_roundtrip(self, x):
        out = NxfpCodec().quantize(x)
        assert out.shape == x.shape

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "loud, quiet, quiet_at",
        [(1.0, 1e-45, 1), (1.0, 1e-45, 8), (3e38, 1.0, 1), (3e38, 1.0, 8)],
    )
    def test_nxfp_extreme_block_does_not_overflow(self, loud, quiet, quiet_at):
        """A subnormal next to a normal value, or a value near the float32
        limit, must overflow neither the microexponent headroom nor the
        decode; quiet_at=8 puts the quiet value in its own sub-block."""
        x = np.zeros(32, np.float32)
        x[0], x[quiet_at] = loud, quiet
        codec = NxfpCodec()
        offsets = codec.encode(x).extra["offsets"]
        assert offsets.min() >= 0 and offsets.max() <= codec.max_offset
        out = codec.quantize(x)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(loud, rel=0.25)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "codec", [MXFP4, MXFP6, MXFP8, BfpCodec(), BfpCodec(mantissa_bits=8)],
        ids=lambda c: c.name,
    )
    @pytest.mark.parametrize("loud", [3.0e38, float(np.finfo(np.float32).max)])
    def test_block_near_float32_max_saturates(self, codec, loud):
        """A block near the float32 limit rounds its largest elements up
        past it (MXFP4: 3e38 / 2**126 rounds to 4, and 4 * 2**126 is
        2**128): decode saturates at the float32 maximum, not inf."""
        for x in (np.full(32, loud, np.float32), np.array([loud, -1.0] * 16, np.float32)):
            out = codec.quantize(x)
            assert np.all(np.isfinite(out))
            assert out[0] == pytest.approx(loud, rel=0.25)
            assert out.max() <= np.finfo(np.float32).max

    def test_saturation_keeps_in_range_blocks_bit_identical(self):
        """Below the limit the float64 decode rounds once to the same
        float32 the direct float32 product gives."""
        x = np.random.default_rng(7).normal(scale=1e3, size=256).astype(np.float32)
        for codec in ALL_CODECS[:-1]:
            enc = codec.encode(x)
            direct = (enc.payload.astype(np.float32) * enc.scales[:, None]).reshape(-1)
            assert np.array_equal(codec.decode(enc), direct[: x.size])

    def test_nxfp_missing_offsets_rejected(self):
        codec = NxfpCodec()
        enc = codec.encode(np.ones(32, np.float32))
        enc.extra = None
        with pytest.raises(ValueError):
            codec.decode(enc)
