"""MXFP: OCP microscaling floating point (MXFP4 / MXFP6 / MXFP8).

A block of 32 elements shares a power-of-two scale (E8M0); each element is
a minifloat (E2M1 for MXFP4, E3M2 for MXFP6, E4M3 for MXFP8).  This is the
RPU's default weight format (Figs 8-13 run MXFP4 weights).
"""

from __future__ import annotations

from dataclasses import dataclass

# simlint: module-ok[numpy-guarding] numpy-native quantization kernels;
# excluded from the pure-Python (REPRO_NO_NUMPY) leg by design
import numpy as np

from repro.quant.blocks import (
    QuantizedTensor,
    from_blocks,
    power_of_two_scale,
    saturating_product,
    to_blocks,
)
from repro.quant.minifloat import (
    FP4_E2M1,
    FP6_E3M2,
    FP8_E4M3_SPEC,
    MiniFloatSpec,
    quantize_minifloat,
)


@dataclass(frozen=True)
class MxfpCodec:
    """Microscaling codec: shared E8M0 scale over minifloat elements."""

    element_spec: MiniFloatSpec
    block_size: int = 32

    @property
    def name(self) -> str:
        return f"mxfp{self.element_spec.bits}"

    def encode(self, values: np.ndarray) -> QuantizedTensor:
        blocks, shape = to_blocks(values, self.block_size)
        block_max = np.abs(blocks).max(axis=1)
        scales = power_of_two_scale(block_max, self.element_spec.max_value)
        elements = quantize_minifloat(blocks / scales[:, None], self.element_spec)
        return QuantizedTensor(
            codec_name=self.name,
            shape=shape,
            block_size=self.block_size,
            scales=scales,
            payload=elements,
        )

    def decode(self, encoded: QuantizedTensor) -> np.ndarray:
        if encoded.codec_name != self.name:
            raise ValueError(
                f"codec mismatch: tensor is {encoded.codec_name}, codec is {self.name}"
            )
        blocks = saturating_product(encoded.payload, encoded.scales[:, None])
        return from_blocks(blocks, encoded.shape)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip convenience: decode(encode(values))."""
        return self.decode(self.encode(values))

    def bits_per_element(self) -> float:
        """Amortized storage bits per element (element + shared scale)."""
        return self.element_spec.bits + 8.0 / self.block_size


MXFP4 = MxfpCodec(FP4_E2M1)
MXFP6 = MxfpCodec(FP6_E3M2)
MXFP8 = MxfpCodec(FP8_E4M3_SPEC)
