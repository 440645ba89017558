"""BFP: block floating point (Microsoft MSFP-style).

A block of elements shares one exponent (that of the largest magnitude);
each element stores a sign and an integer mantissa aligned to that shared
exponent.  Elements far below the block maximum lose precision or flush to
zero -- the characteristic BFP failure mode the per-block tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

# simlint: module-ok[numpy-guarding] numpy-native quantization kernels;
# excluded from the pure-Python (REPRO_NO_NUMPY) leg by design
import numpy as np

from repro.quant.blocks import QuantizedTensor, from_blocks, saturating_product, to_blocks


@dataclass(frozen=True)
class BfpCodec:
    """Block-floating-point codec.

    Parameters
    ----------
    mantissa_bits:
        Bits per element including sign (e.g. 4 -> sign + 3 magnitude bits).
    block_size:
        Elements sharing one exponent (16 in Microsoft floating point).
    """

    mantissa_bits: int = 4
    block_size: int = 16

    def __post_init__(self) -> None:
        if self.mantissa_bits < 2:
            raise ValueError("BFP needs at least sign + 1 mantissa bit")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")

    @property
    def name(self) -> str:
        return f"bfp{self.mantissa_bits}"

    @property
    def magnitude_levels(self) -> int:
        """Integer mantissa range (excluding sign)."""
        return (1 << (self.mantissa_bits - 1)) - 1

    def encode(self, values: np.ndarray) -> QuantizedTensor:
        blocks, shape = to_blocks(values, self.block_size)
        block_max = np.abs(blocks).max(axis=1)
        # Shared exponent: scale so the block max maps to the top mantissa code.
        safe_max = np.where(block_max > 0, block_max, 1.0)
        shared_exp = np.ceil(np.log2(safe_max / self.magnitude_levels))
        step = np.exp2(shared_exp).astype(np.float32)
        codes = np.rint(blocks / step[:, None]).astype(np.int32)
        codes = np.clip(codes, -self.magnitude_levels, self.magnitude_levels)
        return QuantizedTensor(
            codec_name=self.name,
            shape=shape,
            block_size=self.block_size,
            scales=step,
            payload=codes,
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
        """Amortized storage bits per element (mantissa + shared exponent)."""
        return self.mantissa_bits + 8.0 / self.block_size
