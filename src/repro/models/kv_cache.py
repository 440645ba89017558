"""KV-cache sizing.

Every attention layer stores K and V for each cached token; grouped-query
attention shrinks this by the GQA ratio.  KV traffic is query-unique (no
reuse across a batch beyond GQA heads), which is why attention stays
memory-bandwidth-bound as batch grows while weight layers become
compute-bound -- the bimodal behaviour the RPU's decoupled pipelines absorb
(Fig 8, batch 32).
"""

from __future__ import annotations

from repro.models.config import ModelConfig
from repro.models.dtypes import DType


def kv_bytes_per_token(model: ModelConfig, kv_dtype: DType) -> float:
    """Bytes of KV cache appended per token across all layers (ignoring
    local-window eviction)."""
    per_layer = 2 * model.attention.kv_dim  # K and V
    return model.num_layers * per_layer * kv_dtype.nbytes


def kv_cache_bytes(
    model: ModelConfig,
    seq_len: int,
    batch_size: int,
    kv_dtype: DType,
) -> float:
    """Total KV-cache footprint for a batch of sequences.

    Layers with local (chunked) attention cache at most their window, so
    long-context footprints grow only with the global layers -- the
    Llama4 property that keeps Fig 10's 128k cells feasible.
    """
    if seq_len < 0 or batch_size < 0:
        raise ValueError("seq_len and batch_size must be non-negative")
    attn = model.attention
    per_layer_token = 2 * attn.kv_dim * kv_dtype.nbytes
    # One span per layer class, added per layer in layer order.
    classes, order = model.layer_classes
    per_class = [
        attn.attention_span(layer, seq_len) * per_layer_token for _, _, layer in classes
    ]
    total = 0.0
    for k in order:
        total += per_class[k]
    return batch_size * total
