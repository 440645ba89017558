"""Model zoo: parameter counts, GQA geometry, MoE routing expectations."""

import pytest
from hypothesis import given, strategies as st

from repro.models.config import AttentionConfig, LayerClass, MoeConfig
from repro.models.llama3 import LLAMA3_8B, LLAMA3_70B, LLAMA3_405B
from repro.models.llama4 import LLAMA4_MAVERICK, LLAMA4_SCOUT
from repro.models.registry import MODELS, get_model


class TestParameterCounts:
    """Totals must land on the published model sizes."""

    @pytest.mark.parametrize(
        "model, billions",
        [(LLAMA3_8B, 8.0), (LLAMA3_70B, 70.6), (LLAMA3_405B, 405.8)],
    )
    def test_dense_totals(self, model, billions):
        assert model.total_params / 1e9 == pytest.approx(billions, rel=0.01)

    def test_maverick_total_400b(self):
        assert LLAMA4_MAVERICK.total_params / 1e9 == pytest.approx(400, rel=0.02)

    def test_scout_total_109b(self):
        assert LLAMA4_SCOUT.total_params / 1e9 == pytest.approx(108, rel=0.02)

    @pytest.mark.parametrize("model", [LLAMA4_SCOUT, LLAMA4_MAVERICK])
    def test_llama4_active_17b(self, model):
        assert model.active_params_per_token / 1e9 == pytest.approx(16.5, rel=0.05)

    def test_dense_active_close_to_total(self):
        # Dense models activate everything except the embedding lookup.
        ratio = LLAMA3_70B.active_params_per_token / LLAMA3_70B.total_params
        assert 0.97 < ratio <= 1.0

    def test_maverick_fused_gate_up_168m(self):
        """The paper's Challenge 3 example: 5k x 32k = 168M parameters."""
        h = LLAMA4_MAVERICK.hidden_size
        fused = 2 * h * LLAMA4_MAVERICK.intermediate_size
        assert fused / 1e6 == pytest.approx(168, rel=0.01)


class TestGqa:
    def test_405b_gqa_ratio_16(self):
        assert LLAMA3_405B.attention.queries_per_kv_head == 16

    def test_llama4_gqa_ratio_5(self):
        assert LLAMA4_MAVERICK.attention.queries_per_kv_head == 5

    def test_bad_gqa_rejected(self):
        with pytest.raises(ValueError):
            AttentionConfig(num_heads=10, num_kv_heads=3, head_dim=128)

    def test_local_attention_spans(self):
        attn = LLAMA4_MAVERICK.attention
        spans = [attn.attention_span(i, 131072) for i in range(8)]
        assert spans.count(131072) == 2  # every 4th layer is global
        assert spans.count(8192) == 6

    def test_llama3_all_global(self):
        attn = LLAMA3_70B.attention
        assert all(attn.attention_span(i, 50000) == 50000 for i in range(10))


class TestLayerClasses:
    def test_dense_model_has_one_class(self):
        classes, order = LLAMA3_70B.layer_classes
        assert classes == (LayerClass(is_global=True, is_moe=False, first_layer=0),)
        assert order == (0,) * LLAMA3_70B.num_layers

    def test_maverick_interleaves_three_classes(self):
        classes, order = LLAMA4_MAVERICK.layer_classes
        assert classes == (
            LayerClass(False, False, 0), LayerClass(False, True, 1), LayerClass(True, True, 3)
        )
        assert order[:8] == (0, 1, 0, 2, 0, 1, 0, 2)

    @pytest.mark.parametrize("model", list(MODELS.values()), ids=list(MODELS))
    def test_order_matches_per_layer_signatures(self, model):
        classes, order = model.layer_classes
        assert len(order) == model.num_layers
        for layer, k in enumerate(order):
            assert classes[k][:2] == (
                model.attention.is_global_layer(layer), model.is_moe_layer(layer)
            )
            assert classes[k].first_layer <= layer
        assert model.layer_classes is model.layer_classes  # cached


class TestMoe:
    def test_maverick_alternates_layers(self):
        assert LLAMA4_MAVERICK.num_moe_layers == 24
        assert LLAMA4_MAVERICK.num_dense_layers == 24

    def test_scout_all_moe(self):
        assert LLAMA4_SCOUT.num_moe_layers == LLAMA4_SCOUT.num_layers

    def test_expected_experts_one_token(self):
        assert LLAMA4_MAVERICK.moe.expected_active_experts(1) == pytest.approx(1.0)

    def test_expected_experts_bounded(self):
        assert LLAMA4_SCOUT.moe.expected_active_experts(10_000) <= 16

    def test_expected_experts_zero_tokens(self):
        assert LLAMA4_SCOUT.moe.expected_active_experts(0) == 0.0

    @given(st.integers(min_value=1, max_value=512))
    def test_expected_experts_monotone(self, tokens):
        moe = LLAMA4_MAVERICK.moe
        assert moe.expected_active_experts(tokens + 1) >= moe.expected_active_experts(
            tokens
        )

    def test_top_k_exceeding_experts_rejected(self):
        with pytest.raises(ValueError):
            MoeConfig(
                num_experts=4,
                experts_per_token=5,
                expert_intermediate_size=8,
                shared_expert_intermediate_size=8,
            )

    def test_moe_params_on_dense_model_raises(self):
        with pytest.raises(ValueError):
            LLAMA3_8B.moe_layer_params()


class TestRegistry:
    def test_all_five_models_present(self):
        assert len(MODELS) == 5

    def test_lookup(self):
        assert get_model("Llama3-70B") is LLAMA3_70B

    def test_unknown_model_raises_with_names(self):
        with pytest.raises(KeyError, match="Llama3-8B"):
            get_model("GPT-5")

    def test_str_shows_kind(self):
        assert "MoE" in str(LLAMA4_SCOUT)
        assert "dense" in str(LLAMA3_8B)
