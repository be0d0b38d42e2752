"""Symbolic shape/dtype checker: shipped configs pass, corruption fails."""

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.circuits.devices import NODE_TYPES
from repro.graph.features import feature_dim
from repro.models.base import GNNRegressor
from repro.nn import precision
from repro.models.multitask import MultiTaskModel, ReadoutHead, SharedTrunk
from repro.staticcheck.shapes import (
    SymDim,
    check_model_config,
    check_multitask,
    check_multitask_config,
    check_regressor,
    shipped_configs,
)

FEATURE_DIMS = {t: feature_dim(t) for t in NODE_TYPES}


def make_model(conv="paragraph", **kwargs):
    rng = rng_mod.stream(7, "shapes-test", conv)
    return GNNRegressor(conv, FEATURE_DIMS, rng, embed_dim=32, **kwargs)


def make_multitask(conv="paragraph", heads=None, embed_dim=32, **kwargs):
    trunk = SharedTrunk(
        conv,
        FEATURE_DIMS,
        rng_mod.stream(7, "shapes-test", conv, "trunk"),
        embed_dim=embed_dim,
        **kwargs,
    )
    depths = heads if heads is not None else {"CAP": 4, "SA": 2}
    built = {
        name: ReadoutHead(
            embed_dim, depth, rng_mod.stream(7, "shapes-test", "head", name)
        )
        for name, depth in depths.items()
    }
    return MultiTaskModel(trunk, built)


class TestSymDim:
    def test_concrete_vs_symbolic(self):
        assert SymDim.of(3).compatible(SymDim.of(3))
        assert not SymDim.of(3).compatible(SymDim.of(4))
        assert SymDim.sym("N").compatible(SymDim.sym("N"))
        assert not SymDim.sym("N").compatible(SymDim.sym("E"))
        assert not SymDim.sym("N").compatible(SymDim.of(3))

    def test_addition(self):
        assert (SymDim.of(2) + SymDim.of(3)).size == 5
        assert not (SymDim.sym("N") + SymDim.of(3)).is_concrete()


class TestCleanModels:
    @pytest.mark.parametrize("conv", ["gcn", "sage", "rgcn", "gat", "paragraph"])
    def test_every_conv_family_passes(self, conv):
        assert check_regressor(make_model(conv), feature_dims=FEATURE_DIMS) == []

    def test_float32_model_passes_under_policy(self):
        with precision.compute_dtype("float32"):
            model = make_model("paragraph")
            assert check_regressor(model, feature_dims=FEATURE_DIMS) == []

    def test_shipped_configs_cover_paper_matrix(self):
        configs = shipped_configs()
        convs = {c["conv"] for c in configs}
        assert convs == {"gcn", "sage", "rgcn", "gat", "paragraph"}
        dtypes = {c.get("dtype") for c in configs}
        assert dtypes == {"float64", "float32"}
        fc_depths = {c.get("num_fc_layers") for c in configs}
        assert {4, 2, 0} <= fc_depths
        ablation_keys = set()
        for config in configs:
            ablation_keys.update(config.get("conv_kwargs") or {})
        assert ablation_keys == {
            "use_attention", "group_edge_types", "concat_skip", "num_heads",
        }

    def test_check_model_config_reports_construction_error(self):
        findings = check_model_config(
            {"conv": "paragraph", "conv_kwargs": {"num_heads": 7}}
        )
        assert len(findings) == 1
        assert "construction failed" in findings[0].message


class TestInjectedMismatches:
    def test_readout_shape_mismatch(self):
        model = make_model("paragraph")
        model.readout.layers[1].weight.data = np.zeros((33, 32))
        findings = check_regressor(model, feature_dims=FEATURE_DIMS)
        assert len(findings) == 1
        assert "matmul mismatch" in findings[0].message
        assert "readout.layers.1" in findings[0].message

    def test_conv_dimension_mismatch(self):
        model = make_model("sage")
        linear = model.convs[2].linear
        linear.weight.data = linear.weight.data[:60, :]
        findings = check_regressor(model, feature_dims=FEATURE_DIMS)
        assert findings and "convs.2" in findings[0].message

    def test_encoder_feature_dim_mismatch(self):
        model = make_model("gcn")
        wrong = dict(FEATURE_DIMS)
        first = sorted(wrong)[0]
        wrong[first] += 2
        findings = check_regressor(model, feature_dims=wrong)
        assert findings and f"encoder.transforms.{first}" in findings[0].message

    def test_dtype_leak_detected(self):
        model = make_model("gcn")
        conv_linear = model.convs[0].linear
        conv_linear.weight.data = conv_linear.weight.data.astype(np.float32)
        findings = check_regressor(model, feature_dims=FEATURE_DIMS)
        assert findings
        assert "float32" in findings[0].message

    def test_readout_must_end_in_one_column(self):
        model = make_model("gat")
        last = model.readout.layers[-1]
        last.weight.data = np.zeros((32, 2))
        last.bias.data = np.zeros((2,))
        findings = check_regressor(model, feature_dims=FEATURE_DIMS)
        assert findings and "1 column" in findings[0].message

    def test_paragraph_head_concat_mismatch(self):
        model = make_model("paragraph", conv_kwargs={"num_heads": 4})
        conv = model.convs[0]
        key = next(iter(conv.type_weights))
        # widen one head so the concat no longer reassembles embed_dim
        conv.type_weights[key].data = np.zeros((32, 16))
        findings = check_regressor(model, feature_dims=FEATURE_DIMS)
        assert findings

    def test_paragraph_folded_attention_must_be_one_column(self):
        model = make_model("paragraph")
        conv = model.convs[1]
        key = next(iter(conv.attn_src))
        conv.attn_src[key].data = np.zeros((32, 2))
        findings = check_regressor(model, feature_dims=FEATURE_DIMS)
        assert findings and "folded attention" in findings[0].message
        assert "convs.1" in findings[0].message

    def test_rgcn_blocks_share_one_message_buffer(self):
        model = make_model("rgcn")
        conv = model.convs[0]
        edge_type = conv.edge_types[-1]
        conv.relation_weights[edge_type].data = np.zeros((32, 16))
        findings = check_regressor(model, feature_dims=FEATURE_DIMS)
        assert any("message buffer" in f.message for f in findings)

    def test_findings_use_model_path(self):
        model = make_model("gcn")
        model.readout.layers[0].weight.data = np.zeros((99, 32))
        findings = check_regressor(
            model, feature_dims=FEATURE_DIMS, label="gcn/test"
        )
        assert findings[0].path == "model://gcn/test"
        assert findings[0].rule == "shape-contract"


class TestMultiTaskClean:
    @pytest.mark.parametrize("conv", ["gcn", "sage", "rgcn", "gat", "paragraph"])
    def test_every_conv_family_passes(self, conv):
        model = make_multitask(conv)
        assert check_multitask(model, feature_dims=FEATURE_DIMS) == []

    def test_linear_head_passes(self):
        model = make_multitask(heads={"CAP": 0})
        assert check_multitask(model, feature_dims=FEATURE_DIMS) == []

    def test_float32_multitask_passes_under_policy(self):
        with precision.compute_dtype("float32"):
            model = make_multitask("paragraph")
            assert check_multitask(model, feature_dims=FEATURE_DIMS) == []

    def test_config_builds_papers_thirteen_heads(self):
        findings = check_multitask_config(
            {"conv": "paragraph", "trunk": "shared", "dtype": "float64"}
        )
        assert findings == []

    def test_shipped_configs_include_multitask(self):
        multitask = [c for c in shipped_configs() if c.get("trunk") == "shared"]
        assert {c["dtype"] for c in multitask} == {"float64", "float32"}
        for config in multitask:
            assert check_model_config(config) == []

    def test_config_reports_construction_error(self):
        findings = check_multitask_config(
            {
                "conv": "paragraph",
                "trunk": "shared",
                "conv_kwargs": {"num_heads": 7},
            }
        )
        assert len(findings) == 1
        assert "construction failed" in findings[0].message
        assert "multitask" in findings[0].path


class TestMultiTaskInjectedCorruption:
    def test_head_width_mismatch_against_trunk(self):
        model = make_multitask()
        head = model.heads["CAP"]
        head.readout.layers[0].weight.data = np.zeros((48, 32))
        findings = check_multitask(model, feature_dims=FEATURE_DIMS)
        assert len(findings) == 1
        assert "heads.CAP.readout.layers.0" in findings[0].message
        assert "matmul mismatch" in findings[0].message

    def test_corruption_in_one_head_leaves_others_clean(self):
        model = make_multitask()
        model.heads["SA"].readout.layers[1].weight.data = np.zeros((7, 1))
        findings = check_multitask(model, feature_dims=FEATURE_DIMS)
        assert findings
        assert all("heads.SA" in f.message for f in findings)

    def test_trunk_conv_mismatch_reported_under_trunk(self):
        model = make_multitask("sage")
        linear = model.trunk.convs[3].linear
        linear.weight.data = linear.weight.data[:60, :]
        findings = check_multitask(model, feature_dims=FEATURE_DIMS)
        assert findings and "trunk.convs.3" in findings[0].message

    def test_head_must_end_in_one_column(self):
        model = make_multitask()
        last = model.heads["CAP"].readout.layers[-1]
        last.weight.data = np.zeros((32, 3))
        last.bias.data = np.zeros((3,))
        findings = check_multitask(model, feature_dims=FEATURE_DIMS)
        assert findings and "1 column" in findings[0].message

    def test_head_dtype_leak_detected(self):
        model = make_multitask()
        head_linear = model.heads["SA"].readout.layers[0]
        head_linear.weight.data = head_linear.weight.data.astype(np.float32)
        findings = check_multitask(model, feature_dims=FEATURE_DIMS)
        assert findings
        assert any("float32" in f.message for f in findings)

    def test_trunk_encoder_feature_mismatch(self):
        model = make_multitask("gcn")
        wrong = dict(FEATURE_DIMS)
        first = sorted(wrong)[0]
        wrong[first] += 2
        findings = check_multitask(model, feature_dims=wrong)
        assert findings and f"encoder.transforms.{first}" in findings[0].message
