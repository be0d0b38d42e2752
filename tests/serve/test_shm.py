"""Shared-memory weight publication: round-trips, adoption, lifecycle."""

import json

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve.registry import ModelRegistry
from repro.serve.shm import (
    ALIGNMENT,
    adopt_weight_arrays,
    attach_arrays,
    publish_arrays,
    publish_registry_weights,
    registry_weight_arrays,
)


@pytest.fixture
def sample_arrays():
    rng = np.random.default_rng(7)
    return {
        "a/weight": rng.normal(size=(5, 3)),
        "a/bias": rng.normal(size=(3,)),
        "b/weight": rng.normal(size=(1, 7)).astype(np.float32),
    }


class TestPublishAttach:
    def test_round_trip_bytes(self, sample_arrays):
        with publish_arrays(sample_arrays) as published:
            attached = attach_arrays(published.manifest)
            for key, source in sample_arrays.items():
                assert np.array_equal(attached.arrays[key], source)
                assert attached.arrays[key].dtype == source.dtype
            attached.close()

    def test_views_are_read_only(self, sample_arrays):
        with publish_arrays(sample_arrays) as published:
            with pytest.raises(ValueError):
                published.arrays["a/weight"][0, 0] = 0.0
            attached = attach_arrays(published.manifest)
            with pytest.raises(ValueError):
                attached.arrays["a/bias"][0] = 0.0
            attached.close()

    def test_single_segment_with_aligned_offsets(self, sample_arrays):
        with publish_arrays(sample_arrays) as published:
            assert len({published.segment_name}) == 1
            for spec in published.specs:
                assert spec.offset % ALIGNMENT == 0
            total = sum(spec.nbytes for spec in published.specs)
            assert published.nbytes == total

    def test_manifest_is_json_serialisable(self, sample_arrays):
        with publish_arrays(sample_arrays) as published:
            wire = json.loads(json.dumps(published.manifest))
            attached = attach_arrays(wire)
            assert set(attached.arrays) == set(sample_arrays)
            attached.close()

    def test_empty_mapping_refused(self):
        with pytest.raises(ServeError, match="no arrays"):
            publish_arrays({})

    def test_unlink_is_idempotent_and_blocks_new_attaches(self, sample_arrays):
        published = publish_arrays(sample_arrays)
        view = published.arrays["a/weight"]
        before = view.copy()
        published.unlink()
        published.unlink()
        # existing mappings stay valid (no unmap-under-live-views segfault)
        assert np.array_equal(view, before)
        with pytest.raises(ServeError, match="gone"):
            attach_arrays(published.manifest)


class TestRegistryBridge:
    def test_weight_arrays_cover_every_parameter(self, api_cap_predictor):
        registry = ModelRegistry()
        registry.register("CAP", api_cap_predictor)
        arrays = registry_weight_arrays(registry)
        named = dict(api_cap_predictor.model.named_parameters())
        assert set(arrays) == {f"CAP/{name}" for name in named}
        for name, param in named.items():
            assert arrays[f"CAP/{name}"] is param.data

    def test_multi_and_ensemble_leaves_have_distinct_keys(
        self, api_multi_model, api_ensemble_model
    ):
        registry = ModelRegistry()
        registry.register("multi", api_multi_model)
        registry.register("ens", api_ensemble_model)
        arrays = registry_weight_arrays(registry)
        assert any(key.startswith("multi/CAP/") for key in arrays)
        assert any(key.startswith("multi/SA/") for key in arrays)
        assert any(key.startswith("ens/range0/") for key in arrays)
        assert any(key.startswith("ens/range1/") for key in arrays)
        # flat keyspace: no collisions lost any parameter
        total = sum(
            1
            for _, predictor in _walk(registry)
            for _ in predictor.model.named_parameters()
        )
        assert len(arrays) == total

    def test_adoption_preserves_predictions(self, tiny_bundle):
        from repro.models import TargetPredictor, TrainConfig

        predictor = TargetPredictor(
            "paragraph",
            "CAP",
            TrainConfig(epochs=2, embed_dim=8, num_layers=2, run_seed=3),
        ).fit(tiny_bundle)
        record = tiny_bundle.records("test")[0]
        before = predictor.predict(record)[0]

        registry = ModelRegistry()
        registry.register("CAP", predictor)
        published = publish_registry_weights(registry)
        adopted = adopt_weight_arrays(registry, published.arrays)
        named = dict(predictor.model.named_parameters())
        assert adopted == len(named)
        # parameters now *are* the shared read-only views
        for name, param in named.items():
            assert param.data is published.arrays[f"CAP/{name}"]
            assert not param.data.flags.writeable
        after = predictor.predict(record)[0]
        np.testing.assert_array_equal(before, after)
        published.unlink()

    def test_shared_trunk_registry_publishes_and_adopts(self, tiny_bundle):
        from repro.models import MultiTaskPredictor, TrainConfig

        predictor = MultiTaskPredictor(
            "paragraph",
            targets=["CAP", "SA"],
            config=TrainConfig(epochs=2, embed_dim=8, num_layers=2, run_seed=3),
        )._fit_quiet(tiny_bundle)
        graph = tiny_bundle.records("test")[0].graph
        before = predictor.predict_all_graph(graph)

        registry = ModelRegistry()
        registry.register("shared", predictor)
        published = publish_registry_weights(registry)
        try:
            named = dict(predictor.model.named_parameters())
            assert set(published.arrays) == {f"shared/{name}" for name in named}
            assert adopt_weight_arrays(registry, published.arrays) == len(named)
            for name, param in named.items():
                assert param.data is published.arrays[f"shared/{name}"]
            after = predictor.predict_all_graph(graph)
            assert sorted(after) == ["CAP", "SA"]
            for target, (ids, values) in before.items():
                np.testing.assert_array_equal(after[target][0], ids)
                np.testing.assert_array_equal(after[target][1], values)
        finally:
            published.unlink()

    def test_adoption_refuses_shape_mismatch(self, api_cap_predictor):
        registry = ModelRegistry()
        registry.register("CAP", api_cap_predictor)
        arrays = registry_weight_arrays(registry)
        key = sorted(arrays)[0]
        bad = dict(arrays)
        bad[key] = np.zeros(np.asarray(arrays[key]).shape + (2,))
        with pytest.raises(ServeError, match="stale"):
            adopt_weight_arrays(registry, bad)

    def test_empty_registry_refused(self):
        with pytest.raises(ServeError, match="no shareable"):
            publish_registry_weights(ModelRegistry())


def _walk(registry):
    from repro.serve.shm import _leaf_predictors

    for entry in registry.entries():
        yield from _leaf_predictors(entry.model)
