"""Persistence round-trips for rules, records and datasets."""

import json

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.faults import CampaignConfig, FaultInjectionCampaign
from repro.faults.outcomes import (
    DetectionTechnique,
    FailureClass,
    FaultSpec,
    TrialRecord,
    UndetectedKind,
)
from repro.ml import Dataset, DecisionTreeClassifier, compile_tree
from repro.persist import (
    ModelArtifact,
    load_dataset,
    load_model,
    load_records,
    load_rules,
    save_dataset,
    save_model,
    save_records,
    save_rules,
)
from repro.xentry import VMTransitionDetector, train_and_evaluate

from tests.ml.test_trees import separable_dataset


class TestRules:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        ds = separable_dataset(300, seed=1)
        rules = compile_tree(DecisionTreeClassifier().fit(ds))
        path = tmp_path / "rules.json"
        save_rules(rules, path)
        loaded = load_rules(path)
        assert (loaded.predict(ds.X) == rules.predict(ds.X)).all()
        assert loaded.max_depth == rules.max_depth
        assert loaded.feature_names == rules.feature_names

    def test_loaded_rules_deploy_as_detector(self, tmp_path):
        ds = separable_dataset(200, seed=2)
        path = tmp_path / "rules.json"
        save_rules(compile_tree(DecisionTreeClassifier().fit(ds)), path)
        detector = VMTransitionDetector(rules=load_rules(path))
        assert detector.flags_incorrect(tuple(ds.X[0])) in (True, False)

    def test_format_guard(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DatasetError):
            load_rules(path)


class TestModels:
    @pytest.fixture(scope="class")
    def model(self):
        train = separable_dataset(300, seed=5)
        test = separable_dataset(150, seed=6)
        return train_and_evaluate(train, test, algorithm="decision_tree", seed=1)

    def test_roundtrip_preserves_rules_and_evaluation(self, tmp_path, model):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, ModelArtifact)
        assert loaded.name == "decision_tree"
        X = model.test_set.X
        assert (loaded.rules.predict_batch(X) == model.rules.predict_batch(X)).all()
        assert loaded.evaluation["accuracy"] == model.accuracy
        assert (
            loaded.evaluation["false_positive_rate"] == model.false_positive_rate
        )
        counts = loaded.evaluation["confusion"]
        assert sum(counts.values()) == model.confusion.total

    def test_loaded_artifact_is_a_detector(self, tmp_path, model):
        path = tmp_path / "model.json"
        save_model(model, path)
        artifact = load_model(path)
        features = tuple(int(v) for v in model.test_set.X[0])
        assert artifact.flags_incorrect(features) == model.rules.flags_incorrect(
            features
        )

    def test_loaded_artifact_batch_path_matches_in_memory_model(
        self, tmp_path, model
    ):
        """save -> load -> classify_batch is bit-identical to TrainedModel.rules.

        The streaming scorer feeds loaded artifacts straight into the batch
        path, so the delegation must not change a single label or
        comparison count.
        """
        path = tmp_path / "model.json"
        save_model(model, path)
        artifact = load_model(path)
        X = model.test_set.X
        labels, comparisons = artifact.classify_batch(X)
        ref_labels, ref_comparisons = model.rules.classify_batch(X)
        assert (labels == ref_labels).all()
        assert (comparisons == ref_comparisons).all()
        assert (artifact.predict_batch(X) == model.rules.predict_batch(X)).all()
        assert (
            artifact.flags_incorrect_batch(X)
            == model.rules.flags_incorrect_batch(X)
        ).all()
        # Batch delegation agrees with the per-row detector protocol.
        assert artifact.flags_incorrect_batch(X)[0] == artifact.flags_incorrect(
            tuple(int(v) for v in X[0])
        )

    def test_format_guard(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "xentry-rules-v1"}))
        with pytest.raises(DatasetError, match="xentry-model-v1"):
            load_model(path)

    @pytest.mark.parametrize("content", ["not json", "[]", '{"format": "xentry-model-v1"}'])
    def test_malformed_model_raises_dataset_error(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_text(content)
        with pytest.raises(DatasetError, match="model.json"):
            load_model(path)

    def test_model_without_rules_rejected(self, tmp_path, model):
        from dataclasses import replace

        with pytest.raises(DatasetError, match="no compiled rules"):
            save_model(replace(model, rules=None), tmp_path / "model.json")


class TestRecords:
    @pytest.fixture(scope="class")
    def records(self):
        cfg = CampaignConfig(benchmarks=("mcf",), n_injections=80, seed=6)
        return FaultInjectionCampaign(cfg).run().records

    def test_roundtrip_is_identity(self, tmp_path, records):
        path = tmp_path / "records.jsonl"
        count = save_records(records, path)
        assert count == len(records)
        assert load_records(path) == records

    def test_truncation_detected(self, tmp_path, records):
        path = tmp_path / "records.jsonl"
        save_records(records, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(DatasetError, match="truncated"):
            load_records(path)

    @pytest.mark.parametrize("content", [
        b"",
        b"\xff\xfe not text\n",
        b'{"format": "xentry-records-v1", "count": 1}\n{"benchmark": "mcf"}\n',
        b'{"format": "xentry-records-v1", "count": 1}\nnot json\n',
    ])
    def test_malformed_file_raises_dataset_error(self, tmp_path, content):
        path = tmp_path / "records.jsonl"
        path.write_bytes(content)
        with pytest.raises(DatasetError, match="records.jsonl"):
            load_records(path)

    def test_records_are_analyzable_after_reload(self, tmp_path, records):
        from repro.analysis import coverage_by_technique

        path = tmp_path / "records.jsonl"
        save_records(records, path)
        reloaded = load_records(path)
        assert (
            coverage_by_technique(reloaded).coverage
            == coverage_by_technique(records).coverage
        )

    def test_roundtrip_of_every_enum_and_none_combination(self, tmp_path):
        """Synthetic records exercising the full field space, not just the
        combinations a small campaign happens to produce."""
        specimens = []
        for technique in DetectionTechnique:
            for failure in FailureClass:
                detected = technique is not DetectionTechnique.UNDETECTED
                specimens.append(
                    TrialRecord(
                        benchmark="mcf",
                        vmer=7,
                        fault=FaultSpec("rip", 63, 1234),
                        activated=detected or failure.is_manifested,
                        failure_class=failure,
                        detected_by=technique,
                        detection_latency=17 if detected else None,
                        undetected_kind=None,
                        detail="x" if detected else "",
                    )
                )
        for kind in UndetectedKind:
            specimens.append(
                TrialRecord(
                    benchmark="postmark",
                    vmer=1,
                    fault=FaultSpec("rsp", 0, 0),
                    activated=True,
                    failure_class=FailureClass.APP_SDC,
                    detected_by=DetectionTechnique.UNDETECTED,
                    detection_latency=None,
                    undetected_kind=kind,
                )
            )
        path = tmp_path / "specimens.jsonl"
        save_records(specimens, path)
        loaded = load_records(path)
        assert loaded == tuple(specimens)
        # Enum fields come back as real enums, not their string values.
        assert isinstance(loaded[0].failure_class, FailureClass)
        assert isinstance(loaded[0].detected_by, DetectionTechnique)
        assert isinstance(loaded[-1].undetected_kind, UndetectedKind)


class TestDatasets:
    def test_roundtrip(self, tmp_path):
        ds = separable_dataset(150, seed=3)
        path = tmp_path / "data.npz"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert (loaded.X == ds.X).all()
        assert (loaded.y == ds.y).all()
        assert loaded.feature_names == ds.feature_names

    def test_loaded_dataset_trains(self, tmp_path):
        ds = separable_dataset(150, seed=4)
        path = tmp_path / "data.npz"
        save_dataset(ds, path)
        tree = DecisionTreeClassifier().fit(load_dataset(path))
        assert tree.n_nodes >= 1
