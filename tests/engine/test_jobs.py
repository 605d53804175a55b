"""Tests for the typed experiment work units."""

import dataclasses

import pytest

from repro.engine.jobs import (
    DEFAULT_CONFIG,
    KIND_CAPTURE,
    KIND_EVAL,
    CaptureVariant,
    ConfigKey,
    EvalJob,
    capture_job,
    dedupe_jobs,
    eval_job,
)
from repro.errors import ExperimentError


class TestEvalJob:
    def test_value_semantics(self):
        a = eval_job("wolf-640x480", 0, "patu", 0.4)
        b = eval_job("wolf-640x480", 0, "patu", 0.4)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_distinct_design_points_differ(self):
        a = eval_job("wolf-640x480", 0, "patu", 0.4)
        assert a != eval_job("wolf-640x480", 0, "patu", 0.6)
        assert a != eval_job("wolf-640x480", 1, "patu", 0.4)
        assert a != eval_job(
            "wolf-640x480", 0, "patu", 0.4, config=ConfigKey(llc_scale=2)
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ExperimentError, match="kind"):
            EvalJob("w", 0, "patu", 0.4, kind="bogus")

    def test_rejects_negative_frame(self):
        with pytest.raises(ExperimentError, match="frame"):
            eval_job("w", -1, "patu", 0.4)

    def test_capture_job_kind(self):
        job = capture_job("w", 2)
        assert job.kind == KIND_CAPTURE
        assert eval_job("w", 2, "patu", 0.4).kind == KIND_EVAL

    def test_capture_key_carries_variant(self):
        config = ConfigKey(max_anisotropy=4, compressed=True)
        job = eval_job("w", 1, "patu", 0.4, config=config)
        assert job.capture_key() == (
            "w", 1, CaptureVariant(max_anisotropy=4, compressed=True),
        )

    def test_evaluation_knobs_do_not_change_capture_key(self):
        plain = eval_job("w", 0, "patu", 0.4)
        tuned = eval_job(
            "w", 0, "patu", 0.4,
            config=ConfigKey(stage2_threshold=0.2, hash_entries=8,
                             llc_scale=2, software=True),
        )
        assert plain.capture_key() == tuned.capture_key()


class TestMetricsKey:
    def test_layout_names_every_design_knob(self):
        """One key field per knob: the job's four, then every
        :class:`ConfigKey` field in declaration order."""
        fields = ("workload", "frame", "scenario", "threshold",
                  "llc_scale", "tc_scale", "stage2_threshold",
                  "hash_entries", "max_anisotropy", "compressed", "software")
        assert fields[4:] == tuple(
            field.name for field in dataclasses.fields(ConfigKey)
        )
        job = eval_job(
            "wolf-640x480", 3, "patu", 0.4,
            config=ConfigKey(
                llc_scale=2, tc_scale=4, stage2_threshold=0.25,
                hash_entries=8, max_anisotropy=4, compressed=True,
                software=False,
            ),
        )
        key = job.metrics_key()
        assert len(key) == len(fields)
        named = dict(zip(fields, key))
        assert named == {
            "workload": "wolf-640x480",
            "frame": 3,
            "scenario": "patu",
            "threshold": 0.4,
            "llc_scale": 2,
            "tc_scale": 4,
            "stage2_threshold": 0.25,
            "hash_entries": 8,
            "max_anisotropy": 4,
            "compressed": True,
            "software": False,
        }

    def test_threshold_rounding_absorbs_float_noise(self):
        a = eval_job("w", 0, "patu", 0.1 + 0.2)
        b = eval_job("w", 0, "patu", 0.3)
        assert a.metrics_key() == b.metrics_key()

    def test_default_config_keys(self):
        key = eval_job("w", 0, "baseline", 1.0).metrics_key()
        assert key == ("w", 0, "baseline", 1.0, 1, 1, None, 16, None,
                       False, False)


class TestConfigKey:
    def test_variant_projection(self):
        config = ConfigKey(max_anisotropy=8, compressed=True, llc_scale=4)
        assert config.variant() == CaptureVariant(
            max_anisotropy=8, compressed=True
        )
        assert DEFAULT_CONFIG.variant() == CaptureVariant()


class TestDedupe:
    def test_preserves_first_occurrence_order(self):
        a = eval_job("w", 0, "patu", 0.2)
        b = eval_job("w", 0, "patu", 0.4)
        c = eval_job("w", 0, "baseline", 1.0)
        assert dedupe_jobs([b, a, b, c, a, b]) == [b, a, c]

    def test_empty(self):
        assert dedupe_jobs([]) == []
