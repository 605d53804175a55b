"""Golden-artifact manager: manifest, check/update lifecycle, digests."""

import json


from repro.verify.goldens import (
    GOLDEN_EXPERIMENTS,
    GoldenStore,
    STATUS_MATCH,
    STATUS_MISSING,
    STATUS_PARAMS_MISMATCH,
    STATUS_STALE,
    default_goldens_root,
    frame_digest_text,
)
from repro.verify.report import VerifyConfig
from repro.verify.runner import oracle_golden_frame

PARAMS = {"scale": 0.5, "frames": 1}


def test_missing_then_update_then_match(tmp_path):
    store = GoldenStore(tmp_path)
    assert store.check("t1", "hello\n", PARAMS).status == STATUS_MISSING
    assert store.update("t1", "hello\n", "table", PARAMS) is True
    check = store.check("t1", "hello\n", PARAMS)
    assert check.status == STATUS_MATCH and check.ok


def test_update_is_idempotent(tmp_path):
    store = GoldenStore(tmp_path)
    assert store.update("t1", "hello\n", "table", PARAMS) is True
    manifest_before = store.manifest_path.read_bytes()
    artifact_before = store.artifact_path("t1").read_bytes()
    # Second identical update: no-op, bytes untouched.
    assert store.update("t1", "hello\n", "table", PARAMS) is False
    assert store.manifest_path.read_bytes() == manifest_before
    assert store.artifact_path("t1").read_bytes() == artifact_before


def test_stale_golden_reports_diff(tmp_path):
    store = GoldenStore(tmp_path)
    store.update("t1", "row a\nrow b\n", "table", PARAMS)
    check = store.check("t1", "row a\nrow CHANGED\n", PARAMS)
    assert check.status == STATUS_STALE and not check.ok
    assert "-row b" in check.diff and "+row CHANGED" in check.diff
    assert check.details["stored_sha256"] != check.details["regenerated_sha256"]


def test_params_mismatch_is_not_stale(tmp_path):
    store = GoldenStore(tmp_path)
    store.update("t1", "hello\n", "table", PARAMS)
    check = store.check("t1", "anything\n", {"scale": 0.25, "frames": 1})
    assert check.status == STATUS_PARAMS_MISMATCH
    assert check.details["stored"] == PARAMS


def test_manifest_layout_is_sorted_and_versioned(tmp_path):
    store = GoldenStore(tmp_path)
    store.update("zz", "z\n", "table", PARAMS)
    store.update("aa", "a\n", "frame", PARAMS)
    data = json.loads(store.manifest_path.read_text())
    assert data["version"] == 1
    assert list(data["entries"]) == ["aa", "zz"]
    assert data["entries"]["aa"]["kind"] == "frame"
    assert len(data["entries"]["aa"]["sha256"]) == 64


def test_frame_digest_text_is_deterministic_and_sensitive(capture):
    text1 = frame_digest_text(capture)
    text2 = frame_digest_text(capture)
    assert text1 == text2
    assert "af_color" in text1 and "sample_keys" in text1
    # Perturb one array -> exactly that line's digest moves.
    mutated = capture.af_color.copy()
    mutated[0, 0] += 0.5
    original = capture.af_color
    capture.af_color = mutated
    try:
        text3 = frame_digest_text(capture)
    finally:
        capture.af_color = original
    changed = [
        (a, b)
        for a, b in zip(text1.splitlines(), text3.splitlines())
        if a != b
    ]
    assert len(changed) == 1 and changed[0][0].startswith("af_color")


def test_default_root_points_into_repo_tests():
    root = default_goldens_root()
    assert root.parts[-2:] == ("tests", "goldens")


def test_golden_experiment_specs_are_plain_json():
    # Specs are stored in manifests verbatim; keep them JSON-native.
    for spec in GOLDEN_EXPERIMENTS.values():
        assert json.loads(json.dumps(spec)) == spec


def test_the_committed_frame_golden_matches_a_fresh_capture():
    # The capture kernels must keep every captured array's bytes: this
    # renders the golden's frame under the manifest's parameters and
    # compares it with tests/goldens, as `repro verify` does.
    result = oracle_golden_frame(VerifyConfig())
    assert not result.skipped, result.details
    assert result.passed, result.details
    assert result.details["status"] == STATUS_MATCH
