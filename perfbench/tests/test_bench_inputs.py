"""Generated inputs are a pure function of (workload, seed) and are usable."""

import csv
import hashlib
import os

import numpy as np
import pytest

from inputs import INPUTS, generate


def _digests(out_dir):
    return {
        name: hashlib.sha256(open(os.path.join(out_dir, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(out_dir))
    }


@pytest.mark.parametrize("workload", sorted(INPUTS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    out = str(tmp_path / "in")
    generate(workload, 5, out)
    first = _digests(out)
    generate(workload, 5, out)
    assert _digests(out) == first
    generate(workload, 6, out)
    changed = _digests(out)
    assert all(changed[n] != first[n] for n in first if not n.endswith(".csv"))


def test_video_frames_are_textured(tmp_path):
    from ssimkit.pipeline import open_stream

    paths = generate("vod1080_default", 1, str(tmp_path))
    frames = list(open_stream(paths["ref"]))
    assert len(frames) == INPUTS["vod1080_default"]["frames"]
    for frame in frames:
        for plane in frame.channels:
            assert np.asarray(plane, dtype=np.float64).std() > 0.05 * 255


def test_raw_10bit_uses_the_10bit_range(tmp_path):
    from ssimkit.pipeline import open_stream

    geo = INPUTS["st1080_kt5_10bit"]
    paths = generate("st1080_kt5_10bit", 1, str(tmp_path))
    stream = open_stream(paths["ref"], geo["width"], geo["height"], 10, "420")
    y = np.asarray(next(iter(stream)).channels[0])
    assert y.max() > 255 and y.max() <= 1023


def test_subjective_score_falls_as_severity_rises(tmp_path):
    from ssimkit.pipeline import open_stream

    paths = generate("iqa_sweep_rgb", 2, str(tmp_path))
    with open(paths["manifest"]) as fh:
        rows = list(csv.DictReader(fh))
    geo = INPUTS["iqa_sweep_rgb"]
    assert len(rows) == geo["contents"] * geo["levels"]
    for c in range(geo["contents"]):
        ours = [r for r in rows if os.path.basename(r["dist_path"]).startswith(f"dist_{c:02d}_")]
        scores = [float(r["subjective_score"]) for r in ours]
        assert scores == sorted(scores, reverse=True) and len(set(scores)) == len(scores)
        ref = next(iter(open_stream(ours[0]["ref_path"])))
        assert min(np.asarray(p, dtype=np.float64).std() for p in ref.channels) > 0.05 * 255
        errors = []
        for r in ours:
            dist = next(iter(open_stream(r["dist_path"])))
            diff = [np.abs(np.asarray(a, float) - np.asarray(b, float)).mean() for a, b in zip(ref.channels, dist.channels)]
            errors.append(sum(diff))
        assert errors == sorted(errors), "distortion must grow with severity"
