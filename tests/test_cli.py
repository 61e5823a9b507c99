import json
import math
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from ssimkit import pipeline
from ssimkit.cli import main
from ssimkit.config import (
    ColorModelSpec,
    MultiscaleSpec,
    ScalePolicy,
    SsimConfig,
    WindowSpec,
    parse_color,
    parse_scale,
    parse_window,
)
from ssimkit.errors import LengthMismatch, SsimkitError, TruncatedFrame, ValidationError
from ssimkit.evaluation import Logistic5, eval_5pl, normalize_scores
from ssimkit.frames import ColorFrame, LumaPlane
from ssimkit.media import StreamHeader, write_planar_raw, write_pnm, write_y4m
from ssimkit.pipeline import (
    PipelineSpec,
    expand_preset,
    open_stream,
    run_benchmark,
    run_score,
    score_frame_pair,
)
from ssimkit.pooling import parse_spatial, parse_temporal
from ssimkit.spatiotemporal import RollingVolume
from ssimkit.stats import BAND_ROWS

from helpers import natural_plane, noisy_version


@pytest.fixture
def runner():
    return CliRunner()


def make_y4m(path, luma_planes):
    h, w = luma_planes[0].samples.shape
    frames = []
    for plane in luma_planes:
        cb = np.full((-(-h // 2), -(-w // 2)), 128, dtype=np.uint8)
        frames.append(ColorFrame((plane.samples, cb, cb), "ycbcr-bt709", "420"))
    write_y4m(path, frames, StreamHeader(w, h, (30, 1), "420", 8))
    return path


@pytest.fixture
def media(tmp_path, rng):
    refs = [natural_plane(rng, 48, 48) for _ in range(3)]
    dists = [noisy_version(rng, p, 15) for p in refs]
    ref_path = make_y4m(tmp_path / "ref.y4m", refs)
    dist_path = make_y4m(tmp_path / "dist.y4m", dists)
    return ref_path, dist_path, refs, dists


class TestPresets:
    def test_enhanced_expansion(self):
        spec = expand_preset("enhanced")
        cfg = spec.config
        assert cfg.color.model == "luma"
        assert cfg.window == WindowSpec.rectangular(11, stride=5)
        assert cfg.engine == "auto"
        assert cfg.scaling.kind == "dh" and cfg.scaling.d_over_h == 3.0
        assert cfg.spatial_pool == "cov"
        assert cfg.temporal_pool == "am"
        assert not cfg.multiscale.enabled

    def test_unknown_preset(self):
        with pytest.raises(Exception):
            expand_preset("turbo")

    def test_version_needs_no_installed_metadata(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output

    def test_presets_command(self, runner):
        result = runner.invoke(main, ["presets"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert set(out) == {"default", "enhanced"}
        assert out["enhanced"]["config"]["spatial_pool"] == "cov"


class TestRunScore:
    def test_identical_streams_enhanced(self, tmp_path, rng):
        planes = [natural_plane(rng, 64, 64) for _ in range(2)]
        path = make_y4m(tmp_path / "same.y4m", planes)
        report = run_score(path, path, expand_preset("enhanced"))
        for record in report["records"]:
            assert record["score"] == pytest.approx(0.0, abs=1e-12)  # cov of all-ones map
            assert record["am"] == pytest.approx(1.0, abs=1e-12)
        assert "note" in report["summary"]

    def test_single_image_pair(self, tmp_path, rng):
        ref = natural_plane(rng, 32, 32)
        dist = noisy_version(rng, ref, 10)
        ref_path, dist_path = tmp_path / "r.pgm", tmp_path / "d.pgm"
        write_pnm(ref_path, ref)
        write_pnm(dist_path, dist)
        report = run_score(ref_path, dist_path, PipelineSpec())
        assert len(report["records"]) == 1
        assert report["summary"]["pooled_score"] == report["records"][0]["score"]

    @pytest.mark.parametrize("bit_depth", [8, 10, 16])
    def test_pgm_scores_as_raw_mono_of_its_depth(self, tmp_path, rng, bit_depth):
        ref = natural_plane(rng, 64, 96, bit_depth)
        dist = noisy_version(rng, ref, 6 << (bit_depth - 8))
        scores = []
        for ext in (".pgm", ".yuv"):
            paths = [tmp_path / f"{role}{ext}" for role in ("ref", "dist")]
            for path, plane in zip(paths, (ref, dist)):
                write_pnm(path, plane) if ext == ".pgm" else write_planar_raw(path, [plane], bit_depth)
            report = run_score(*paths, PipelineSpec(), width=96, height=64, bit_depth=bit_depth, chroma="400")
            scores.append(report["records"][0]["score"])
        assert scores[0] == scores[1]

    def test_temporal_wam_matches_hand_computation(self, media):
        ref_path, dist_path, _, _ = media
        spec = PipelineSpec(SsimConfig(temporal_pool="wam:k=2"))
        report = run_score(ref_path, dist_path, spec)
        scores = [r["score"] for r in report["records"]]
        expected = np.mean([np.mean(scores[0:2]), np.mean(scores[1:3])])
        assert report["summary"]["pooled_score"] == pytest.approx(expected, abs=1e-12)

    def test_multiscale_pipeline(self, media):
        ref_path, dist_path, refs, dists = media
        spec = PipelineSpec(
            SsimConfig(
                window=WindowSpec.rectangular(5), multiscale=MultiscaleSpec.product(2)
            )
        )
        report = run_score(ref_path, dist_path, spec)
        from ssimkit.multiscale import msssim

        expected = msssim(refs[0], dists[0], spec.config)
        assert report["records"][0]["score"] == pytest.approx(expected, abs=1e-12)

    def test_kt_pipeline_matches_manual_volume(self, media):
        ref_path, dist_path, refs, dists = media
        spec = PipelineSpec(SsimConfig(window=WindowSpec.rectangular(5)), kt=2)
        report = run_score(ref_path, dist_path, spec)
        vol = RollingVolume(2)
        for i, (r, d) in enumerate(zip(refs, dists)):
            result = score_frame_pair(r, d, spec.config, [vol])
            assert report["records"][i]["score"] == pytest.approx(result.score, abs=1e-12)

    def test_worker_threads_keep_order_and_values(self, media):
        ref_path, dist_path, _, _ = media
        sequential = run_score(ref_path, dist_path, PipelineSpec())
        threaded = run_score(ref_path, dist_path, PipelineSpec(workers=4))
        assert [r["score"] for r in sequential["records"]] == [
            r["score"] for r in threaded["records"]
        ]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_threads_on_frames_of_several_bands_match_serial(self, tmp_path, rng, workers):
        # Three bands of grid rows per frame, so every worker's band loop
        # reuses its own arena's buffers band after band.
        refs = [natural_plane(rng, 2 * BAND_ROWS + 40, 56) for _ in range(8)]
        ref_path = make_y4m(tmp_path / "ref.y4m", refs)
        dist_path = make_y4m(tmp_path / "dist.y4m", [noisy_version(rng, p, 15) for p in refs])
        serial = run_score(ref_path, dist_path, PipelineSpec())
        threaded = run_score(ref_path, dist_path, PipelineSpec(workers=workers))
        assert threaded["records"] == serial["records"]

    def test_worker_threads_bound_frames_in_flight(self, tmp_path, rng, monkeypatch):
        refs = [natural_plane(rng, 24, 24) for _ in range(12)]
        ref_path = make_y4m(tmp_path / "ref.y4m", refs)
        dist_path = make_y4m(tmp_path / "dist.y4m", [noisy_version(rng, p, 15) for p in refs])
        serial = run_score(ref_path, dist_path, PipelineSpec())

        lock = threading.Lock()
        counts = {"decoded": 0, "scored": 0, "most": 0}
        stream_pairs, score = pipeline._stream_pairs, pipeline.score_frame_pair

        def counting_pairs(ref, dist):
            for pair in stream_pairs(ref, dist):
                with lock:
                    counts["decoded"] += 1
                    counts["most"] = max(counts["most"], counts["decoded"] - counts["scored"])
                yield pair

        def slow_score(*args):
            time.sleep(0.01)  # scoring slower than decoding fills the pool if nothing bounds it
            result = score(*args)
            with lock:
                counts["scored"] += 1
            return result

        monkeypatch.setattr(pipeline, "_stream_pairs", counting_pairs)
        monkeypatch.setattr(pipeline, "score_frame_pair", slow_score)
        threaded = run_score(ref_path, dist_path, PipelineSpec(workers=2))
        assert counts["decoded"] == counts["scored"] == 12
        assert counts["most"] <= 4
        assert threaded["records"] == serial["records"]

    def test_workers_hold_at_most_one_full_resolution_pair_each(self, rng):
        # Each worker pulls its next pair only after it has scaled the last
        # one and dropped it, so one worker holds one decoded pair and two
        # workers at most two, however far decoding could run ahead of
        # scoring.
        lock = threading.Lock()
        alive = {"now": 0, "most": 0}

        def dropped():
            with lock:
                alive["now"] -= 1

        def decoded(samples):
            plane = LumaPlane(samples)
            weakref.finalize(plane, dropped)
            with lock:
                alive["now"] += 1
                alive["most"] = max(alive["most"], alive["now"])
            return plane

        planes = [natural_plane(rng, 64, 96).samples for _ in range(3)]

        def stream(shift):  # keeps no frame once it is handed out, as a decoder does not
            for t in range(16):
                yield decoded(planes[(t + shift) % 3])

        config = SsimConfig(scaling=ScalePolicy.enhanced_dh(64 / 256 * 3 / 4))  # factor 4
        serial = pipeline._score_pairs(pipeline._stream_pairs(stream(0), stream(1)), config, 1)
        assert alive == {"now": 0, "most": alive["most"]} and alive["most"] <= 2, alive
        alive["most"] = 0
        threaded = pipeline._score_pairs(pipeline._stream_pairs(stream(0), stream(1)), config, 2)
        assert threaded == serial
        assert alive == {"now": 0, "most": alive["most"]} and alive["most"] <= 4, alive

    def test_more_workers_than_cores_switching_often_score_every_frame_once(self, rng):
        # The workers share the stream, its frame counter and the scores:
        # a lost update would drop, repeat or misplace a frame.
        planes = [natural_plane(rng, 40, 48).samples for _ in range(5)]

        def stream():
            for t in range(40):
                yield LumaPlane(planes[t % 5]), LumaPlane(planes[(t * 3 + 1) % 5])

        config = SsimConfig(window=WindowSpec.rectangular(7), scaling=ScalePolicy.enhanced_dh(40 / 256 * 3 / 2))
        serial = pipeline._score_pairs(stream(), config, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with time_limit(60):
                threaded = pipeline._score_pairs(stream(), config, 8)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_worker_threads_keep_traced_memory_flat_in_clip_length(self, tmp_path, rng):
        # The peak depends on how the two threads interleave, so each clip
        # length reports its highest of five runs.
        refs = [natural_plane(rng, 144, 176) for _ in range(4)]
        dists = [noisy_version(rng, p, 15) for p in refs]
        peaks = {}
        for frames in (6, 24):
            ref_path = make_y4m(tmp_path / f"ref{frames}.y4m", [refs[i % 4] for i in range(frames)])
            dist_path = make_y4m(tmp_path / f"dist{frames}.y4m", [dists[i % 4] for i in range(frames)])
            runs = []
            for _ in range(5):
                tracemalloc.start()
                try:
                    run_score(ref_path, dist_path, PipelineSpec(workers=2))
                    runs.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks[frames] = max(runs)
        assert peaks[24] <= 1.1 * peaks[6], peaks

    def test_worker_errors_name_the_frame(self, media, monkeypatch):
        ref_path, dist_path, _, _ = media
        score = pipeline.score_frame_pair
        calls = []

        def failing_score(*args):
            calls.append(None)
            if len(calls) == 2:
                raise ValidationError("boom")
            return score(*args)

        monkeypatch.setattr(pipeline, "score_frame_pair", failing_score)
        with pytest.raises(ValidationError, match="frame 1: boom"):
            run_score(ref_path, dist_path, PipelineSpec(workers=2))

    def test_length_mismatch_detected(self, tmp_path, rng):
        a = make_y4m(tmp_path / "a.y4m", [natural_plane(rng, 16, 16)])
        b = make_y4m(tmp_path / "b.y4m", [natural_plane(rng, 16, 16)] * 2)
        with pytest.raises(LengthMismatch):
            run_score(a, b, PipelineSpec())

    def test_color_models_through_pipeline(self, tmp_path, rng):
        chans = tuple(natural_plane(rng, 32, 32).samples for _ in range(3))
        ref = ColorFrame(chans)
        dist = ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 10).samples for c in chans))
        ref_path, dist_path = tmp_path / "r.ppm", tmp_path / "d.ppm"
        write_pnm(ref_path, ref)
        write_pnm(dist_path, dist)
        for color in ["cw:a=-0.3,b=-0.3", "fixed:0.8,0.1,0.1", "qssim", "cmssim", "hssim"]:
            from ssimkit.config import parse_color

            spec = PipelineSpec(SsimConfig(color=parse_color(color)))
            report = run_score(ref_path, dist_path, spec)
            assert 0.0 < report["records"][0]["score"] <= 1.2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_decode_errors_name_the_file_and_frame(self, media, workers):
        ref_path, dist_path, _, _ = media
        dist_path.write_bytes(dist_path.read_bytes()[:-100])  # cut into the third frame
        with pytest.raises(TruncatedFrame, match=f"{dist_path}: frame 2: plane needs"):
            run_score(ref_path, dist_path, PipelineSpec(workers=workers))

    def test_open_stream_rejects_raw_without_dims(self, tmp_path):
        path = tmp_path / "x.yuv"
        path.write_bytes(bytes(24))
        with pytest.raises(Exception):
            open_stream(path)


class TestScoreCommand:
    def test_csv_output_and_summary(self, runner, media):
        ref_path, dist_path, _, _ = media
        result = runner.invoke(main, ["score", str(ref_path), str(dist_path), "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "frame,score,am,l_mean,cs_mean"
        assert len(lines) == 5  # header + 3 frames + summary line
        summary = json.loads(lines[-1])
        assert summary["summary"]["frames"] == 3

    def test_reports_are_deterministic(self, runner, media, tmp_path):
        ref_path, dist_path, _, _ = media
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.jsonl"
            result = runner.invoke(
                main,
                ["score", str(ref_path), str(dist_path), "--preset", "enhanced", "--output", str(out)],
            )
            assert result.exit_code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_file_is_input_error(self, runner, tmp_path):
        result = runner.invoke(main, ["score", str(tmp_path / "no.y4m"), str(tmp_path / "pe.y4m")])
        assert result.exit_code == 2

    def test_pnm_header_number_past_the_integer_string_limit_is_input_error(self, runner, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n\x00")
        result = runner.invoke(main, ["score", str(path), str(path)])
        assert result.exit_code == 2
        assert "PNM header number too long" in result.output

    def test_zero_workers_is_rejected(self, runner, media):
        ref_path, dist_path, _, _ = media
        result = runner.invoke(main, ["score", str(ref_path), str(dist_path), "--workers", "0"])
        assert result.exit_code == 2
        assert "workers" in result.output

    @pytest.mark.parametrize("flags", [
        ["--temporal-pool", "am:k=5"],
        ["--spatial-pool", "mink:p=2,x=5"],
        ["--scale", "none:7"],
        ["--color", "hssim:a=1"],
        ["--multiscale", "product:2,x=1"],
    ])
    def test_unknown_selector_options_are_input_errors(self, runner, media, flags):
        ref_path, dist_path, _, _ = media
        result = runner.invoke(main, ["score", str(ref_path), str(dist_path), *flags])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    def test_flag_overrides(self, runner, media):
        ref_path, dist_path, _, _ = media
        result = runner.invoke(
            main,
            [
                "score", str(ref_path), str(dist_path),
                "--window", "rect:8", "--stride", "4", "--engine", "auto",
                "--spatial-pool", "mink:p=2", "--temporal-pool", "median",
            ],
        )
        assert result.exit_code == 0
        summary = json.loads(result.output.strip().split("\n")[-1])
        assert summary["summary"]["spatial_pool"] == "mink:p=2"

    def test_gaussian_window_flag(self, runner, media):
        ref_path, dist_path, _, _ = media
        result = runner.invoke(
            main, ["score", str(ref_path), str(dist_path), "--window", "gauss:1.5"]
        )
        assert result.exit_code == 0


#: Every numeric slot of the selector options, with the values of
#: SLOT_VALUES that reach the scorer and the exit code each gives there.
#: Every other value is rejected when the spec is built, with exit 2:
#: nan and the infinities always, float text in an integer slot, and finite
#: values outside the slot's own range (a sigma whose 3*sigma overflows or
#: whose square underflows, weights that do not sum to 1, a view angle
#: past 180 degrees, a percentile past 100, a divisor below 1). On the
#: 64x48 clip, a 1e-300 viewing distance or angle clamps the scale factor to
#: 64, and the 1x1 frame left fits no window: exit 2 from the scorer.
NUMERIC_SLOTS = {
    ("--window", "gauss:{}"): {},
    ("--window", "gauss:1.5,k={}"): {},
    ("--window", "rect:{}"): {},
    ("--window", "rect:7,stride={}"): {},
    ("--scale", "dh:{}"): {"1e308": 0, "1e-300": 2},
    ("--scale", "sast:D={}"): {"1e308": 0, "1e-300": 2},
    ("--scale", "sast:D=3000,th={}"): {"1e-300": 2},
    ("--scale", "sast:D=3000,tw={}"): {"1e-300": 2},
    ("--color", "cw:a={}"): {"1e308": 0, "1e-300": 0},
    ("--color", "cw:b={}"): {"1e308": 0, "1e-300": 0},
    ("--color", "fixed:{},0.1,0.1"): {},
    **{
        (option, template): {"1e308": 0, "1e-300": 0}
        for option in ("--spatial-pool", "--temporal-pool")
        for template in ("md:p={}", "md:o={}", "dw:p={}", "mink:p={}")
    },
    ("--spatial-pool", "lw:a={}"): {"1e308": 0, "1e-300": 0},
    ("--spatial-pool", "lw:a=16,b={}"): {"1e308": 0, "1e-300": 0},
    **{(option, "pp:ps={}"): {"1e-300": 0} for option in ("--spatial-pool", "--temporal-pool")},
    **{(option, "pp:rs={}"): {"1e308": 0} for option in ("--spatial-pool", "--temporal-pool")},
    ("--temporal-pool", "wam:k={}"): {},
}
SLOT_VALUES = ("nan", "inf", "-inf", "1e308", "1e-300")
SELECTOR_PARSERS = {
    "--window": parse_window, "--scale": parse_scale, "--color": parse_color,
    "--spatial-pool": parse_spatial, "--temporal-pool": parse_temporal,
}


@contextmanager
def time_limit(seconds):
    """Fail the test from inside the block after ``seconds``, so a hang is a
    failure. pytest's failure is a BaseException: no handler in the program
    turns it into an exit code."""

    def expire(signum, frame):
        pytest.fail(f"did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestNumericSlots:
    @pytest.fixture(scope="class")
    def clip(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        refs = [natural_plane(rng, 48, 64) for _ in range(3)]
        root = tmp_path_factory.mktemp("slots")
        ref = make_y4m(root / "ref.y4m", refs)
        dist = make_y4m(root / "dist.y4m", [noisy_version(rng, p, 15) for p in refs])
        return str(ref), str(dist)

    @pytest.mark.parametrize("value", SLOT_VALUES)
    @pytest.mark.parametrize("option, template", list(NUMERIC_SLOTS), ids=lambda v: v.strip("-").replace("{}", "X"))
    def test_every_value_ends_in_a_typed_exit_in_time(self, runner, clip, option, template, value):
        arg, scored = template.format(value), NUMERIC_SLOTS[option, template]
        try:
            SELECTOR_PARSERS[option](arg)
            built = True
        except SsimkitError:
            built = False
        assert built == (value in scored)
        with time_limit(30):
            result = runner.invoke(main, ["score", *clip, option, arg])
        assert result.exit_code == scored.get(value, 2), result.output
        if result.exit_code == 0:
            assert math.isfinite(float(json.loads(result.output.splitlines()[-1])["summary"]["pooled_score"]))
        else:
            assert result.output.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--k1", "--k2"])
    def test_constant_that_overflows_exits_2(self, runner, clip, flag):
        result = runner.invoke(main, ["score", *clip, flag, "1e200"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and "overflow" in result.output
        assert "Traceback" not in result.output

    def test_two_tiny_view_angles_exit_2_from_the_scorer(self, runner, clip):
        # Both angles clamp the factor to 64, as one does; the 1x1 frame fits no window.
        with time_limit(30):
            result = runner.invoke(main, ["score", *clip, "--scale", "sast:D=3000,th=1e-300,tw=1e-300"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and "window does not fit" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("flag", ["--k1", "--k2"])
    def test_non_finite_constant_is_rejected_before_any_file_is_opened(self, runner, tmp_path, flag):
        result = runner.invoke(main, ["score", str(tmp_path / "no.y4m"), str(tmp_path / "pe.y4m"), flag, "nan"])
        assert result.exit_code == 2
        assert "k1 and k2 must be positive and finite" in result.output


class TestBenchmark:
    def make_manifest(self, tmp_path, rng, severities=(3, 8, 15, 25, 40, 55)):
        refs = [natural_plane(rng, 48, 48) for _ in range(2)]
        ref_path = make_y4m(tmp_path / "bref.y4m", refs)
        rows = ["ref_path,dist_path,subjective_score"]
        for i, sev in enumerate(severities):
            dists = [noisy_version(rng, p, sev) for p in refs]
            dist_path = make_y4m(tmp_path / f"bdist{i}.y4m", dists)
            rows.append(f"{ref_path},{dist_path},{1.0 - sev / 80:.4f}")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        return manifest

    def test_correlations_and_pareto(self, tmp_path, rng):
        manifest = self.make_manifest(tmp_path, rng)
        rows = run_benchmark(
            manifest,
            {"default": expand_preset("default"), "enhanced": expand_preset("enhanced")},
        )
        by_name = {r["spec"]: r for r in rows}
        assert by_name["default"]["srocc"] == pytest.approx(1.0, abs=1e-9)
        assert by_name["enhanced"]["srocc"] == pytest.approx(1.0, abs=1e-9)
        assert any(r["pareto"] for r in rows)

    def test_synthetic_5pl_labels_fit_exactly(self, tmp_path, rng):
        # first measure objective scores, then label with an exact 5PL of them
        manifest = self.make_manifest(tmp_path, rng)
        rows = run_benchmark(manifest, {"default": expand_preset("default")})
        import csv

        with open(manifest) as fh:
            entries = list(csv.DictReader(fh))
        scores = []
        for entry in entries:
            out = run_score(entry["ref_path"], entry["dist_path"], expand_preset("default"))
            scores.append(out["summary"]["pooled_score"])
        curve = Logistic5(0.4, 8.0, float(np.median(scores)), 0.3, 0.2)
        labeled = tmp_path / "labeled.csv"
        with open(labeled, "w") as fh:
            fh.write("ref_path,dist_path,subjective_score\n")
            for entry, score in zip(entries, scores):
                fh.write(f"{entry['ref_path']},{entry['dist_path']},{eval_5pl(curve, score)!r}\n")
        rows = run_benchmark(labeled, {"default": expand_preset("default")})
        assert rows[0]["srocc"] == pytest.approx(1.0, abs=1e-9)
        assert rows[0]["rmse"] <= 1e-6

    def test_scores_outside_the_unit_interval_are_normalized(self, tmp_path, rng):
        manifest = self.make_manifest(tmp_path, rng)
        header, *lines = manifest.read_text().splitlines()
        paths = [line.rsplit(",", 1)[0] for line in lines]
        raw = [100.0 * float(line.rsplit(",", 1)[1]) for line in lines]  # a 0-100 scale
        rows = {}
        for name, scores in (("raw", raw), ("normalized", normalize_scores(raw).tolist())):
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join([header, *(f"{p},{s!r}" for p, s in zip(paths, scores))]) + "\n")
            specs = {"default": expand_preset("default"), "enhanced": expand_preset("enhanced")}
            rows[name] = [
                {key: value for key, value in row.items() if key not in ("user_seconds", "pareto")}
                for row in run_benchmark(path, specs)
            ]
        assert rows["raw"] == rows["normalized"]
        assert all(row["note"] == "" for row in rows["raw"])

    def test_degenerate_manifest_reports_nan(self, runner, tmp_path, rng):
        refs = [natural_plane(rng, 32, 32) for _ in range(2)]
        ref_path = make_y4m(tmp_path / "same.y4m", refs)
        manifest = tmp_path / "degenerate.csv"
        manifest.write_text(
            "ref_path,dist_path,subjective_score\n"
            + "\n".join(f"{ref_path},{ref_path},{s}" for s in (0.2, 0.4, 0.6, 0.8, 1.0))
            + "\n"
        )
        result = runner.invoke(main, ["benchmark", str(manifest), "--spec", "default"])
        assert result.exit_code == 3
        assert "degenerate" in result.output

    @pytest.mark.parametrize("column", ["width", "height", "bit_depth"])
    def test_manifest_with_non_integer_geometry_is_input_error(self, runner, tmp_path, rng, column):
        ref_path = make_y4m(tmp_path / "r.y4m", [natural_plane(rng, 16, 16)])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"ref_path,dist_path,subjective_score,{column}\n{ref_path},{ref_path},0.5,abc\n")
        result = runner.invoke(main, ["benchmark", str(manifest), "--spec", "default"])
        assert result.exit_code == 2
        assert "manifest row 2:" in result.output

    def test_manifest_row_with_too_few_fields_is_input_error(self, runner, tmp_path, rng):
        ref_path = make_y4m(tmp_path / "r.y4m", [natural_plane(rng, 16, 16)])
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"ref_path,dist_path,subjective_score\n{ref_path},{ref_path},0.5\n{ref_path},{ref_path}\n")
        result = runner.invoke(main, ["benchmark", str(manifest), "--spec", "default"])
        assert result.exit_code == 2
        assert "manifest row 3:" in result.output
        assert "subjective_score" in result.output

    def test_manifest_path_with_a_nul_byte_is_input_error(self, runner, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("ref_path,dist_path,subjective_score\nr\0.y4m,d.y4m,0.5\n")
        result = runner.invoke(main, ["benchmark", str(manifest), "--spec", "default"])
        assert result.exit_code == 2
        assert "manifest row 2:" in result.output

    @pytest.mark.parametrize("text, where", [
        ("ref_path,dist_path,subjective_score\n", "file"),
        ("ref_path,dist_path,subjective_score\nr.y4m,d.y4m,inf\n", "manifest row 2: 'inf' is not a finite number"),
        ("ref_path,dist_path,subjective_score\nr.y4m,d.y4m,0.5\nr.y4m,d.y4m,NaN\n", "manifest row 3:"),
    ])
    def test_empty_manifest_or_non_finite_score_is_input_error(self, runner, tmp_path, text, where):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text)
        result = runner.invoke(main, ["benchmark", str(manifest), "--spec", "default"])
        assert result.exit_code == 2
        assert (str(manifest) if where == "file" else where) in result.output

    def test_manifest_that_is_not_utf8_is_input_error(self, runner, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"ref_path,dist_path,subjective_score\n\xff\xfer.y4m,d.y4m,0.5\n")
        result = runner.invoke(main, ["benchmark", str(manifest), "--spec", "default"])
        assert result.exit_code == 2
        assert str(manifest) in result.output

    def test_spec_string_with_bad_number_is_input_error(self, runner, tmp_path, rng):
        manifest = self.make_manifest(tmp_path, rng)
        result = runner.invoke(main, ["benchmark", str(manifest), "--spec", "x=preset=default;kt=two"])
        assert result.exit_code == 2
        assert "kt" in result.output

    def test_cli_benchmark_csv(self, runner, tmp_path, rng):
        manifest = self.make_manifest(tmp_path, rng, severities=(5, 20, 35, 50, 60, 70))
        result = runner.invoke(
            main,
            ["benchmark", str(manifest), "--spec", "enhanced",
             "--spec", "fast=preset=enhanced;stride=3", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0].startswith("spec,clips,pcc,srocc,rmse")
        assert len(lines) == 3


class TestOtherCommands:
    def test_fit_5pl_command(self, runner, tmp_path):
        x = np.linspace(0.2, 1.0, 30)
        curve = Logistic5(0.5, 7.0, 0.6, 0.3, 0.1)
        y = np.asarray(eval_5pl(curve, x))
        data = tmp_path / "data.csv"
        data.write_text(
            "objective,subjective\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y))
            + "\n"
        )
        result = runner.invoke(main, ["fit-5pl", str(data)])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert float(out["srocc"]) == pytest.approx(1.0, abs=1e-9)
        assert float(out["rmse"]) <= 1e-6

    def test_fit_5pl_reports_what_benchmark_reports(self, runner, tmp_path):
        # dissimilarity-style scores: quality falls as the objective score rises
        rng = np.random.default_rng(3)
        x = np.linspace(0.1, 0.9, 12)
        y = np.clip(0.95 - 0.9 * x**1.5 + rng.normal(0.0, 0.02, x.size), 0.0, 1.0)  # raw SROCC -0.986
        data = tmp_path / "decreasing.csv"
        data.write_text(
            "objective,subjective\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
        )
        result = runner.invoke(main, ["fit-5pl", str(data)])
        assert result.exit_code == 0
        out = json.loads(result.output)
        expected = pipeline.fit_and_correlate(x, y)
        assert expected.srocc > 0.9 and expected.monotone
        assert float(out["srocc"]) == pytest.approx(expected.srocc, abs=1e-8)
        assert float(out["pcc"]) == pytest.approx(expected.pcc, abs=1e-8)
        assert float(out["rmse"]) == pytest.approx(expected.rmse, abs=1e-8)
        assert out["monotone"] is True

    def test_fit_5pl_row_with_too_few_fields_is_input_error(self, runner, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("objective,subjective\n0.1,0.2\n0.3\n")
        result = runner.invoke(main, ["fit-5pl", str(data)])
        assert result.exit_code == 2

    def test_fit_5pl_degenerate_exit_code(self, runner, tmp_path):
        data = tmp_path / "flat.csv"
        data.write_text("objective,subjective\n" + "\n".join("0.5,0.5" for _ in range(6)) + "\n")
        result = runner.invoke(main, ["fit-5pl", str(data)])
        assert result.exit_code == 3

    @pytest.mark.parametrize("command, text, where", [
        ("pareto", "label,cost\na,1\n", "file"),
        ("pareto", "label,cost,perf\na,1,0.9\nb,2\n", "points row 3: no perf field"),
        ("pareto", "label,cost,perf\na,1,high\n", "points row 2:"),
        ("fit-5pl", "objective\n0.5\n", "file"),
        ("fit-5pl", "objective,subjective\n0.1,0.2\n0.3\n", "data row 3: no subjective field"),
        ("fit-5pl", "objective,subjective\n0.1,abc\n", "data row 2:"),
        ("fit-5pl", b"objective,subjective\n0.1,\xff\n", "file"),
        ("pareto", "label,cost,perf\n", "file"),
        ("fit-5pl", "objective,subjective\n", "file"),
        ("pareto", "label,cost,perf\na,1,0.9\nb,nan,0.95\n", "points row 3: 'nan' is not a finite number"),
        ("pareto", "label,cost,perf\na,1,-inf\n", "points row 2:"),
        ("fit-5pl", "objective,subjective\n0.1,inf\n", "data row 2: 'inf' is not a finite number"),
        ("fit-5pl", "objective,subjective\n0.1,0.2\nnan,0.3\n", "data row 3:"),
    ])
    def test_csv_input_errors_name_the_file_or_the_row(self, runner, tmp_path, command, text, where):
        data = tmp_path / "input.csv"
        data.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = runner.invoke(main, [command, str(data)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert (str(data) if where == "file" else where) in result.output

    def test_pareto_command(self, runner, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("label,cost,perf\na,1,0.90\nb,2,0.95\nc,3,0.94\n")
        result = runner.invoke(main, ["pareto", str(points)])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "label,cost,perf"
        assert [line.split(",")[0] for line in lines[1:]] == ["a", "b"]


class TestOneScoringPath:
    """Every depth, scale count and colour model shares one preparation step."""

    MS2 = SsimConfig(window=WindowSpec.rectangular(5), multiscale=MultiscaleSpec.product(2))

    def test_multiscale_3d_honours_scale_policy_and_bit_depth(self, tmp_path, rng):
        refs = [natural_plane(rng, 128, 128, bit_depth=10) for _ in range(3)]
        ref_path, dist_path = tmp_path / "r.yuv", tmp_path / "d.yuv"
        write_planar_raw(ref_path, refs, bit_depth=10)
        write_planar_raw(dist_path, [noisy_version(rng, p, 60) for p in refs], bit_depth=10)

        def scores(kt, **changes):
            spec = PipelineSpec(replace(self.MS2, **changes), kt=kt)
            out = run_score(ref_path, dist_path, spec, width=128, height=128, bit_depth=10, chroma="400")
            return [r["score"] for r in out["records"]]

        dh1 = ScalePolicy.enhanced_dh(1.0)  # factor 2 on 128 lines
        plain, scaled = scores(2), scores(2, scaling=dh1)
        assert scaled != plain
        assert plain[0] == scores(1)[0]  # a depth-1 volume is 2-D scoring
        assert scaled[0] == scores(1, scaling=dh1)[0]

    def test_multiscale_3d_scores_rgb_luma(self, tmp_path, rng):
        chans = tuple(natural_plane(rng, 64, 64).samples for _ in range(3))
        ref_path, dist_path = tmp_path / "r.ppm", tmp_path / "d.ppm"
        write_pnm(ref_path, ColorFrame(chans))
        write_pnm(dist_path, ColorFrame(tuple(noisy_version(rng, LumaPlane(c), 20).samples for c in chans)))
        kt1, kt2 = (run_score(ref_path, dist_path, PipelineSpec(self.MS2, kt=kt)) for kt in (1, 2))
        assert kt2["records"] == kt1["records"]

    @pytest.mark.parametrize(
        "spec, flags",
        [
            (dict(kt=2, workers=2), ["--kt", "2", "--workers", "2"]),
            (
                dict(config=SsimConfig(spatial_pool="cov", multiscale=MultiscaleSpec.product(2))),
                ["--preset", "enhanced", "--multiscale", "product:levels=2"],
            ),
            (
                dict(config=SsimConfig(spatial_pool="mink:p=2", color=ColorModelSpec("hssim"))),
                ["--spatial-pool", "mink:p=2", "--color", "hssim"],
            ),
        ],
    )
    def test_settings_that_cannot_apply_are_rejected(self, runner, media, spec, flags):
        with pytest.raises(ValidationError):
            PipelineSpec(**spec)
        ref_path, dist_path, _, _ = media
        result = runner.invoke(main, ["score", str(ref_path), str(dist_path), *flags])
        assert result.exit_code == 2
        assert result.output.startswith("error: ")

    def test_the_integral_engine_name_is_rejected(self, runner, tmp_path):
        with pytest.raises(ValidationError):
            SsimConfig(engine="integral")
        missing = [str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")]
        result = runner.invoke(main, ["score", *missing, "--engine", "integral"])
        assert result.exit_code == 2
        assert "'integral'" in result.output

    def test_gaussian_window_the_model_cannot_use_is_rejected_when_built(self, runner, tmp_path):
        with pytest.raises(ValidationError):
            SsimConfig(window=WindowSpec.gaussian(1.5), color=ColorModelSpec("qssim"))
        missing = [str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")]
        result = runner.invoke(main, ["score", *missing, "--window", "gauss:1.5", "--color", "qssim"])
        assert result.exit_code == 2
        assert "quaternion" in result.output  # rejected before either file is opened

    def test_window_and_engine_overrides_are_checked_together(self, runner, media):
        ref_path, dist_path, _, _ = media
        flags = ["--preset", "enhanced", "--window", "gauss:1.5", "--engine", "auto"]
        result = runner.invoke(main, ["score", str(ref_path), str(dist_path), *flags])
        assert result.exit_code == 0

    def test_overrides_are_checked_together(self, runner, media):
        ref_path, dist_path, _, _ = media
        flags = ["--preset", "enhanced", "--multiscale", "product:levels=2", "--spatial-pool", "am"]
        result = runner.invoke(main, ["score", str(ref_path), str(dist_path), *flags])
        assert result.exit_code == 0
        assert "note" not in json.loads(result.output.strip().split("\n")[-1])["summary"]
