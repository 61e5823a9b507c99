"""Seeded synthetic inputs for the ssimkit benchmark.

Every workload's input files are a pure function of (workload, seed, output
directory): the same arguments give byte-identical files. Content is
textured (oriented gratings, block texture and fine grain, moving from frame
to frame), never flat. Distorted files blur the reference and add grain by a
severity; in the image manifest the subjective score falls strictly as
severity rises, so rank correlation against it is meaningful.

Run as a script to write one workload's inputs:

    python3 perfbench/inputs.py --workload vod1080_default --seed 1 --out DIR

The benchmark runs it in a child process so that synthesis never counts
toward the measuring process's memory or time.
"""

from __future__ import annotations

import argparse
import os
import zlib

import numpy as np

#: Input geometry per workload. ``frames`` is the clip length of a video
#: workload; ``contents`` x ``levels`` image pairs make the IQA manifest.
INPUTS = {
    "vod1080_default": dict(kind="y4m", width=1920, height=1080, bit_depth=8, frames=4),
    "uhd2160_enhanced_w2": dict(kind="y4m", width=3840, height=2160, bit_depth=8, frames=4),
    "st1080_kt5_10bit": dict(kind="yuv", width=1920, height=1080, bit_depth=10, frames=6),
    "iqa_sweep_rgb": dict(kind="manifest", width=512, height=384, bit_depth=8, contents=2, levels=3),
}

#: Severity of the single distortion applied to video workloads.
VIDEO_SEVERITY = 0.5


def _rng(workload: str, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), *stream])


def _grain(rng: np.random.Generator, shape) -> np.ndarray:
    """Zero-mean uniform grain in [-0.5, 0.5)."""
    out = rng.random(shape, dtype=np.float32)
    out -= np.float32(0.5)
    return out


class TextureSource:
    """A panning textured scene: frame t of one plane, as float32 in [0, peak].

    Synthesis uses only IEEE-exact arithmetic (no transcendental functions),
    so the bytes do not depend on which SIMD paths numpy picks on a CPU.
    """

    def __init__(self, rng: np.random.Generator, height: int, width: int, peak: int):
        self.peak = peak
        y = np.arange(height, dtype=np.float32)[:, None]
        x = np.arange(width, dtype=np.float32)[None, :]
        canvas = np.zeros((height, width), dtype=np.float32)
        offset = 0.0  # expected canvas mean, removed below
        for _ in range(4):
            # Oriented triangle-wave grating: |frac(fy*y + fx*x + phase) - 0.5|.
            fy, fx = rng.uniform(0.004, 0.12, 2) * rng.choice([-1.0, 1.0], 2)
            wave = np.float32(fy) * y + np.float32(fx) * x + np.float32(rng.uniform())
            wave -= np.floor(wave)
            wave -= np.float32(0.5)
            amp = rng.uniform(0.5, 1.5)
            canvas += np.float32(amp) * np.abs(wave)
            offset += 0.25 * amp
        block = 8
        coarse = _grain(rng, (-(-height // block), -(-width // block)))
        canvas += np.repeat(np.repeat(coarse, block, 0), block, 1)[:height, :width]
        canvas -= np.float32(offset)
        canvas *= np.float32(peak * 0.18)
        canvas += np.float32(peak * 0.5)
        self.canvas = canvas
        self.motion = [int(v) for v in rng.integers(-6, 7, 2)]
        self.rng = rng

    def frame(self, t: int) -> np.ndarray:
        out = np.roll(self.canvas, (t * self.motion[0], t * self.motion[1]), (0, 1))
        out += _grain(self.rng, out.shape) * np.float32(self.peak * 0.03)
        return np.clip(out, 0.0, self.peak, out=out)


def distort(rng: np.random.Generator, plane: np.ndarray, severity: float, peak: int) -> np.ndarray:
    """Blur by a 3-tap box mix and add grain, both growing with severity."""
    mix = np.float32(min(1.0, 0.4 + severity))
    third = np.float32(1.0 / 3.0)
    blurred = plane.copy()
    blurred[1:-1, :] += plane[:-2, :]
    blurred[1:-1, :] += plane[2:, :]
    blurred[1:-1, :] *= third
    rows = blurred.copy()
    blurred[:, 1:-1] += rows[:, :-2]
    blurred[:, 1:-1] += rows[:, 2:]
    blurred[:, 1:-1] *= third
    blurred *= mix
    blurred += plane * (np.float32(1.0) - mix)
    blurred += _grain(rng, plane.shape) * np.float32(severity * 0.14 * peak)
    return np.clip(blurred, 0.0, peak, out=blurred)


def quantize(plane: np.ndarray, bit_depth: int) -> np.ndarray:
    dtype = np.uint8 if bit_depth <= 8 else np.dtype("<u2")
    return np.rint(plane).astype(dtype)


def _video_frames(workload: str, seed: int, spec: dict):
    """Yield (ref planes, dist planes) per frame, each a Y/Cb/Cr triple."""
    w, h, depth = spec["width"], spec["height"], spec["bit_depth"]
    peak = (1 << depth) - 1
    cw, ch = -(-w // 2), -(-h // 2)
    sources = [
        TextureSource(_rng(workload, seed, 0), h, w, peak),
        TextureSource(_rng(workload, seed, 1), ch, cw, peak),
        TextureSource(_rng(workload, seed, 2), ch, cw, peak),
    ]
    noise = _rng(workload, seed, 3)
    for t in range(spec["frames"]):
        ref = [s.frame(t) for s in sources]
        dist = [distort(noise, p, VIDEO_SEVERITY, peak) for p in ref]
        yield [quantize(p, depth) for p in ref], [quantize(p, depth) for p in dist]


def input_paths(workload: str, out_dir: str) -> dict:
    """Where a workload's inputs live in ``out_dir``, by role."""
    kind = INPUTS[workload]["kind"]
    if kind == "manifest":
        return {"manifest": os.path.join(out_dir, "manifest.csv")}
    ext = ".y4m" if kind == "y4m" else ".yuv"
    return {"ref": os.path.join(out_dir, "ref" + ext), "dist": os.path.join(out_dir, "dist" + ext)}


def write_video(workload: str, seed: int, out_dir: str) -> None:
    spec = INPUTS[workload]
    paths = input_paths(workload, out_dir)
    header = f"YUV4MPEG2 W{spec['width']} H{spec['height']} F30:1 Ip A1:1 C420jpeg\n".encode()
    with open(paths["ref"], "wb") as fr, open(paths["dist"], "wb") as fd:
        if spec["kind"] == "y4m":
            fr.write(header)
            fd.write(header)
        for ref, dist in _video_frames(workload, seed, spec):
            for fh, planes in ((fr, ref), (fd, dist)):
                if spec["kind"] == "y4m":
                    fh.write(b"FRAME\n")
                for p in planes:
                    fh.write(p.tobytes())


def _write_ppm(path: str, rgb: list[np.ndarray]) -> None:
    h, w = rgb[0].shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.stack(rgb, axis=-1).tobytes())


def write_manifest(workload: str, seed: int, out_dir: str) -> None:
    """P6 reference/distorted pairs plus a manifest CSV with subjective scores.

    Severities are distinct values drawn from the seed; the subjective score
    is 1 - severity, a strictly decreasing map.
    """
    spec = INPUTS[workload]
    w, h = spec["width"], spec["height"]
    n_levels = spec["levels"]
    rows = []
    for c in range(spec["contents"]):
        rng = _rng(workload, seed, 10 + c)
        ref = [TextureSource(_rng(workload, seed, 100 + 3 * c + i), h, w, 255).frame(c) for i in range(3)]
        ref_path = os.path.join(out_dir, f"ref_{c:02d}.ppm")
        _write_ppm(ref_path, [quantize(p, 8) for p in ref])
        edges = np.linspace(0.05, 0.95, n_levels + 1)
        severities = rng.uniform(edges[:-1], edges[1:])
        for level, severity in enumerate(severities):
            dist = [quantize(distort(rng, p, float(severity), 255), 8) for p in ref]
            dist_path = os.path.join(out_dir, f"dist_{c:02d}_{level}.ppm")
            _write_ppm(dist_path, dist)
            rows.append((ref_path, dist_path, f"{1.0 - severity:.6f}"))
    with open(input_paths(workload, out_dir)["manifest"], "w", newline="") as fh:
        fh.write("ref_path,dist_path,subjective_score\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's inputs into ``out_dir``; return their paths by role."""
    os.makedirs(out_dir, exist_ok=True)
    if INPUTS[workload]["kind"] == "manifest":
        write_manifest(workload, seed, out_dir)
    else:
        write_video(workload, seed, out_dir)
    return input_paths(workload, out_dir)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
