"""Plane builders and reference loops the tests share.

They live here, not in conftest.py, so that test modules import them by a
name no other conftest.py on the test paths shadows.
"""

import numpy as np

from ssimkit.frames import ColorFrame, LumaPlane


def random_plane(rng, height=32, width=32, bit_depth=8) -> LumaPlane:
    peak = (1 << bit_depth) - 1
    dtype = np.uint8 if bit_depth <= 8 else np.uint16
    return LumaPlane(rng.integers(0, peak + 1, (height, width)).astype(dtype), bit_depth)


def noisy_version(rng, plane: LumaPlane, amplitude: int = 12) -> LumaPlane:
    peak = int(plane.peak)
    noise = rng.integers(-amplitude, amplitude + 1, plane.samples.shape)
    samples = np.clip(plane.samples.astype(np.int64) + noise, 0, peak)
    return LumaPlane(samples.astype(plane.samples.dtype), plane.bit_depth)


def smooth_field(rng, height, width, sigma=3.0):
    """Low-pass filtered noise: a stand-in for natural image content."""
    field = rng.normal(size=(height, width))
    radius = int(3 * sigma)
    coords = np.arange(-radius, radius + 1)
    kern = np.exp(-(coords**2) / (2 * sigma * sigma))
    kern /= kern.sum()
    padded = np.pad(field, radius, mode="reflect")
    rows = sum(kern[i] * padded[i : i + height, :] for i in range(kern.size))
    out = sum(kern[j] * rows[:, j : j + width] for j in range(kern.size))
    return out


def natural_plane(rng, height=96, width=96, bit_depth=8) -> LumaPlane:
    field = smooth_field(rng, height, width)
    lo, hi = field.min(), field.max()
    peak = (1 << bit_depth) - 1
    scaled = (field - lo) / (hi - lo) * peak
    return LumaPlane(np.round(scaled).astype(np.uint8 if bit_depth <= 8 else np.uint16), bit_depth)


def blur_plane(plane: LumaPlane, passes: int = 1) -> LumaPlane:
    out = plane.samples.astype(np.float64)
    for _ in range(passes):
        padded = np.pad(out, 1, mode="edge")
        out = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:] + out
        ) / 5.0
    return LumaPlane(out, plane.bit_depth)


def per_tap_sums(values, weights, stride):
    """The direct weighted window sums one tap at a time: a product per tap,
    added to a zero grid in row-major tap order."""
    k = weights.shape[0]
    h, w = values.shape
    gh, gw = h - k + 1, w - k + 1
    out = np.zeros(((gh - 1) // stride + 1, (gw - 1) // stride + 1))
    for m in range(k):
        for n in range(k):
            out += weights[m, n] * values[m : m + gh : stride, n : n + gw : stride]
    return out


def random_rgb(rng, height=16, width=16) -> ColorFrame:
    chans = tuple(rng.integers(0, 256, (height, width)).astype(np.uint8) for _ in range(3))
    return ColorFrame(chans)
