"""Pinned bits of the luma scoring routes.

``score_frame_pair``'s four record fields and ``run_score``'s pooled score
are pinned as ``float.hex`` strings, for the spatial poolers that pool as
the bands are formed (am, lw, mink, dw) and one that keeps a whole quality
map (cov), on 8-bit, 10-bit and float64 planes, on the 2-D route, a kt=3
volume and 3-level product multiscale, at grid heights on either side of a
band edge (BAND_ROWS is 64). Any change in how a route rounds shows here.

Scaled clips (a scale policy that box-downsamples each frame) are pinned
the same way: bit for bit at factors 2, 4 and 8 on frames they divide, and
within 1e-12 relative (1e-9 for cov) at factors 3 and 5 and with partial
trailing blocks, as when they were first pinned from float block means.

The integer cases were re-recorded once when integer routes began to form
SSIM from exact window sums; each value moved within 1e-12 relative (1e-9
under cov), and the float64 cases kept their bits.

Run this file as a script to print the tables for the current code.
"""

import os
import tempfile

import numpy as np
import pytest

from ssimkit.adaptation import policy_factor
from ssimkit.config import MultiscaleSpec, ScalePolicy, SsimConfig, WindowSpec
from ssimkit.frames import ColorFrame, LumaPlane
from ssimkit.media import StreamHeader, write_planar_raw, write_y4m
from ssimkit.pipeline import PipelineSpec, run_score, score_frame_pair
from ssimkit.spatiotemporal import RollingVolume

KINDS = ("u8", "u10", "f64")
ROUTES = ("2d", "kt3", "ms3")
GRID_ROWS = (63, 64, 65, 129)
POOLS = ("am", "lw:a=100,b=200", "lw:a=100", "mink:p=3", "dw:p=2", "cov")
WIDTH = 150  # plane columns: 140 grid columns under the default 11x11 window


def _planes(kind: str, rows: int, frame: int) -> tuple[np.ndarray, np.ndarray]:
    """A reference plane with a ramp and noise, and a noisy copy, for a
    grid of ``rows`` rows under the default window."""
    rng = np.random.default_rng([KINDS.index(kind), rows, frame])
    peak = 1023.0 if kind == "u10" else 255.0
    shape = (rows + 10, WIDTH)
    ref = np.linspace(0.0, 0.75 * peak, WIDTH) + rng.uniform(0.0, peak / 4, shape)
    dist = np.clip(ref + rng.normal(0.0, peak / 25, shape), 0.0, peak)
    if kind == "f64":
        return ref, dist
    dtype = np.uint8 if kind == "u8" else np.uint16
    return np.round(ref).astype(dtype), np.round(dist).astype(dtype)


def _config(kind: str, route: str, pool: str = "am") -> SsimConfig:
    multiscale = MultiscaleSpec.product(3, (0.2, 0.3, 0.5)) if route == "ms3" else MultiscaleSpec.off()
    return SsimConfig(bit_depth=10 if kind == "u10" else 8, spatial_pool=pool, multiscale=multiscale)


def frame_bits(kind: str, route: str, rows: int) -> dict:
    """float.hex of score, am, l_mean and cs_mean of the last of three frame
    pairs, the score under each pooler (multiscale pools by its mean only)."""
    depth = 10 if kind == "u10" else 8
    pairs = [[LumaPlane(p, depth) for p in _planes(kind, rows, t)] for t in range(3)]
    out = {}
    for pool in POOLS if route != "ms3" else POOLS[:1]:
        levels = 3 if route == "ms3" else 1
        volumes = [RollingVolume(3) for _ in range(levels)] if route == "kt3" else None
        for a, b in pairs:
            got = score_frame_pair(a, b, _config(kind, route, pool), volumes)
        out["score " + pool] = got.score.hex()
        for name in ("am", "l_mean", "cs_mean"):
            value = getattr(got, name)
            out[name] = None if value is None else value.hex()
    return out


def run_bits(kind: str, route: str, rows: int) -> dict:
    """float.hex of run_score's pooled score of a written three-frame clip,
    under each pooler (multiscale pools by its mean only)."""
    depth = 10 if kind == "u10" else 8
    height, dtype = rows + 10, np.uint8 if depth == 8 else np.uint16
    rng = np.random.default_rng([depth, rows])
    chroma = (-(-height // 2), WIDTH // 2)
    clips = [[], []]
    for t in range(3):
        for clip, luma in zip(clips, _planes(kind, rows, t)):
            uv = (rng.integers(0, 1 << depth, chroma).astype(dtype) for _ in "uv")
            clip.append(ColorFrame((luma, *uv), "ycbcr-bt709", "420", depth))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        ext = ".y4m" if depth == 8 else ".yuv"
        paths = [os.path.join(tmp, name + ext) for name in ("ref", "dist")]
        for path, clip in zip(paths, clips):
            if depth == 8:
                write_y4m(path, clip, StreamHeader(WIDTH, height, (30, 1), "420", 8))
            else:
                write_planar_raw(path, clip, depth)
        raw = {} if depth == 8 else dict(width=WIDTH, height=height, bit_depth=depth)
        for pool in POOLS if route != "ms3" else POOLS[:1]:
            spec = PipelineSpec(_config(kind, route, pool), kt=3 if route == "kt3" else 1)
            out[pool] = run_score(*paths, spec, **raw)["summary"]["pooled_score"].hex()
    return out



SCALED_SHAPES = {"even": (128, 192), "ragged": (131, 197)}
SCALED_FACTORS = (("even", 2), ("even", 4), ("even", 8), ("even", 3), ("even", 5), ("ragged", 2), ("ragged", 8))
SCALED_WINDOWS = {
    "rect": (WindowSpec.rectangular(11), "auto"),
    "rect-s5": (WindowSpec.rectangular(11, stride=5), "auto"),
    "gauss": (WindowSpec.gaussian(1.5), "auto"),
    "naive": (WindowSpec.rectangular(11), "naive"),
}
SCALED_POOLS = ("am", "cov", "lw:a=100,b=200")


def scaled_bits(depth: int, size: str, factor: int, window: str) -> dict:
    """float.hex of the last frame's score under each pooler, its am,
    l_mean and cs_mean, and the pooled am score, of a two-frame clip (8-bit
    Y4M or 10-bit raw) scored under a scale policy of ``factor``."""
    height, width = SCALED_SHAPES[size]
    dtype = np.uint8 if depth == 8 else np.uint16
    peak = (1 << depth) - 1
    rng = np.random.default_rng([depth, height, factor])
    clips = [[], []]
    for t in range(2):
        ref = np.linspace(0.0, 0.75 * peak, width) + rng.uniform(0.0, peak / 4, (height, width))
        dist = np.clip(ref + rng.normal(0.0, peak / 25, ref.shape), 0.0, peak)
        for clip, luma in zip(clips, (ref, dist)):
            uv = (rng.integers(0, peak + 1, (-(-height // 2), -(-width // 2))).astype(dtype) for _ in "uv")
            clip.append(ColorFrame((np.round(luma).astype(dtype), *uv), "ycbcr-bt709", "420", depth))
    policy = ScalePolicy.enhanced_dh(min(height, width) / 256 * 3 / factor)
    assert policy_factor(policy, width, height) == factor
    shape, engine = SCALED_WINDOWS[window]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        ext = ".y4m" if depth == 8 else ".yuv"
        paths = [os.path.join(tmp, name + ext) for name in ("ref", "dist")]
        for path, clip in zip(paths, clips):
            if depth == 8:
                write_y4m(path, clip, StreamHeader(width, height, (30, 1), "420", 8))
            else:
                write_planar_raw(path, clip, depth)
        raw = {} if depth == 8 else dict(width=width, height=height, bit_depth=depth)
        for pool in SCALED_POOLS:
            config = SsimConfig(window=shape, engine=engine, scaling=policy, spatial_pool=pool)
            result = run_score(*paths, PipelineSpec(config), **raw)
            last = result["records"][-1]
            out["score " + pool] = last["score"].hex()
            if pool == "am":
                out.update({name: last[name].hex() for name in ("am", "l_mean", "cs_mean")})
                out["pooled am"] = result["summary"]["pooled_score"].hex()
    return out

FRAME_CASES = [(kind, route, rows) for kind in KINDS for route in ROUTES for rows in GRID_ROWS]
RUN_CASES = [(kind, route, 65) for kind in ("u8", "u10") for route in ROUTES]
SCALED_CASES = [(depth, *sf, window) for depth in (8, 10) for sf in SCALED_FACTORS for window in SCALED_WINDOWS]

FRAME_BITS = {
    ('u8', '2d', 63): {'score am': '0x1.c23139f50c4bap-1', 'am': '0x1.c23139f50c4bap-1', 'l_mean': '0x1.fff9cb73ecf8fp-1', 'cs_mean': '0x1.c236b195c843cp-1', 'score lw:a=100,b=200': '0x1.57a6aea6c4fbbp-3', 'score lw:a=100': '0x1.20c3f39b9f482p-1', 'score mink:p=3': '0x1.eccfc329997ebp-10', 'score dw:p=2': '0x1.bf658cd72523ep-1', 'score cov': '0x1.507a8b97b8861p-6'},
    ('u8', '2d', 64): {'score am': '0x1.c2b3dca560b26p-1', 'am': '0x1.c2b3dca560b26p-1', 'l_mean': '0x1.fff99cb61741dp-1', 'cs_mean': '0x1.c2b980e3898ecp-1', 'score lw:a=100,b=200': '0x1.5b8fbf48480ecp-3', 'score lw:a=100': '0x1.242df529a36f5p-1', 'score mink:p=3': '0x1.e33135ad58cb1p-10', 'score dw:p=2': '0x1.bfb9a91b0ec1ep-1', 'score cov': '0x1.5bfebd6a92fe7p-6'},
    ('u8', '2d', 65): {'score am': '0x1.c36528e6ce5f5p-1', 'am': '0x1.c36528e6ce5f5p-1', 'l_mean': '0x1.fffb1e4d3d6eap-1', 'cs_mean': '0x1.c3697637375c5p-1', 'score lw:a=100,b=200': '0x1.5ae90bab5e185p-3', 'score lw:a=100': '0x1.284a8ea2e17e8p-1', 'score mink:p=3': '0x1.cb1ede44b6463p-10', 'score dw:p=2': '0x1.c1266c63cd51ep-1', 'score cov': '0x1.299b1f45591dap-6'},
    ('u8', '2d', 129): {'score am': '0x1.c2efd2e9fcb0ap-1', 'am': '0x1.c2efd2e9fcb0ap-1', 'l_mean': '0x1.fff88d8351fe1p-1', 'cs_mean': '0x1.c2f664e77ab49p-1', 'score lw:a=100,b=200': '0x1.5a92b040abe04p-3', 'score lw:a=100': '0x1.2652eb595e8d5p-1', 'score mink:p=3': '0x1.d4f3cb36228f7p-10', 'score dw:p=2': '0x1.c0be03402df6ep-1', 'score cov': '0x1.293c1c034d3f6p-6'},
    ('u8', 'kt3', 63): {'score am': '0x1.c3648e25e4e83p-1', 'am': '0x1.c3648e25e4e83p-1', 'l_mean': '0x1.fffe3a73a2448p-1', 'cs_mean': '0x1.c3661da28d668p-1', 'score lw:a=100,b=200': '0x1.5a53bf6019453p-3', 'score lw:a=100': '0x1.246cb6efecefbp-1', 'score mink:p=3': '0x1.ba29656c6a801p-10', 'score dw:p=2': '0x1.c2b626887e8b7p-1', 'score cov': '0x1.492330cf2c6bap-7'},
    ('u8', 'kt3', 64): {'score am': '0x1.c35b4140927b8p-1', 'am': '0x1.c35b4140927b8p-1', 'l_mean': '0x1.fffdc6f404d73p-1', 'cs_mean': '0x1.c35d382e9f0fep-1', 'score lw:a=100,b=200': '0x1.5a8a41344c2d0p-3', 'score lw:a=100': '0x1.2524b8cec0d5fp-1', 'score mink:p=3': '0x1.bdf99e4fe2026p-10', 'score dw:p=2': '0x1.c266191311175p-1', 'score cov': '0x1.879b3d89721b2p-7'},
    ('u8', 'kt3', 65): {'score am': '0x1.c2db453e3a244p-1', 'am': '0x1.c2db453e3a244p-1', 'l_mean': '0x1.fffdcf95b062bp-1', 'cs_mean': '0x1.c2dd337de7488p-1', 'score lw:a=100,b=200': '0x1.58ef876bad5bfp-3', 'score lw:a=100': '0x1.2589f40ea8e0bp-1', 'score mink:p=3': '0x1.c6352bd3b1fbap-10', 'score dw:p=2': '0x1.c226a64d73b7dp-1', 'score cov': '0x1.511030a6ac450p-7'},
    ('u8', 'kt3', 129): {'score am': '0x1.c28fb428efe7cp-1', 'am': '0x1.c28fb428efe7cp-1', 'l_mean': '0x1.fffd97250e145p-1', 'cs_mean': '0x1.c291d3d28d1e5p-1', 'score lw:a=100,b=200': '0x1.599187ff783c0p-3', 'score lw:a=100': '0x1.2510fa1eaed69p-1', 'score mink:p=3': '0x1.cdd672091eddbp-10', 'score dw:p=2': '0x1.c1c30f9634f5cp-1', 'score cov': '0x1.68a3843ab1ecdp-7'},
    ('u8', 'ms3', 63): {'score am': '0x1.e6476a0a83656p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u8', 'ms3', 64): {'score am': '0x1.e62295ac2a988p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u8', 'ms3', 65): {'score am': '0x1.e68bc23114babp-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u8', 'ms3', 129): {'score am': '0x1.e614b0adba647p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u10', '2d', 63): {'score am': '0x1.c2ab4c6b2d82ep-1', 'am': '0x1.c2ab4c6b2d82ep-1', 'l_mean': '0x1.fffae9890addcp-1', 'cs_mean': '0x1.c2afc55c75308p-1', 'score lw:a=100,b=200': '0x1.9fb50ca844f89p-1', 'score lw:a=100': '0x1.c2ab4c6b2d82ep-1', 'score mink:p=3': '0x1.da213bff5a4f5p-10', 'score dw:p=2': '0x1.c08d058eb7bb4p-1', 'score cov': '0x1.23f5ec5d42c07p-6'},
    ('u10', '2d', 64): {'score am': '0x1.c1613125f4168p-1', 'am': '0x1.c1613125f4168p-1', 'l_mean': '0x1.fff8a736c3565p-1', 'cs_mean': '0x1.c167a40545fdfp-1', 'score lw:a=100,b=200': '0x1.9fb970a6f3926p-1', 'score lw:a=100': '0x1.c1613125f4168p-1', 'score mink:p=3': '0x1.ff24ffa2ecf0bp-10', 'score dw:p=2': '0x1.bea9e72368cdap-1', 'score cov': '0x1.4e940d7840b07p-6'},
    ('u10', '2d', 65): {'score am': '0x1.c221f9c6c24d2p-1', 'am': '0x1.c221f9c6c24d2p-1', 'l_mean': '0x1.fff8c0348cb41p-1', 'cs_mean': '0x1.c2285351885cap-1', 'score lw:a=100,b=200': '0x1.9f5290c02b2acp-1', 'score lw:a=100': '0x1.c221f9c6c24d2p-1', 'score mink:p=3': '0x1.e822e74e95d6dp-10', 'score dw:p=2': '0x1.bfdf857838d5ap-1', 'score cov': '0x1.301a44138db7fp-6'},
    ('u10', '2d', 129): {'score am': '0x1.c18c776675893p-1', 'am': '0x1.c18c776675893p-1', 'l_mean': '0x1.fff9fe5cebfcap-1', 'cs_mean': '0x1.c191bf53c7256p-1', 'score lw:a=100,b=200': '0x1.9f09e519a986ep-1', 'score lw:a=100': '0x1.c18c776675893p-1', 'score mink:p=3': '0x1.f75e33e942a31p-10', 'score dw:p=2': '0x1.bf27f2fe4b2e8p-1', 'score cov': '0x1.3a4b1744c89e5p-6'},
    ('u10', 'kt3', 63): {'score am': '0x1.c2726ab274fb6p-1', 'am': '0x1.c2726ab274fb6p-1', 'l_mean': '0x1.fffe1dff30a4cp-1', 'cs_mean': '0x1.c27411caeaab6p-1', 'score lw:a=100,b=200': '0x1.9f2e0d56dd896p-1', 'score lw:a=100': '0x1.c2726ab274fb6p-1', 'score mink:p=3': '0x1.d0e667c54de6fp-10', 'score dw:p=2': '0x1.c19a38d5b83ebp-1', 'score cov': '0x1.7275203367b44p-7'},
    ('u10', 'kt3', 64): {'score am': '0x1.c251f8201d0f7p-1', 'am': '0x1.c251f8201d0f7p-1', 'l_mean': '0x1.fffda248f87eap-1', 'cs_mean': '0x1.c2540cd035f4ep-1', 'score lw:a=100,b=200': '0x1.a09685efc8c73p-1', 'score lw:a=100': '0x1.c251f8201d0f7p-1', 'score mink:p=3': '0x1.d2863a2fd0fd7p-10', 'score dw:p=2': '0x1.c196035f24a38p-1', 'score cov': '0x1.5a2f64c1f0f23p-7'},
    ('u10', 'kt3', 65): {'score am': '0x1.c366cd2ee9500p-1', 'am': '0x1.c366cd2ee9500p-1', 'l_mean': '0x1.fffd91ff5b6c0p-1', 'cs_mean': '0x1.c368f18d3e903p-1', 'score lw:a=100,b=200': '0x1.a09b426225171p-1', 'score lw:a=100': '0x1.c366cd2ee9500p-1', 'score mink:p=3': '0x1.bc59ac1034144p-10', 'score dw:p=2': '0x1.c280bd0e7ec5cp-1', 'score cov': '0x1.7b5b590150f1bp-7'},
    ('u10', 'kt3', 129): {'score am': '0x1.c238525b6048dp-1', 'am': '0x1.c238525b6048dp-1', 'l_mean': '0x1.fffd00a2d6a91p-1', 'cs_mean': '0x1.c23af5849d891p-1', 'score lw:a=100,b=200': '0x1.9fd4391b59c18p-1', 'score lw:a=100': '0x1.c238525b6048dp-1', 'score mink:p=3': '0x1.d575e436df2e3p-10', 'score dw:p=2': '0x1.c16d4758b0f4dp-1', 'score cov': '0x1.68ae879588551p-7'},
    ('u10', 'ms3', 63): {'score am': '0x1.e62c7fbf3a839p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u10', 'ms3', 64): {'score am': '0x1.e55c331590696p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u10', 'ms3', 65): {'score am': '0x1.e5c9c3e2892eep-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u10', 'ms3', 129): {'score am': '0x1.e5a99119ac0cep-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('f64', '2d', 63): {'score am': '0x1.c231e165c126ep-1', 'am': '0x1.c231e165c126ep-1', 'l_mean': '0x1.fffa12ebae976p-1', 'cs_mean': '0x1.c23719583dfedp-1', 'score lw:a=100,b=200': '0x1.5a390cd9ec5c2p-3', 'score lw:a=100': '0x1.2be20f30e8504p-1', 'score mink:p=3': '0x1.e865f0fafde4dp-10', 'score dw:p=2': '0x1.bfc61617ba234p-1', 'score cov': '0x1.381aa7854440ap-6'},
    ('f64', '2d', 64): {'score am': '0x1.c3867af835e87p-1', 'am': '0x1.c3867af835e87p-1', 'l_mean': '0x1.fff89b1d96c68p-1', 'cs_mean': '0x1.c38d04ece8dbcp-1', 'score lw:a=100,b=200': '0x1.580826db31978p-3', 'score lw:a=100': '0x1.26bb92a4b29d2p-1', 'score mink:p=3': '0x1.cd4f87443619ep-10', 'score dw:p=2': '0x1.c0d48a29b9598p-1', 'score cov': '0x1.482f2c9c19223p-6'},
    ('f64', '2d', 65): {'score am': '0x1.c3127bb79e273p-1', 'am': '0x1.c3127bb79e273p-1', 'l_mean': '0x1.fff8e56e9c6f6p-1', 'cs_mean': '0x1.c318c3869336bp-1', 'score lw:a=100,b=200': '0x1.57810e92754e0p-3', 'score lw:a=100': '0x1.25c491663e185p-1', 'score mink:p=3': '0x1.d4307300ec5afp-10', 'score dw:p=2': '0x1.c0aa8e9ace871p-1', 'score cov': '0x1.35bd108bb5104p-6'},
    ('f64', '2d', 129): {'score am': '0x1.c2b7f4a675d35p-1', 'am': '0x1.c2b7f4a675d35p-1', 'l_mean': '0x1.fff82516a2a0bp-1', 'cs_mean': '0x1.c2beda50d228dp-1', 'score lw:a=100,b=200': '0x1.5a40c24605ccep-3', 'score lw:a=100': '0x1.262d3ecc6e533p-1', 'score mink:p=3': '0x1.df0b14d9579c2p-10', 'score dw:p=2': '0x1.c011daea479ffp-1', 'score cov': '0x1.47638175bda65p-6'},
    ('f64', 'kt3', 63): {'score am': '0x1.c2bc3636fd4f1p-1', 'am': '0x1.c2bc3636fd4f1p-1', 'l_mean': '0x1.fffe0ac9d368cp-1', 'cs_mean': '0x1.c2bdf019e6a9bp-1', 'score lw:a=100,b=200': '0x1.59d197641b92ap-3', 'score lw:a=100': '0x1.27931dd5bba6fp-1', 'score mink:p=3': '0x1.c896819b50045p-10', 'score dw:p=2': '0x1.c20f420698b25p-1', 'score cov': '0x1.4b70ace37b12cp-7'},
    ('f64', 'kt3', 64): {'score am': '0x1.c294eeb514ea4p-1', 'am': '0x1.c294eeb514ea4p-1', 'l_mean': '0x1.fffdf7d100aa8p-1', 'cs_mean': '0x1.c296b832497b1p-1', 'score lw:a=100,b=200': '0x1.58ebe746af233p-3', 'score lw:a=100': '0x1.264e1c33aa8a3p-1', 'score mink:p=3': '0x1.cd2688772b644p-10', 'score dw:p=2': '0x1.c1cd9e2f38deep-1', 'score cov': '0x1.63fc4a0742e7bp-7'},
    ('f64', 'kt3', 65): {'score am': '0x1.c23ff6a4be2b5p-1', 'am': '0x1.c23ff6a4be2b5p-1', 'l_mean': '0x1.fffdeef64f5e1p-1', 'cs_mean': '0x1.c241c8a2a9943p-1', 'score lw:a=100,b=200': '0x1.5931af44c7dfbp-3', 'score lw:a=100': '0x1.26f98894c26fep-1', 'score mink:p=3': '0x1.d454c24adddb7p-10', 'score dw:p=2': '0x1.c17ee9cbc0809p-1', 'score cov': '0x1.5ec02717efe4bp-7'},
    ('f64', 'kt3', 129): {'score am': '0x1.c2fd469023ea5p-1', 'am': '0x1.c2fd469023ea5p-1', 'l_mean': '0x1.fffd979754313p-1', 'cs_mean': '0x1.c2ff6528e3c88p-1', 'score lw:a=100,b=200': '0x1.59c1873c9985ap-3', 'score lw:a=100': '0x1.267d0c3f649b4p-1', 'score mink:p=3': '0x1.c4730514e693dp-10', 'score dw:p=2': '0x1.c22db1996350bp-1', 'score cov': '0x1.6a28e023e7145p-7'},
    ('f64', 'ms3', 63): {'score am': '0x1.e51afcf70eb15p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('f64', 'ms3', 64): {'score am': '0x1.e5b869a9f95b5p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('f64', 'ms3', 65): {'score am': '0x1.e642ea3b7f4ddp-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('f64', 'ms3', 129): {'score am': '0x1.e5da424fc0b93p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
}

RUN_BITS = {
    ('u8', '2d', 65): {'am': '0x1.c2bb4b564e150p-1', 'lw:a=100,b=200': '0x1.58e1c79c2c6bbp-3', 'lw:a=100': '0x1.254c3ba261709p-1', 'mink:p=3': '0x1.da9262c5922e7p-10', 'dw:p=2': '0x1.c074783627295p-1', 'cov': '0x1.2e46e0129e05bp-6'},
    ('u8', 'kt3', 65): {'am': '0x1.c27cc7d78df73p-1', 'lw:a=100,b=200': '0x1.57ed27066a1e4p-3', 'lw:a=100': '0x1.2487ecc0c8901p-1', 'mink:p=3': '0x1.d57764bef1045p-10', 'dw:p=2': '0x1.c12a5f9b659b0p-1', 'cov': '0x1.c4cbcc8cb13cbp-7'},
    ('u8', 'ms3', 65): {'am': '0x1.e64eca2ab3b6cp-1'},
    ('u10', '2d', 65): {'am': '0x1.c32dcfb8b6388p-1', 'lw:a=100,b=200': '0x1.a05be1b6fb475p-1', 'lw:a=100': '0x1.c32dcfb8b6388p-1', 'mink:p=3': '0x1.d2928f7138cf3p-10', 'dw:p=2': '0x1.c0b96a1eb99d3p-1', 'cov': '0x1.39591137d2130p-6'},
    ('u10', 'kt3', 65): {'am': '0x1.c398002962d8dp-1', 'lw:a=100,b=200': '0x1.a0b97efec6b3bp-1', 'lw:a=100': '0x1.c398002962d8dp-1', 'mink:p=3': '0x1.c0620f7a5af6cp-10', 'dw:p=2': '0x1.c1f190fba44cbp-1', 'cov': '0x1.f2f5a97413464p-7'},
    ('u10', 'ms3', 65): {'am': '0x1.e6304445e66f4p-1'},
}

SCALED_BITS = {
    (8, 'even', 2, 'rect'): {'score am': '0x1.d86bdcb27a3c3p-1', 'am': '0x1.d86bdcb27a3c3p-1', 'l_mean': '0x1.fffe9e45b7ecap-1', 'cs_mean': '0x1.d86d23c43d838p-1', 'pooled am': '0x1.d8a639382f663p-1', 'score cov': '0x1.9f5dbb3c79476p-7', 'score lw:a=100,b=200': '0x1.615f5895f6397p-3'},
    (8, 'even', 2, 'rect-s5'): {'score am': '0x1.d82d21228cadcp-1', 'am': '0x1.d82d21228cadcp-1', 'l_mean': '0x1.fffe7559e4b99p-1', 'cs_mean': '0x1.d82e8e1c4678cp-1', 'pooled am': '0x1.d846e16dd0edcp-1', 'score cov': '0x1.9dd701115cf88p-7', 'score lw:a=100,b=200': '0x1.68eff95bb5b50p-3'},
    (8, 'even', 2, 'gauss'): {'score am': '0x1.cefa1840f876cp-1', 'am': '0x1.cefa1840f876cp-1', 'l_mean': '0x1.fff9fa5119a86p-1', 'cs_mean': '0x1.ceff8969621ccp-1', 'pooled am': '0x1.cf1b4357b4290p-1', 'score cov': '0x1.f92cca37f1888p-6', 'score lw:a=100,b=200': '0x1.5a95451e7f2c9p-3'},
    (8, 'even', 2, 'naive'): {'score am': '0x1.d86bdcb27a3c3p-1', 'am': '0x1.d86bdcb27a3c3p-1', 'l_mean': '0x1.fffe9e45b7ecap-1', 'cs_mean': '0x1.d86d23c43d838p-1', 'pooled am': '0x1.d8a639382f663p-1', 'score cov': '0x1.9f5dbb3c79476p-7', 'score lw:a=100,b=200': '0x1.615f5895f6397p-3'},
    (8, 'even', 4, 'rect'): {'score am': '0x1.f7e1d813e2748p-1', 'am': '0x1.f7e1d813e2748p-1', 'l_mean': '0x1.ffffb55017818p-1', 'cs_mean': '0x1.f7e2219398102p-1', 'pooled am': '0x1.f819cf794eb07p-1', 'score cov': '0x1.25a356bd1d306p-9', 'score lw:a=100,b=200': '0x1.6306efef2fb41p-3'},
    (8, 'even', 4, 'rect-s5'): {'score am': '0x1.f7ceae1be54b3p-1', 'am': '0x1.f7ceae1be54b3p-1', 'l_mean': '0x1.ffff9b4dae0eep-1', 'cs_mean': '0x1.f7cf11326d53dp-1', 'pooled am': '0x1.f8152f98ec8fep-1', 'score cov': '0x1.35c6170744825p-9', 'score lw:a=100,b=200': '0x1.50b43daa3debep-3'},
    (8, 'even', 4, 'gauss'): {'score am': '0x1.ecbf641c04966p-1', 'am': '0x1.ecbf641c04966p-1', 'l_mean': '0x1.fffe74312ca09p-1', 'cs_mean': '0x1.ecc0e0c579b59p-1', 'pooled am': '0x1.ed4ac77ad8616p-1', 'score cov': '0x1.4b73ea367e114p-7', 'score lw:a=100,b=200': '0x1.5b48620a5e0efp-3'},
    (8, 'even', 4, 'naive'): {'score am': '0x1.f7e1d813e2748p-1', 'am': '0x1.f7e1d813e2748p-1', 'l_mean': '0x1.ffffb55017818p-1', 'cs_mean': '0x1.f7e2219398102p-1', 'pooled am': '0x1.f819cf794eb07p-1', 'score cov': '0x1.25a356bd1d306p-9', 'score lw:a=100,b=200': '0x1.6306efef2fb41p-3'},
    (8, 'even', 8, 'rect'): {'score am': '0x1.ff448e717403ap-1', 'am': '0x1.ff448e717403ap-1', 'l_mean': '0x1.fffff6b506417p-1', 'cs_mean': '0x1.ff4497b9222c5p-1', 'pooled am': '0x1.ff519159bc6e1p-1', 'score cov': '0x1.308f0e638e82ep-13', 'score lw:a=100,b=200': '0x1.3c3638b1cfe3bp-3'},
    (8, 'even', 8, 'rect-s5'): {'score am': '0x1.ff48b5647de07p-1', 'am': '0x1.ff48b5647de07p-1', 'l_mean': '0x1.ffffee8d83c87p-1', 'cs_mean': '0x1.ff48c6d11bb4fp-1', 'pooled am': '0x1.ff545ec868659p-1', 'score cov': '0x1.9eada4c15ac10p-13', 'score lw:a=100,b=200': '0x1.e1976e99a578bp-4'},
    (8, 'even', 8, 'gauss'): {'score am': '0x1.fd1d4283ffb45p-1', 'am': '0x1.fd1d4283ffb45p-1', 'l_mean': '0x1.ffffbed4811fap-1', 'cs_mean': '0x1.fd1d8356ff7bep-1', 'pooled am': '0x1.fd5e7ced0f1e1p-1', 'score cov': '0x1.0b51cb7340df3p-10', 'score lw:a=100,b=200': '0x1.3a10062664d6fp-3'},
    (8, 'even', 8, 'naive'): {'score am': '0x1.ff448e717403ap-1', 'am': '0x1.ff448e717403ap-1', 'l_mean': '0x1.fffff6b506417p-1', 'cs_mean': '0x1.ff4497b9222c5p-1', 'pooled am': '0x1.ff519159bc6e1p-1', 'score cov': '0x1.308f0e638e82ep-13', 'score lw:a=100,b=200': '0x1.3c3638b1cfe3bp-3'},
    (8, 'even', 3, 'rect'): {'score am': '0x1.ed8f357088022p-1', 'am': '0x1.ed8f357088022p-1', 'l_mean': '0x1.ffff8cc1142a8p-1', 'cs_mean': '0x1.ed8fa4799b85ep-1', 'pooled am': '0x1.ed78b67525e24p-1', 'score cov': '0x1.5282a4b09e0f3p-8', 'score lw:a=100,b=200': '0x1.666a66ec8fab8p-3'},
    (8, 'even', 3, 'rect-s5'): {'score am': '0x1.ed8078c7c8f30p-1', 'am': '0x1.ed8078c7c8f30p-1', 'l_mean': '0x1.ffff904523011p-1', 'cs_mean': '0x1.ed80e439b2a71p-1', 'pooled am': '0x1.ed77f8e0167bap-1', 'score cov': '0x1.6eaa82a634977p-8', 'score lw:a=100,b=200': '0x1.4cad15b4111d6p-3'},
    (8, 'even', 3, 'gauss'): {'score am': '0x1.df6c4c3d4ee7dp-1', 'am': '0x1.df6c4c3d4ee7dp-1', 'l_mean': '0x1.fffd6d26a360dp-1', 'cs_mean': '0x1.df6eb5eb2b42dp-1', 'pooled am': '0x1.df73680e0436ep-1', 'score cov': '0x1.3f48cfdeffa89p-6', 'score lw:a=100,b=200': '0x1.5c6879f4a45eep-3'},
    (8, 'even', 3, 'naive'): {'score am': '0x1.ed8f357088022p-1', 'am': '0x1.ed8f357088022p-1', 'l_mean': '0x1.ffff8cc1142a8p-1', 'cs_mean': '0x1.ed8fa4799b85ep-1', 'pooled am': '0x1.ed78b67525e24p-1', 'score cov': '0x1.5282a4b09e0f3p-8', 'score lw:a=100,b=200': '0x1.666a66ec8fab8p-3'},
    (8, 'even', 5, 'rect'): {'score am': '0x1.fc91c07233e77p-1', 'am': '0x1.fc91c07233e77p-1', 'l_mean': '0x1.ffffd3bfdb22ep-1', 'cs_mean': '0x1.fc91ec6883726p-1', 'pooled am': '0x1.fc5a423807284p-1', 'score cov': '0x1.4d1e441a69c73p-11', 'score lw:a=100,b=200': '0x1.68432e4ba59adp-3'},
    (8, 'even', 5, 'rect-s5'): {'score am': '0x1.fcab76b71d6afp-1', 'am': '0x1.fcab76b71d6afp-1', 'l_mean': '0x1.ffffd6c447334p-1', 'cs_mean': '0x1.fcab9faf150e5p-1', 'pooled am': '0x1.fc68060d87bf5p-1', 'score cov': '0x1.2568d4ac5aa5bp-11', 'score lw:a=100,b=200': '0x1.3a6bdac55d4d1p-3'},
    (8, 'even', 5, 'gauss'): {'score am': '0x1.f65a418095fcbp-1', 'am': '0x1.f65a418095fcbp-1', 'l_mean': '0x1.ffff4ca93a56fp-1', 'cs_mean': '0x1.f65af17d0c086p-1', 'pooled am': '0x1.f596e4f2f983fp-1', 'score cov': '0x1.f88b115048796p-9', 'score lw:a=100,b=200': '0x1.6407436e464a1p-3'},
    (8, 'even', 5, 'naive'): {'score am': '0x1.fc91c07233e77p-1', 'am': '0x1.fc91c07233e77p-1', 'l_mean': '0x1.ffffd3bfdb22ep-1', 'cs_mean': '0x1.fc91ec6883726p-1', 'pooled am': '0x1.fc5a423807284p-1', 'score cov': '0x1.4d1e441a69c73p-11', 'score lw:a=100,b=200': '0x1.68432e4ba59adp-3'},
    (8, 'ragged', 2, 'rect'): {'score am': '0x1.d70a0fdef343ap-1', 'am': '0x1.d70a0fdef343ap-1', 'l_mean': '0x1.fffe426e466b1p-1', 'cs_mean': '0x1.d70baa9f578a8p-1', 'pooled am': '0x1.d75396f5f7d6fp-1', 'score cov': '0x1.9f3c912966be0p-7', 'score lw:a=100,b=200': '0x1.64ae603ff0366p-3'},
    (8, 'ragged', 2, 'rect-s5'): {'score am': '0x1.d768d57c03528p-1', 'am': '0x1.d768d57c03528p-1', 'l_mean': '0x1.fffe5d3510fefp-1', 'cs_mean': '0x1.d76a5785ad13ep-1', 'pooled am': '0x1.d7509eceb8c55p-1', 'score cov': '0x1.8e3208111895fp-7', 'score lw:a=100,b=200': '0x1.545f41c5c74a8p-3'},
    (8, 'ragged', 2, 'gauss'): {'score am': '0x1.cd63fe5a11cd7p-1', 'am': '0x1.cd63fe5a11cd7p-1', 'l_mean': '0x1.fff890dfae9abp-1', 'cs_mean': '0x1.cd6aa73b47b45p-1', 'pooled am': '0x1.ce12d08b41876p-1', 'score cov': '0x1.0b4ca4693d0f7p-5', 'score lw:a=100,b=200': '0x1.5d010e9355292p-3'},
    (8, 'ragged', 2, 'naive'): {'score am': '0x1.d70a0fdef343ap-1', 'am': '0x1.d70a0fdef343ap-1', 'l_mean': '0x1.fffe426e466b1p-1', 'cs_mean': '0x1.d70baa9f578a8p-1', 'pooled am': '0x1.d75396f5f7d6fp-1', 'score cov': '0x1.9f3c912966be0p-7', 'score lw:a=100,b=200': '0x1.64ae603ff0366p-3'},
    (8, 'ragged', 8, 'rect'): {'score am': '0x1.ff4bfca6755d8p-1', 'am': '0x1.ff4bfca6755d8p-1', 'l_mean': '0x1.ffffeeafad86ap-1', 'cs_mean': '0x1.ff4c0df088dc9p-1', 'pooled am': '0x1.ff4b0a58e8529p-1', 'score cov': '0x1.1ab795d71453cp-13', 'score lw:a=100,b=200': '0x1.4e96be54370b7p-3'},
    (8, 'ragged', 8, 'rect-s5'): {'score am': '0x1.ff532fb6d5f53p-1', 'am': '0x1.ff532fb6d5f53p-1', 'l_mean': '0x1.fffff726c003dp-1', 'cs_mean': '0x1.ff53388d29547p-1', 'pooled am': '0x1.ff4fe0cb6f32bp-1', 'score cov': '0x1.ae9559bb19141p-14', 'score lw:a=100,b=200': '0x1.c1ce4d1e2adc1p-4'},
    (8, 'ragged', 8, 'gauss'): {'score am': '0x1.fd954c394213cp-1', 'am': '0x1.fd954c394213cp-1', 'l_mean': '0x1.ffff9a3b7cc92p-1', 'cs_mean': '0x1.fd95b16fdb184p-1', 'pooled am': '0x1.fd60af98b9e6bp-1', 'score cov': '0x1.2a97009ac2dbdp-10', 'score lw:a=100,b=200': '0x1.4dcbe73e16debp-3'},
    (8, 'ragged', 8, 'naive'): {'score am': '0x1.ff4bfca6755d8p-1', 'am': '0x1.ff4bfca6755d8p-1', 'l_mean': '0x1.ffffeeafad86ap-1', 'cs_mean': '0x1.ff4c0df088dc9p-1', 'pooled am': '0x1.ff4b0a58e8529p-1', 'score cov': '0x1.1ab795d71453cp-13', 'score lw:a=100,b=200': '0x1.4e96be54370b7p-3'},
    (10, 'even', 2, 'rect'): {'score am': '0x1.d8b806b0066f9p-1', 'am': '0x1.d8b806b0066f9p-1', 'l_mean': '0x1.fffed492acb62p-1', 'cs_mean': '0x1.d8b91a9d07a9dp-1', 'pooled am': '0x1.d7a11c4ab3753p-1', 'score cov': '0x1.92afa5aa2b2e9p-7', 'score lw:a=100,b=200': '0x1.ba0e78c7dbbd7p-1'},
    (10, 'even', 2, 'rect-s5'): {'score am': '0x1.d8e290ea14d9bp-1', 'am': '0x1.d8e290ea14d9bp-1', 'l_mean': '0x1.fffeaa2ac8c30p-1', 'cs_mean': '0x1.d8e3cc2c24981p-1', 'pooled am': '0x1.d7b05cd655a9bp-1', 'score cov': '0x1.79c99c66df7f6p-7', 'score lw:a=100,b=200': '0x1.b41a402ed8693p-1'},
    (10, 'even', 2, 'gauss'): {'score am': '0x1.cf29fc33c66d6p-1', 'am': '0x1.cf29fc33c66d6p-1', 'l_mean': '0x1.fff960fe6de52p-1', 'cs_mean': '0x1.cf2ff5eb4b77fp-1', 'pooled am': '0x1.cda6c14131eb4p-1', 'score cov': '0x1.000200641ac93p-5', 'score lw:a=100,b=200': '0x1.b0cd513c8208fp-1'},
    (10, 'even', 2, 'naive'): {'score am': '0x1.d8b806b0066f9p-1', 'am': '0x1.d8b806b0066f9p-1', 'l_mean': '0x1.fffed492acb62p-1', 'cs_mean': '0x1.d8b91a9d07a9dp-1', 'pooled am': '0x1.d7a11c4ab3753p-1', 'score cov': '0x1.92afa5aa2b2e9p-7', 'score lw:a=100,b=200': '0x1.ba0e78c7dbbd7p-1'},
    (10, 'even', 4, 'rect'): {'score am': '0x1.f88f861638555p-1', 'am': '0x1.f88f861638555p-1', 'l_mean': '0x1.ffffc478903d6p-1', 'cs_mean': '0x1.f88fc0c0fcfc5p-1', 'pooled am': '0x1.f87adc6e01572p-1', 'score cov': '0x1.02c86cb7db244p-9', 'score lw:a=100,b=200': '0x1.e69b7e69411a3p-1'},
    (10, 'even', 4, 'rect-s5'): {'score am': '0x1.f88e44ecf1ae3p-1', 'am': '0x1.f88e44ecf1ae3p-1', 'l_mean': '0x1.ffffca7a7f866p-1', 'cs_mean': '0x1.f88e79b1cb92ap-1', 'pooled am': '0x1.f879223aa9fe7p-1', 'score cov': '0x1.169d1b08e491fp-9', 'score lw:a=100,b=200': '0x1.dc4465840a840p-1'},
    (10, 'even', 4, 'gauss'): {'score am': '0x1.ee2f7a0c9136dp-1', 'am': '0x1.ee2f7a0c9136dp-1', 'l_mean': '0x1.fffeb6ae638adp-1', 'cs_mean': '0x1.ee30b77bf03b7p-1', 'pooled am': '0x1.ee04d637044a0p-1', 'score cov': '0x1.45f6c78e74d62p-7', 'score lw:a=100,b=200': '0x1.dccce243aadc5p-1'},
    (10, 'even', 4, 'naive'): {'score am': '0x1.f88f861638555p-1', 'am': '0x1.f88f861638555p-1', 'l_mean': '0x1.ffffc478903d6p-1', 'cs_mean': '0x1.f88fc0c0fcfc5p-1', 'pooled am': '0x1.f87adc6e01572p-1', 'score cov': '0x1.02c86cb7db244p-9', 'score lw:a=100,b=200': '0x1.e69b7e69411a3p-1'},
    (10, 'even', 8, 'rect'): {'score am': '0x1.ff60fda8e1731p-1', 'am': '0x1.ff60fda8e1731p-1', 'l_mean': '0x1.fffff5b2a3ed7p-1', 'cs_mean': '0x1.ff6107f300db7p-1', 'pooled am': '0x1.ff721e85675a4p-1', 'score cov': '0x1.1ebcc64bd040bp-14', 'score lw:a=100,b=200': '0x1.ff60fda8e1731p-1'},
    (10, 'even', 8, 'rect-s5'): {'score am': '0x1.ff5df0bd92f6dp-1', 'am': '0x1.ff5df0bd92f6dp-1', 'l_mean': '0x1.fffff55ca40d3p-1', 'cs_mean': '0x1.ff5dfb5d5f714p-1', 'pooled am': '0x1.ff730508dd16ap-1', 'score cov': '0x1.74a301316c25dp-14', 'score lw:a=100,b=200': '0x1.ff5df0bd92f6dp-1'},
    (10, 'even', 8, 'gauss'): {'score am': '0x1.fdd922cf142ccp-1', 'am': '0x1.fdd922cf142ccp-1', 'l_mean': '0x1.ffffcdc4d3d34p-1', 'cs_mean': '0x1.fdd954da19d65p-1', 'pooled am': '0x1.fe1a5ece21a40p-1', 'score cov': '0x1.ca88bd19bf18bp-11', 'score lw:a=100,b=200': '0x1.fdd922cf142ccp-1'},
    (10, 'even', 8, 'naive'): {'score am': '0x1.ff60fda8e1731p-1', 'am': '0x1.ff60fda8e1731p-1', 'l_mean': '0x1.fffff5b2a3ed7p-1', 'cs_mean': '0x1.ff6107f300db7p-1', 'pooled am': '0x1.ff721e85675a4p-1', 'score cov': '0x1.1ebcc64bd040bp-14', 'score lw:a=100,b=200': '0x1.ff60fda8e1731p-1'},
    (10, 'even', 3, 'rect'): {'score am': '0x1.ee0f1d92c8078p-1', 'am': '0x1.ee0f1d92c8078p-1', 'l_mean': '0x1.ffff327a514eep-1', 'cs_mean': '0x1.ee0fe41c48005p-1', 'pooled am': '0x1.edb981fcfb200p-1', 'score cov': '0x1.5b7f5a7c2dff0p-8', 'score lw:a=100,b=200': '0x1.d531787c5b1d9p-1'},
    (10, 'even', 3, 'rect-s5'): {'score am': '0x1.ee495c26a1d3fp-1', 'am': '0x1.ee495c26a1d3fp-1', 'l_mean': '0x1.fffeb991e3fa5p-1', 'cs_mean': '0x1.ee4a97b3b6d6fp-1', 'pooled am': '0x1.edd00e878bcf6p-1', 'score cov': '0x1.46b057dc837e1p-8', 'score lw:a=100,b=200': '0x1.cb1adb1a9c623p-1'},
    (10, 'even', 3, 'gauss'): {'score am': '0x1.e07ac3404342bp-1', 'am': '0x1.e07ac3404342bp-1', 'l_mean': '0x1.fffcac41e6e56p-1', 'cs_mean': '0x1.e07de3b00c2f4p-1', 'pooled am': '0x1.e01fc0c44feb8p-1', 'score cov': '0x1.584c518474038p-6', 'score lw:a=100,b=200': '0x1.c824442d92677p-1'},
    (10, 'even', 3, 'naive'): {'score am': '0x1.ee0f1d92c8078p-1', 'am': '0x1.ee0f1d92c8078p-1', 'l_mean': '0x1.ffff327a514eep-1', 'cs_mean': '0x1.ee0fe41c48005p-1', 'pooled am': '0x1.edb981fcfb200p-1', 'score cov': '0x1.5b7f5a7c2dff0p-8', 'score lw:a=100,b=200': '0x1.d531787c5b1d9p-1'},
    (10, 'even', 5, 'rect'): {'score am': '0x1.fc6c735bad049p-1', 'am': '0x1.fc6c735bad049p-1', 'l_mean': '0x1.ffffdfcfbd0aep-1', 'cs_mean': '0x1.fc6c935241bd6p-1', 'pooled am': '0x1.fc63097dae65cp-1', 'score cov': '0x1.03c1197416c3dp-10', 'score lw:a=100,b=200': '0x1.f04f90273cef5p-1'},
    (10, 'even', 5, 'rect-s5'): {'score am': '0x1.fc633f383e8f9p-1', 'am': '0x1.fc633f383e8f9p-1', 'l_mean': '0x1.ffffdee1a711bp-1', 'cs_mean': '0x1.fc636019a1abdp-1', 'pooled am': '0x1.fc4fe64c71f27p-1', 'score cov': '0x1.e1666f305bf92p-11', 'score lw:a=100,b=200': '0x1.e14078a4e80adp-1'},
    (10, 'even', 5, 'gauss'): {'score am': '0x1.f606a491ed8f1p-1', 'am': '0x1.f606a491ed8f1p-1', 'l_mean': '0x1.ffff642ef73cdp-1', 'cs_mean': '0x1.f6073d5d20904p-1', 'pooled am': '0x1.f5e6a4772a2e4p-1', 'score cov': '0x1.352d30962fd67p-8', 'score lw:a=100,b=200': '0x1.ea2a7e1cb0fa8p-1'},
    (10, 'even', 5, 'naive'): {'score am': '0x1.fc6c735bad049p-1', 'am': '0x1.fc6c735bad049p-1', 'l_mean': '0x1.ffffdfcfbd0aep-1', 'cs_mean': '0x1.fc6c935241bd6p-1', 'pooled am': '0x1.fc63097dae65cp-1', 'score cov': '0x1.03c1197416c3dp-10', 'score lw:a=100,b=200': '0x1.f04f90273cef5p-1'},
    (10, 'ragged', 2, 'rect'): {'score am': '0x1.d7083f5f753f4p-1', 'am': '0x1.d7083f5f753f4p-1', 'l_mean': '0x1.fffe920c01d8ep-1', 'cs_mean': '0x1.d70990abc1cf0p-1', 'pooled am': '0x1.d75c206f286f4p-1', 'score cov': '0x1.bdfdbd6031dc0p-7', 'score lw:a=100,b=200': '0x1.b86aefc8e4f1ap-1'},
    (10, 'ragged', 2, 'rect-s5'): {'score am': '0x1.d6dae7e31fa80p-1', 'am': '0x1.d6dae7e31fa80p-1', 'l_mean': '0x1.fffe88c5932d3p-1', 'cs_mean': '0x1.d6dc421b1d3f9p-1', 'pooled am': '0x1.d73f2bb9099dcp-1', 'score cov': '0x1.af48ea8bba7cdp-7', 'score lw:a=100,b=200': '0x1.b17dd004bde09p-1'},
    (10, 'ragged', 2, 'gauss'): {'score am': '0x1.cd59b1e9fe11bp-1', 'am': '0x1.cd59b1e9fe11bp-1', 'l_mean': '0x1.fffa7d14b2bf1p-1', 'cs_mean': '0x1.cd5eab0f4575cp-1', 'pooled am': '0x1.cdd002a059ad9p-1', 'score cov': '0x1.0d7b6c4ecd676p-5', 'score lw:a=100,b=200': '0x1.af46afe29fa3fp-1'},
    (10, 'ragged', 2, 'naive'): {'score am': '0x1.d7083f5f753f4p-1', 'am': '0x1.d7083f5f753f4p-1', 'l_mean': '0x1.fffe920c01d8ep-1', 'cs_mean': '0x1.d70990abc1cf0p-1', 'pooled am': '0x1.d75c206f286f4p-1', 'score cov': '0x1.bdfdbd6031dc0p-7', 'score lw:a=100,b=200': '0x1.b86aefc8e4f1ap-1'},
    (10, 'ragged', 8, 'rect'): {'score am': '0x1.ff66a41d2f17ap-1', 'am': '0x1.ff66a41d2f17ap-1', 'l_mean': '0x1.ffffe9607da1bp-1', 'cs_mean': '0x1.ff66bab5fa4fbp-1', 'pooled am': '0x1.ff61b34b32244p-1', 'score cov': '0x1.4ea9472be2686p-13', 'score lw:a=100,b=200': '0x1.ff0918fac2581p-1'},
    (10, 'ragged', 8, 'rect-s5'): {'score am': '0x1.ff651f96d66f3p-1', 'am': '0x1.ff651f96d66f3p-1', 'l_mean': '0x1.ffffecc801319p-1', 'cs_mean': '0x1.ff6532c92de78p-1', 'pooled am': '0x1.ff67062f19eecp-1', 'score cov': '0x1.0eefff996158bp-13', 'score lw:a=100,b=200': '0x1.fd8851ade0910p-1'},
    (10, 'ragged', 8, 'gauss'): {'score am': '0x1.fe1266c20a811p-1', 'am': '0x1.fe1266c20a811p-1', 'l_mean': '0x1.ffffc96384fb4p-1', 'cs_mean': '0x1.fe129d24839efp-1', 'pooled am': '0x1.fdf407c687b2fp-1', 'score cov': '0x1.768d1e16924bbp-11', 'score lw:a=100,b=200': '0x1.fd8c8bac61d4ap-1'},
    (10, 'ragged', 8, 'naive'): {'score am': '0x1.ff66a41d2f17ap-1', 'am': '0x1.ff66a41d2f17ap-1', 'l_mean': '0x1.ffffe9607da1bp-1', 'cs_mean': '0x1.ff66bab5fa4fbp-1', 'pooled am': '0x1.ff61b34b32244p-1', 'score cov': '0x1.4ea9472be2686p-13', 'score lw:a=100,b=200': '0x1.ff0918fac2581p-1'},
}


@pytest.mark.parametrize("kind, route, rows", FRAME_CASES)
def test_frame_records_keep_their_bits(kind, route, rows):
    assert frame_bits(kind, route, rows) == FRAME_BITS[kind, route, rows]


@pytest.mark.parametrize("kind, route, rows", RUN_CASES)
def test_pooled_scores_keep_their_bits(kind, route, rows):
    assert run_bits(kind, route, rows) == RUN_BITS[kind, route, rows]


@pytest.mark.parametrize("depth, size, factor, window", SCALED_CASES)
def test_scaled_clips_keep_their_scores(depth, size, factor, window):
    got, want = scaled_bits(depth, size, factor, window), SCALED_BITS[depth, size, factor, window]
    if size == "even" and factor in (2, 4, 8):
        assert got == want
        return
    assert got.keys() == want.keys()
    for name, value in got.items():
        rel = 1e-9 if name == "score cov" else 1e-12
        assert float.fromhex(value) == pytest.approx(float.fromhex(want[name]), rel=rel, abs=0), name


if __name__ == "__main__":
    tables = (("FRAME_BITS", FRAME_CASES, frame_bits), ("RUN_BITS", RUN_CASES, run_bits), ("SCALED_BITS", SCALED_CASES, scaled_bits))
    for name, cases, bits in tables:
        print(f"{name} = {{")
        for case in cases:
            print(f"    {case!r}: {bits(*case)!r},")
        print("}\n")
