"""Pinned bits of the luma scoring routes.

``score_frame_pair``'s four record fields and ``run_score``'s pooled score
are pinned as ``float.hex`` strings, for the spatial poolers that pool as
the bands are formed (am, lw, mink, dw) and one that keeps a whole quality
map (cov), on 8-bit, 10-bit and float64 planes, on the 2-D route, a kt=3
volume and 3-level product multiscale, at grid heights on either side of a
band edge (BAND_ROWS is 64). Any change in how a route rounds shows here.

Run this file as a script to print the tables for the current code.
"""

import os
import tempfile

import numpy as np
import pytest

from ssimkit.config import MultiscaleSpec, SsimConfig
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


FRAME_CASES = [(kind, route, rows) for kind in KINDS for route in ROUTES for rows in GRID_ROWS]
RUN_CASES = [(kind, route, 65) for kind in ("u8", "u10") for route in ROUTES]

FRAME_BITS = {
    ('u8', '2d', 63): {'score am': '0x1.c23139f50c4bbp-1', 'am': '0x1.c23139f50c4bbp-1', 'l_mean': '0x1.fff9cb73ecf8fp-1', 'cs_mean': '0x1.c236b195c843cp-1', 'score lw:a=100,b=200': '0x1.57a6aea6c4fbbp-3', 'score lw:a=100': '0x1.20c3f39b9f482p-1', 'score mink:p=3': '0x1.eccfc329997f2p-10', 'score dw:p=2': '0x1.bf658cd72523dp-1', 'score cov': '0x1.507a8b97b8871p-6'},
    ('u8', '2d', 64): {'score am': '0x1.c2b3dca560b26p-1', 'am': '0x1.c2b3dca560b26p-1', 'l_mean': '0x1.fff99cb61741dp-1', 'cs_mean': '0x1.c2b980e3898ecp-1', 'score lw:a=100,b=200': '0x1.5b8fbf48480edp-3', 'score lw:a=100': '0x1.242df529a36f5p-1', 'score mink:p=3': '0x1.e33135ad58cacp-10', 'score dw:p=2': '0x1.bfb9a91b0ec1fp-1', 'score cov': '0x1.5bfebd6a92fdap-6'},
    ('u8', '2d', 65): {'score am': '0x1.c36528e6ce5f5p-1', 'am': '0x1.c36528e6ce5f5p-1', 'l_mean': '0x1.fffb1e4d3d6eap-1', 'cs_mean': '0x1.c3697637375c5p-1', 'score lw:a=100,b=200': '0x1.5ae90bab5e186p-3', 'score lw:a=100': '0x1.284a8ea2e17e9p-1', 'score mink:p=3': '0x1.cb1ede44b645ap-10', 'score dw:p=2': '0x1.c1266c63cd51fp-1', 'score cov': '0x1.299b1f45591dfp-6'},
    ('u8', '2d', 129): {'score am': '0x1.c2efd2e9fcb0ap-1', 'am': '0x1.c2efd2e9fcb0ap-1', 'l_mean': '0x1.fff88d8351fe1p-1', 'cs_mean': '0x1.c2f664e77ab49p-1', 'score lw:a=100,b=200': '0x1.5a92b040abe04p-3', 'score lw:a=100': '0x1.2652eb595e8d6p-1', 'score mink:p=3': '0x1.d4f3cb36228f4p-10', 'score dw:p=2': '0x1.c0be03402df70p-1', 'score cov': '0x1.293c1c034d3ddp-6'},
    ('u8', 'kt3', 63): {'score am': '0x1.c3648e25e4e83p-1', 'am': '0x1.c3648e25e4e83p-1', 'l_mean': '0x1.fffe3a73a2448p-1', 'cs_mean': '0x1.c3661da28d668p-1', 'score lw:a=100,b=200': '0x1.5a53bf6019453p-3', 'score lw:a=100': '0x1.246cb6efecefap-1', 'score mink:p=3': '0x1.ba29656c6a808p-10', 'score dw:p=2': '0x1.c2b626887e8b6p-1', 'score cov': '0x1.492330cf2c6f2p-7'},
    ('u8', 'kt3', 64): {'score am': '0x1.c35b4140927b9p-1', 'am': '0x1.c35b4140927b9p-1', 'l_mean': '0x1.fffdc6f404d73p-1', 'cs_mean': '0x1.c35d382e9f0fep-1', 'score lw:a=100,b=200': '0x1.5a8a41344c2d0p-3', 'score lw:a=100': '0x1.2524b8cec0d5fp-1', 'score mink:p=3': '0x1.bdf99e4fe2028p-10', 'score dw:p=2': '0x1.c266191311175p-1', 'score cov': '0x1.879b3d89721acp-7'},
    ('u8', 'kt3', 65): {'score am': '0x1.c2db453e3a244p-1', 'am': '0x1.c2db453e3a244p-1', 'l_mean': '0x1.fffdcf95b0629p-1', 'cs_mean': '0x1.c2dd337de7488p-1', 'score lw:a=100,b=200': '0x1.58ef876bad5c0p-3', 'score lw:a=100': '0x1.2589f40ea8e0ap-1', 'score mink:p=3': '0x1.c6352bd3b1fb4p-10', 'score dw:p=2': '0x1.c226a64d73b7cp-1', 'score cov': '0x1.511030a6ac46ap-7'},
    ('u8', 'kt3', 129): {'score am': '0x1.c28fb428efe7cp-1', 'am': '0x1.c28fb428efe7cp-1', 'l_mean': '0x1.fffd97250e145p-1', 'cs_mean': '0x1.c291d3d28d1e5p-1', 'score lw:a=100,b=200': '0x1.599187ff783c0p-3', 'score lw:a=100': '0x1.2510fa1eaed69p-1', 'score mink:p=3': '0x1.cdd672091eddap-10', 'score dw:p=2': '0x1.c1c30f9634f5cp-1', 'score cov': '0x1.68a3843ab1ed4p-7'},
    ('u8', 'ms3', 63): {'score am': '0x1.e6476a0a83656p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u8', 'ms3', 64): {'score am': '0x1.e62295ac2a988p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u8', 'ms3', 65): {'score am': '0x1.e68bc23114babp-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u8', 'ms3', 129): {'score am': '0x1.e614b0adba647p-1', 'am': None, 'l_mean': None, 'cs_mean': None},
    ('u10', '2d', 63): {'score am': '0x1.c2ab4c6b2d82ep-1', 'am': '0x1.c2ab4c6b2d82ep-1', 'l_mean': '0x1.fffae9890addcp-1', 'cs_mean': '0x1.c2afc55c75308p-1', 'score lw:a=100,b=200': '0x1.9fb50ca844f89p-1', 'score lw:a=100': '0x1.c2ab4c6b2d82ep-1', 'score mink:p=3': '0x1.da213bff5a501p-10', 'score dw:p=2': '0x1.c08d058eb7bb5p-1', 'score cov': '0x1.23f5ec5d42c17p-6'},
    ('u10', '2d', 64): {'score am': '0x1.c1613125f4167p-1', 'am': '0x1.c1613125f4167p-1', 'l_mean': '0x1.fff8a736c3563p-1', 'cs_mean': '0x1.c167a40545fdep-1', 'score lw:a=100,b=200': '0x1.9fb970a6f3926p-1', 'score lw:a=100': '0x1.c1613125f4167p-1', 'score mink:p=3': '0x1.ff24ffa2ecf1bp-10', 'score dw:p=2': '0x1.bea9e72368cd9p-1', 'score cov': '0x1.4e940d7840b2ap-6'},
    ('u10', '2d', 65): {'score am': '0x1.c221f9c6c24d2p-1', 'am': '0x1.c221f9c6c24d2p-1', 'l_mean': '0x1.fff8c0348cb41p-1', 'cs_mean': '0x1.c2285351885cbp-1', 'score lw:a=100,b=200': '0x1.9f5290c02b2acp-1', 'score lw:a=100': '0x1.c221f9c6c24d2p-1', 'score mink:p=3': '0x1.e822e74e95d6fp-10', 'score dw:p=2': '0x1.bfdf857838d59p-1', 'score cov': '0x1.301a44138db83p-6'},
    ('u10', '2d', 129): {'score am': '0x1.c18c776675893p-1', 'am': '0x1.c18c776675893p-1', 'l_mean': '0x1.fff9fe5cebfcap-1', 'cs_mean': '0x1.c191bf53c7256p-1', 'score lw:a=100,b=200': '0x1.9f09e519a986ep-1', 'score lw:a=100': '0x1.c18c776675893p-1', 'score mink:p=3': '0x1.f75e33e942a24p-10', 'score dw:p=2': '0x1.bf27f2fe4b2e9p-1', 'score cov': '0x1.3a4b1744c89d1p-6'},
    ('u10', 'kt3', 63): {'score am': '0x1.c2726ab274fb4p-1', 'am': '0x1.c2726ab274fb4p-1', 'l_mean': '0x1.fffe1dff30a4cp-1', 'cs_mean': '0x1.c27411caeaab6p-1', 'score lw:a=100,b=200': '0x1.9f2e0d56dd896p-1', 'score lw:a=100': '0x1.c2726ab274fb4p-1', 'score mink:p=3': '0x1.d0e667c54de82p-10', 'score dw:p=2': '0x1.c19a38d5b83ebp-1', 'score cov': '0x1.7275203367b32p-7'},
    ('u10', 'kt3', 64): {'score am': '0x1.c251f8201d0f7p-1', 'am': '0x1.c251f8201d0f7p-1', 'l_mean': '0x1.fffda248f87eap-1', 'cs_mean': '0x1.c2540cd035f4ep-1', 'score lw:a=100,b=200': '0x1.a09685efc8c71p-1', 'score lw:a=100': '0x1.c251f8201d0f7p-1', 'score mink:p=3': '0x1.d2863a2fd0fdfp-10', 'score dw:p=2': '0x1.c196035f24a39p-1', 'score cov': '0x1.5a2f64c1f0f10p-7'},
    ('u10', 'kt3', 65): {'score am': '0x1.c366cd2ee9502p-1', 'am': '0x1.c366cd2ee9502p-1', 'l_mean': '0x1.fffd91ff5b6c0p-1', 'cs_mean': '0x1.c368f18d3e904p-1', 'score lw:a=100,b=200': '0x1.a09b426225172p-1', 'score lw:a=100': '0x1.c366cd2ee9502p-1', 'score mink:p=3': '0x1.bc59ac103412ep-10', 'score dw:p=2': '0x1.c280bd0e7ec5bp-1', 'score cov': '0x1.7b5b590150f30p-7'},
    ('u10', 'kt3', 129): {'score am': '0x1.c238525b6048dp-1', 'am': '0x1.c238525b6048dp-1', 'l_mean': '0x1.fffd00a2d6a91p-1', 'cs_mean': '0x1.c23af5849d890p-1', 'score lw:a=100,b=200': '0x1.9fd4391b59c18p-1', 'score lw:a=100': '0x1.c238525b6048dp-1', 'score mink:p=3': '0x1.d575e436df2eep-10', 'score dw:p=2': '0x1.c16d4758b0f4cp-1', 'score cov': '0x1.68ae879588556p-7'},
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
    ('u8', '2d', 65): {'am': '0x1.c2bb4b564e150p-1', 'lw:a=100,b=200': '0x1.58e1c79c2c6bbp-3', 'lw:a=100': '0x1.254c3ba261708p-1', 'mink:p=3': '0x1.da9262c5922edp-10', 'dw:p=2': '0x1.c074783627295p-1', 'cov': '0x1.2e46e0129e05cp-6'},
    ('u8', 'kt3', 65): {'am': '0x1.c27cc7d78df73p-1', 'lw:a=100,b=200': '0x1.57ed27066a1e4p-3', 'lw:a=100': '0x1.2487ecc0c8900p-1', 'mink:p=3': '0x1.d57764bef1048p-10', 'dw:p=2': '0x1.c12a5f9b659b0p-1', 'cov': '0x1.c4cbcc8cb13e0p-7'},
    ('u8', 'ms3', 65): {'am': '0x1.e64eca2ab3b6cp-1'},
    ('u10', '2d', 65): {'am': '0x1.c32dcfb8b6388p-1', 'lw:a=100,b=200': '0x1.a05be1b6fb475p-1', 'lw:a=100': '0x1.c32dcfb8b6388p-1', 'mink:p=3': '0x1.d2928f7138cf3p-10', 'dw:p=2': '0x1.c0b96a1eb99d3p-1', 'cov': '0x1.39591137d2133p-6'},
    ('u10', 'kt3', 65): {'am': '0x1.c398002962d8dp-1', 'lw:a=100,b=200': '0x1.a0b97efec6b3bp-1', 'lw:a=100': '0x1.c398002962d8dp-1', 'mink:p=3': '0x1.c0620f7a5af6bp-10', 'dw:p=2': '0x1.c1f190fba44c9p-1', 'cov': '0x1.f2f5a97413463p-7'},
    ('u10', 'ms3', 65): {'am': '0x1.e6304445e66f4p-1'},
}


@pytest.mark.parametrize("kind, route, rows", FRAME_CASES)
def test_frame_records_keep_their_bits(kind, route, rows):
    assert frame_bits(kind, route, rows) == FRAME_BITS[kind, route, rows]


@pytest.mark.parametrize("kind, route, rows", RUN_CASES)
def test_pooled_scores_keep_their_bits(kind, route, rows):
    assert run_bits(kind, route, rows) == RUN_BITS[kind, route, rows]


if __name__ == "__main__":
    for name, cases, bits in (("FRAME_BITS", FRAME_CASES, frame_bits), ("RUN_BITS", RUN_CASES, run_bits)):
        print(f"{name} = {{")
        for case in cases:
            print(f"    {case!r}: {bits(*case)!r},")
        print("}\n")
