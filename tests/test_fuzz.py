"""Mutated media, manifest, CSV and config files, and malformed colour
frames, raise only typed errors.

Each example overwrites a few bytes of a valid file, most often in its
header, and sometimes truncates it; then it reads the file to the end. The
reader may succeed, or raise SsimkitError or OSError, and nothing else. The
CLI reads a mutated manifest, points CSV or fit CSV with exit code 0, 2 or
3. A config with one field of another JSON type loads or raises
ValidationError; a colour frame of any space, subsampling and channel dtypes
is rejected, or converts and scores, with SsimkitError as the only error.
Runs are derandomized, so every run draws the same cases.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit.cli import main
from ssimkit.color import (
    channelwise_cssim,
    cmssim,
    fixed_weight_cssim,
    hssim,
    luma_of,
    qssim,
    rgb_to_ycbcr_bt709,
    ycbcr_bt709_to_rgb,
)
from ssimkit.config import SsimConfig, WindowSpec
from ssimkit.errors import SsimkitError, ValidationError
from ssimkit.evaluation import load_manifest
from ssimkit.frames import ColorFrame, LumaPlane
from ssimkit.media import (
    StreamHeader,
    read_planar_raw,
    read_pnm,
    read_y4m,
    write_planar_raw,
    write_pnm,
    write_y4m,
)

W, H = 16, 12
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def frames(count=2):
    """Random 4:2:0 YCbCr frames of W x H."""
    rng = np.random.default_rng(9)
    shapes = ((H, W), (H // 2, W // 2), (H // 2, W // 2))
    return [ColorFrame(tuple(rng.integers(0, 256, s).astype(np.uint8) for s in shapes), "ycbcr-bt709", "420")
            for _ in range(count)]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid file of each kind, as bytes, plus the directory they sit in."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(10)
    write_y4m(root / "a.y4m", frames(), StreamHeader(W, H, (30, 1), "420"))
    write_planar_raw(root / "a.yuv", frames())
    write_pnm(root / "a.pgm", LumaPlane(rng.integers(0, 256, (H, W)).astype(np.uint8)))
    write_pnm(root / "a.ppm", ColorFrame(tuple(rng.integers(0, 256, (H, W)).astype(np.uint8) for _ in range(3))))
    rows = [f"{root / 'a.yuv'},{root / 'a.yuv'},{s},{W},{H},8,420" for s in (0.2, 0.5, 0.9)]
    (root / "a.csv").write_text("ref_path,dist_path,subjective_score,width,height,bit_depth,chroma\n"
                                + "\n".join(rows) + "\n")
    (root / "a.points").write_text("label,cost,perf\na,1.5,0.90\nb,2.25,0.95\nc,3,0.94\nd,0.5,0.4\n")
    (root / "a.fit").write_text("objective,subjective\n" + "".join(
        f"{x:.3f},{0.95 - 0.8 * x**1.5:.3f}\n" for x in np.linspace(0.1, 0.9, 8)))
    kinds = ("y4m", "yuv", "pgm", "ppm", "csv", "points", "fit")
    return root, {name: (root / f"a.{name}").read_bytes() for name in kinds}


READERS = {
    "y4m": lambda path: list(read_y4m(path)),
    "yuv": lambda path: list(read_planar_raw(path, W, H, 8, "420")),
    "pgm": read_pnm,
    "ppm": read_pnm,
    "csv": load_manifest,
}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """A few bytes overwritten, half of them within the first 64, then
    possibly a truncation."""
    out = bytearray(data)
    anywhere = st.integers(0, len(out) - 1)
    header = st.integers(0, min(63, len(out) - 1))
    for pos, value in draw(st.lists(st.tuples(st.one_of(header, anywhere), st.integers(0, 255)),
                                    min_size=1, max_size=4)):
        out[pos] = value
    if draw(st.booleans()):
        del out[draw(st.integers(0, len(out))):]
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_readers_raise_only_typed_errors(valid, kind, data):
    root, originals = valid
    path = root / f"fuzzed.{kind}"
    path.write_bytes(data.draw(mutated(originals[kind])))
    try:
        READERS[kind](path)
    except (SsimkitError, OSError):
        pass


@FUZZ
@given(data=st.data())
def test_benchmark_exits_0_2_or_3_on_mutated_manifests(valid, data):
    root, originals = valid
    path = root / "fuzzed-manifest.csv"
    path.write_bytes(data.draw(mutated(originals["csv"])))
    result = CliRunner().invoke(main, ["benchmark", str(path), "--spec", "x=preset=default;window=rect:3"])
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command, kind", [("pareto", "points"), ("fit-5pl", "fit")])
@FUZZ
@given(data=st.data())
def test_csv_commands_exit_0_2_or_3_on_mutated_input(valid, command, kind, data):
    root, originals = valid
    path = root / f"fuzzed-{kind}.csv"
    path.write_bytes(data.draw(mutated(originals[kind])))
    result = CliRunner().invoke(main, [command, str(path)])
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


#: A value of each JSON type: int, float, string, null, list, object, bool.
JSON_VALUES = st.one_of(
    st.integers(), st.floats(), st.text(max_size=8), st.none(),
    st.lists(st.integers(-5, 20), max_size=6), st.dictionaries(st.text(max_size=6), st.integers(), max_size=2),
    st.booleans(),
)


@FUZZ
@given(data=st.data())
def test_configs_with_a_field_of_another_type_load_or_raise_validation_errors(data):
    doc = json.loads(SsimConfig().to_json())
    fields = [(doc, key) for key in doc] + [(part, key) for part in doc.values() if isinstance(part, dict) for key in part]
    owner, key = data.draw(st.sampled_from(fields))
    owner[key] = data.draw(JSON_VALUES)
    try:
        SsimConfig.from_json(json.dumps(doc))
    except ValidationError:
        pass


#: Channel dtypes of colour frames, integer and float ones and others.
CHANNEL_DTYPES = ("uint8", "uint16", "int16", "int64", "float32", "float64", "bool", "complex128", "object", "U4")
COLOUR_SCORERS = (channelwise_cssim, fixed_weight_cssim, qssim, cmssim, hssim)


@FUZZ
@given(data=st.data())
def test_colour_frames_convert_and_score_or_raise_typed_errors(data):
    space = data.draw(st.sampled_from(["rgb", "ycbcr-bt709"]))
    subsampling = data.draw(st.sampled_from(["444", "420"]))
    dtypes = data.draw(st.lists(st.sampled_from(CHANNEL_DTYPES), min_size=3, max_size=3))
    lo, hi = data.draw(st.sampled_from([(0, 256), (-40, 300), (0, 1024)]))
    bit_depth = data.draw(st.sampled_from([8, 10, 17]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    chroma = (H // 2, W // 2) if subsampling == "420" else (H, W)
    shapes = ((H, W), chroma, chroma)

    def frame():
        return ColorFrame(tuple(rng.integers(lo, hi, s).astype(d) for s, d in zip(shapes, dtypes)),
                          space, subsampling, bit_depth)

    try:
        ref, dist = frame(), frame()
    except SsimkitError:
        return
    config = SsimConfig(window=WindowSpec("rect", k=3))
    calls = [luma_of, rgb_to_ycbcr_bt709, ycbcr_bt709_to_rgb]
    calls += [lambda ref, scorer=scorer: scorer(ref, dist, config) for scorer in COLOUR_SCORERS]
    for call in calls:
        try:
            call(ref)
        except SsimkitError:
            pass
