import json

import numpy as np
import pytest

from ssimkit.errors import (
    BadHeader,
    BadMagic,
    SizeNotMultiple,
    TruncatedFrame,
    UnsupportedChroma,
    UnsupportedMaxval,
    ValidationError,
)
from ssimkit.frames import ColorFrame, LumaPlane
from ssimkit.media import (
    StreamHeader,
    format_float,
    read_planar_raw,
    read_pnm,
    read_y4m,
    write_planar_raw,
    write_pnm,
    write_report,
    write_y4m,
)

from conftest import random_plane


def make_ycbcr_frame(rng, width=4, height=4, chroma="420"):
    cw, ch = (-(-width // 2), -(-height // 2)) if chroma == "420" else (width, height)
    return ColorFrame(
        (
            rng.integers(0, 256, (height, width)).astype(np.uint8),
            rng.integers(0, 256, (ch, cw)).astype(np.uint8),
            rng.integers(0, 256, (ch, cw)).astype(np.uint8),
        ),
        "ycbcr-bt709",
        chroma,
    )


class TestY4m:
    def test_header_grammar(self, tmp_path, rng):
        path = tmp_path / "tiny.y4m"
        payload = bytes(range(16)) + bytes(4) + bytes(4)
        path.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C420\nFRAME\n" + payload)
        stream = read_y4m(path)
        assert (stream.header.width, stream.header.height) == (4, 4)
        assert stream.header.frame_rate == (30, 1)
        assert stream.header.chroma == "420"

    def test_three_frames_with_subsampled_chroma(self, tmp_path, rng):
        frames = [make_ycbcr_frame(rng) for _ in range(3)]
        path = tmp_path / "three.y4m"
        write_y4m(path, frames, StreamHeader(4, 4, (30, 1), "420", 8))
        got = list(read_y4m(path))
        assert len(got) == 3
        for frame in got:
            assert frame.channels[1].shape == (2, 2)

    def test_truncated_frame(self, tmp_path):
        path = tmp_path / "short.y4m"
        path.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C420\nFRAME\n" + bytes(23))
        with pytest.raises(TruncatedFrame):
            list(read_y4m(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"NOTY4M W4 H4\nFRAME\n")
        with pytest.raises(BadMagic):
            read_y4m(path)

    def test_unsupported_chroma(self, tmp_path):
        path = tmp_path / "c422.y4m"
        path.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C422\nFRAME\n" + bytes(32))
        with pytest.raises(UnsupportedChroma):
            read_y4m(path)

    def test_missing_dimensions(self, tmp_path):
        path = tmp_path / "nodims.y4m"
        path.write_bytes(b"YUV4MPEG2 F30:1 C420\n")
        with pytest.raises(BadHeader):
            read_y4m(path)

    @pytest.mark.parametrize("header", [
        b"YUV4MPEG2 Wabc H4", b"YUV4MPEG2 W4 H4x", b"YUV4MPEG2 W4 H4 Fx:1", b"YUV4MPEG2 W4 H4 F30:1.5",
    ])
    def test_non_numeric_header_numbers(self, tmp_path, header):
        path = tmp_path / "words.y4m"
        path.write_bytes(header + b"\nFRAME\n" + bytes(24))
        with pytest.raises(BadHeader):
            read_y4m(path)

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        frames = [make_ycbcr_frame(rng, 6, 4, "444") for _ in range(2)]
        path = tmp_path / "rt.y4m"
        write_y4m(path, frames, StreamHeader(6, 4, (25, 1), "444", 8))
        back = list(read_y4m(path))
        for a, b in zip(frames, back):
            for ca, cb in zip(a.channels, b.channels):
                assert np.array_equal(ca, cb)

    def test_mono_stream(self, tmp_path, rng):
        planes = [random_plane(rng, 4, 4) for _ in range(2)]
        path = tmp_path / "mono.y4m"
        write_y4m(path, planes, StreamHeader(4, 4, (30, 1), "mono", 8))
        back = list(read_y4m(path))
        assert all(isinstance(p, LumaPlane) for p in back)
        assert np.array_equal(back[0].samples, planes[0].samples)

    def test_iteration_restarts_from_first_frame(self, tmp_path, rng):
        frames = [make_ycbcr_frame(rng) for _ in range(2)]
        path = tmp_path / "again.y4m"
        write_y4m(path, frames, StreamHeader(4, 4, (30, 1), "420", 8))
        stream = read_y4m(path)
        first = [f.channels[0].copy() for f in stream]
        second = [f.channels[0].copy() for f in stream]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestRaw:
    def test_frame_size_420(self, tmp_path, rng):
        frames = [make_ycbcr_frame(rng) for _ in range(3)]
        path = tmp_path / "a.yuv"
        write_planar_raw(path, frames)
        assert path.stat().st_size == 3 * 24  # 16 + 2*4 bytes per frame
        got = list(read_planar_raw(path, 4, 4, 8, "420"))
        assert len(got) == 3

    def test_frame_size_10bit_444(self, tmp_path, rng):
        frame = ColorFrame(
            tuple(rng.integers(0, 1024, (4, 4)).astype(np.uint16) for _ in range(3)),
            "ycbcr-bt709",
            "444",
            10,
        )
        path = tmp_path / "b.yuv"
        write_planar_raw(path, [frame], bit_depth=10)
        assert path.stat().st_size == 96  # 3 * 16 * 2 bytes
        back = list(read_planar_raw(path, 4, 4, 10, "444"))[0]
        for a, b in zip(frame.channels, back.channels):
            assert np.array_equal(a, b)

    def test_size_not_multiple(self, tmp_path):
        path = tmp_path / "c.yuv"
        path.write_bytes(bytes(25))
        with pytest.raises(SizeNotMultiple):
            read_planar_raw(path, 4, 4, 8, "420")

    def test_luma_only(self, tmp_path, rng):
        planes = [random_plane(rng, 4, 4) for _ in range(2)]
        path = tmp_path / "d.yuv"
        write_planar_raw(path, planes)
        got = list(read_planar_raw(path, 4, 4, 8, "400"))
        assert all(isinstance(p, LumaPlane) for p in got)
        assert np.array_equal(got[1].samples, planes[1].samples)

    def test_little_endian_high_bit_depth(self, tmp_path):
        path = tmp_path / "e.yuv"
        path.write_bytes((512).to_bytes(2, "little"))
        plane = list(read_planar_raw(path, 1, 1, 10, "400"))[0]
        assert plane.samples[0, 0] == 512


class TestPnm:
    def test_p5_gray(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        plane = read_pnm(path)
        assert isinstance(plane, LumaPlane)
        assert np.array_equal(plane.samples, [[1, 2], [3, 4]])

    def test_p6_rgb(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
        frame = read_pnm(path)
        assert isinstance(frame, ColorFrame)
        assert frame.space == "rgb"
        assert [c[0, 0] for c in frame.channels] == [10, 20, 30]

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([9, 8]))
        assert np.array_equal(read_pnm(path).samples, [[9, 8]])

    def test_unsupported_subtype(self, tmp_path):
        path = tmp_path / "bit.pbm"
        path.write_bytes(b"P4\n8 1\n\x00")
        with pytest.raises(BadHeader):
            read_pnm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n0\n\x00")
        with pytest.raises(UnsupportedMaxval):
            read_pnm(path)
        path.write_bytes(b"P5\n1 1\n70000\n\x00\x00")
        with pytest.raises(UnsupportedMaxval):
            read_pnm(path)

    @pytest.mark.parametrize("content", [
        b"P5\n4 4\n255\nabc", b"P5\n2 2\n255", b"P6\n1 1\n255\n\x01\x02", b"P5\n1 1\n65535\n\x01",
    ])
    def test_truncated_payload(self, tmp_path, content):
        path = tmp_path / "short.pgm"
        path.write_bytes(content)
        with pytest.raises(TruncatedFrame):
            read_pnm(path)

    def test_sixteen_bit_big_endian(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + (513).to_bytes(2, "big"))
        plane = read_pnm(path)
        assert plane.bit_depth == 16
        assert plane.samples[0, 0] == 513

    def test_roundtrip(self, tmp_path, rng):
        plane = random_plane(rng, 5, 7)
        path = tmp_path / "rt.pgm"
        write_pnm(path, plane)
        assert np.array_equal(read_pnm(path).samples, plane.samples)


class TestReportWriter:
    def test_one_record_per_line(self):
        records = [{"frame": 0, "score": 0.5}, {"frame": 1, "score": 0.75}]
        jsonl = write_report(records, "jsonl", ("frame", "score")).decode()
        assert len(jsonl.strip().split("\n")) == 2
        csv = write_report(records, "csv", ("frame", "score")).decode()
        assert len(csv.strip().split("\n")) == 3  # header + 2 rows

    def test_empty_csv_is_header_only(self):
        out = write_report([], "csv", ("frame", "score")).decode()
        assert out == "frame,score\n"

    def test_float_formatting_contract(self):
        out = write_report([{"score": 1.0}], "csv", ("score",)).decode()
        assert out.splitlines()[1] == "1.00000000"
        value = float(out.splitlines()[1])
        assert abs(value - 1.0) < 1e-9

    def test_nine_significant_digits(self):
        assert format_float(0.123456789123) == "0.123456789"
        assert format_float(1.0) == "1.00000000"
        for x in (0.9987654321, 123456.789, 1e-12, 3.5):
            assert abs(float(format_float(x)) - x) <= 1e-9 * max(1.0, abs(x))

    def test_jsonl_lines_parse_with_ordered_fields(self):
        out = write_report(
            [{"frame": 3, "score": 0.25, "note": None}], "jsonl", ("frame", "score", "note")
        ).decode()
        obj = json.loads(out)
        assert list(obj.keys()) == ["frame", "score", "note"]
        assert obj == {"frame": 3, "score": 0.25, "note": None}

    def test_deterministic_output(self):
        records = [{"a": 0.1, "b": 2}] * 3
        first = write_report(records, "csv", ("a", "b"))
        second = write_report(records, "csv", ("a", "b"))
        assert first == second

    def test_schema_enforced(self):
        with pytest.raises(ValidationError):
            write_report([{"frame": 0}, {"other": 1}], "csv", ("frame",))
        with pytest.raises(ValidationError):
            write_report([], "csv")
