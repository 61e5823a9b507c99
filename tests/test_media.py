import json
import mmap
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssimkit.adaptation import box_downsample
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
    _pnm_header_fields,
)

from helpers import random_plane


def pnm_fields(header: bytes):
    return _pnm_header_fields(np.frombuffer(header, dtype=np.uint8), "f")


#: Whitespace and comments that may sit between PNM header fields; a
#: comment runs to the end of its line, and here always has one.
PNM_GAPS = st.lists(
    st.one_of(
        st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x0b", b"\x0c"]),
        st.binary(max_size=12).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n"),
    ),
    min_size=1,
    max_size=4,
).map(b"".join)


@st.composite
def pnm_headers(draw):
    """A P5/P6 header with random fields and gaps (sometimes none between
    the magic and the width), the fields, and the payload offset."""
    kind = draw(st.sampled_from(["P5", "P6"]))
    fields = [draw(st.integers(1, 5000)), draw(st.integers(1, 5000)), draw(st.integers(0, 70000))]
    head = kind.encode()
    for i, value in enumerate(fields):
        glued = i == 0 and draw(st.booleans())
        head += (b"" if glued else draw(PNM_GAPS)) + b"%d" % value
    head += draw(st.sampled_from([b" ", b"\t", b"\r", b"\n"]))  # the one byte before the payload
    return head, (kind, *fields), len(head)


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

    @pytest.mark.parametrize("line", ["stream", "frame"])
    def test_lines_of_512_characters_read_and_longer_ones_are_rejected(self, tmp_path, line):
        payload = bytes(24)
        for length in (512, 513):
            head, marker = b" W4 H4 F30:1 C420", b"FRAME"
            if line == "stream":
                head += b" X" + b"x" * (length - len(head) - 2)
            else:
                marker += b" X" + b"x" * (length - len(marker) - 2)
            path = tmp_path / f"{line}{length}.y4m"
            path.write_bytes(b"YUV4MPEG2" + head + b"\n" + marker + b"\n" + payload)
            if length == 512:
                assert [f.channels[0].shape for f in read_y4m(path)] == [(4, 4)]
            else:
                with pytest.raises(BadHeader, match="unterminated header line"):
                    list(read_y4m(path))

    def test_truncated_frame(self, tmp_path):
        path = tmp_path / "short.y4m"
        path.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C420\nFRAME\n" + bytes(23))
        with pytest.raises(TruncatedFrame):
            list(read_y4m(path))

    def test_high_bit_depth_write_is_rejected(self, tmp_path, rng):
        plane = random_plane(rng, 4, 4, bit_depth=10)
        with pytest.raises(ValidationError, match="8-bit"):
            write_y4m(tmp_path / "deep.y4m", [plane], StreamHeader(4, 4, (30, 1), "mono", 10))

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

    def test_out_of_range_sample_names_file_and_frame(self, tmp_path):
        path = tmp_path / "f.yuv"
        path.write_bytes(np.array([512, 1023, 2000, 7], dtype="<u2").tobytes())  # 1x2 frames, 10-bit
        with pytest.raises(ValidationError, match=f"{path}: frame 1: samples outside"):
            list(read_planar_raw(path, 2, 1, 10, "400"))

    @pytest.mark.parametrize("bit_depth", [7, 20])
    def test_bit_depth_outside_8_to_16_is_rejected_at_open(self, tmp_path, bit_depth):
        path = tmp_path / "g.yuv"
        path.write_bytes(bytes(32))  # whole frames at 1 or 2 bytes per sample
        with pytest.raises(ValidationError, match="bit depth"):
            read_planar_raw(path, 4, 4, bit_depth, "mono")

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

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(pnm_headers(), st.binary(max_size=8))
    def test_header_fields_and_payload_offset(self, header, payload):
        head, fields, offset = header
        assert pnm_fields(head + payload) == (fields, offset)

    def test_every_prefix_short_of_maxval_is_truncated(self):
        head = b"P6#c 9\n12\t# x 3 4\r\n 34 \x0b# m\n255\n"
        for end in range(2, head.index(b"255") + 1):
            with pytest.raises(BadHeader, match="truncated PNM header$"):
                pnm_fields(head[:end])

    @pytest.mark.parametrize("byte", [b"x", b"-", b"+", b"\xff", b"\x00"])
    def test_a_stray_byte_before_maxval_is_unexpected(self, byte):
        head = b"P5 12\t34\n255\n"
        for at in range(2, head.index(b"255") + 1):
            with pytest.raises(BadHeader, match=re.escape(f"unexpected byte {byte!r} in PNM header")):
                pnm_fields(head[:at] + byte + head[at:])

    @pytest.mark.parametrize("head", [b"P5 12 345", b"P5 1234\n", b"P5123 45"])
    def test_a_digit_run_is_never_split_into_two_fields(self, head):
        with pytest.raises(BadHeader, match="truncated PNM header$"):
            pnm_fields(head)

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_a_number_past_the_integer_string_limit_is_a_bad_header(self, tmp_path, field):
        fields = [b"1", b"1", b"255"]
        fields[field] = b"1" * 5000
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5 " + b" ".join(fields) + b"\n\x00")
        with pytest.raises(BadHeader, match="PNM header number too long"):
            read_pnm(path)

    def test_a_comment_runs_to_the_end_of_its_line(self):
        with pytest.raises(BadHeader, match="truncated PNM header$"):
            pnm_fields(b"P5 2 2 # 255")
        with pytest.raises(BadHeader, match="truncated PNM header$"):
            pnm_fields(b"P5 2 2 #1 255\r")
        assert pnm_fields(b"P5 4 #5 6\n7 255\n") == (("P5", 4, 7, 255), 16)

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

    def test_a_box_downsampled_plane_is_written_as_its_truncated_means(self, tmp_path, rng):
        plane = random_plane(rng, 9, 14)
        sums = box_downsample(plane, 3)
        assert sums.scale == 3 * 6  # rows: lcm(3) = 3; columns, with a partial block: lcm(3, 2) = 6
        write_pnm(tmp_path / "sums.pgm", sums)
        write_pnm(tmp_path / "means.pgm", LumaPlane(box_downsample(plane.samples, 3)))
        assert (tmp_path / "sums.pgm").read_bytes() == (tmp_path / "means.pgm").read_bytes()
        write_planar_raw(tmp_path / "sums.yuv", [sums])
        assert (tmp_path / "sums.yuv").read_bytes() == np.floor(sums.as_float()).astype(np.uint8).tobytes()


    @pytest.mark.parametrize("maxval, bit_depth", [
        (1, 8), (255, 8), (256, 9), (1023, 10), (4095, 12), (65535, 16),
    ])
    def test_bit_depth_is_the_bits_of_maxval(self, tmp_path, maxval, bit_depth):
        path = tmp_path / "depth.pgm"
        path.write_bytes(b"P5\n1 1\n%d\n" % maxval + maxval.to_bytes(1 if maxval < 256 else 2, "big"))
        plane = read_pnm(path)
        assert plane.bit_depth == bit_depth
        assert plane.samples[0, 0] == maxval


def mapping_of(arr):
    """The buffer at the end of an array's chain of bases."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def write_clip(path, frames):
    if path.suffix == ".y4m":
        write_y4m(path, frames, StreamHeader(frames[0].width, frames[0].height, (30, 1), "420", 8))
        return read_y4m(path)
    write_planar_raw(path, frames)
    return read_planar_raw(path, frames[0].width, frames[0].height, 8, "420")


class TestMappedFrames:
    """Decoded planes are read-only views of one file mapping per frame."""

    @pytest.mark.parametrize("name", ["clip.y4m", "clip.yuv"])
    def test_planes_view_one_read_only_mapping(self, tmp_path, rng, name):
        stream = write_clip(tmp_path / name, [make_ycbcr_frame(rng, 6, 4) for _ in range(2)])
        for frame in stream:
            mappings = {id(mapping_of(c)) for c in frame.channels}
            assert len(mappings) == 1
            assert isinstance(mapping_of(frame.channels[0]), mmap.mmap)
            assert not any(c.flags.writeable for c in frame.channels)

    def test_pnm_samples_view_a_read_only_mapping(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes(range(6)))
        frame = read_pnm(path)
        assert isinstance(mapping_of(frame.channels[0]), mmap.mmap)
        assert not any(c.flags.writeable for c in frame.channels)

    @pytest.mark.parametrize("name", ["clip.y4m", "clip.yuv"])
    @pytest.mark.parametrize("end", ["exhausted", "closed", "unlinked"])
    def test_frames_outlive_their_iterator_and_file(self, tmp_path, rng, name, end):
        frames = [make_ycbcr_frame(rng, 6, 4) for _ in range(3)]
        path = tmp_path / name
        it = iter(write_clip(path, frames))
        got = [next(it)]
        if end == "exhausted":
            got += list(it)
        elif end == "closed":
            got.append(next(it))
            it.close()
        else:
            path.unlink()
            got += list(it)
            assert not path.exists()
        for want, frame in zip(frames, got):
            for a, b in zip(want.channels, frame.channels):
                assert np.array_equal(a, b)
                assert not b.flags.writeable

    def test_pnm_outlives_its_file(self, tmp_path, rng):
        plane = random_plane(rng, 5, 7)
        path = tmp_path / "gone.pgm"
        write_pnm(path, plane)
        back = read_pnm(path)
        path.unlink()
        assert np.array_equal(back.samples, plane.samples)

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads the process's mappings (Linux)")
    @pytest.mark.parametrize("name", ["clip.y4m", "clip.yuv"])
    def test_live_mappings_do_not_grow_with_the_clip(self, tmp_path, rng, name):
        path = tmp_path / name
        stream = write_clip(path, [make_ycbcr_frame(rng, 64, 48) for _ in range(24)])
        target = os.path.realpath(path)

        def live() -> int:
            with open("/proc/self/maps") as fh:
                return sum(line.rstrip("\n").endswith(" " + target) for line in fh)

        counts = []
        latest = None
        for latest in stream:
            counts.append(live())
        assert len(counts) == 24
        assert 1 <= max(counts) <= 2
        kept = list(stream)  # every frame kept alive keeps its own mapping
        assert live() > 2
        del kept, latest
        assert live() == 0

    @pytest.mark.parametrize("payload, message", [
        (0, "FRAME marker with no payload"),
        (10, "plane needs 16 bytes, stream had 10"),
        (16, "frame payload ended inside the chroma planes"),
        (18, "plane needs 4 bytes, stream had 2"),
        (20, "frame payload ended inside the chroma planes"),
        (23, "plane needs 4 bytes, stream had 3"),
    ])
    def test_truncated_y4m_message(self, tmp_path, payload, message):
        path = tmp_path / "short.y4m"
        path.write_bytes(b"YUV4MPEG2 W4 H4 F30:1 C420\nFRAME\n" + bytes(24) + b"FRAME\n" + bytes(payload))
        with pytest.raises(TruncatedFrame) as info:
            list(read_y4m(path))
        assert str(info.value) == f"{path}: frame 1: {message}"

    def test_raw_truncated_after_open_message(self, tmp_path, rng):
        path = tmp_path / "shrunk.yuv"
        stream = write_clip(path, [make_ycbcr_frame(rng) for _ in range(2)])
        with open(path, "r+b") as fh:
            fh.truncate(24 + 10)
        with pytest.raises(TruncatedFrame) as info:
            list(stream)
        assert str(info.value) == f"{path}: frame 1: plane needs 16 bytes, stream had 10"

    @pytest.mark.parametrize("content, error, message", [
        (b"", BadHeader, "not a binary P5/P6 PNM file"),
        (b"P5\n4 4\n255\nabc", TruncatedFrame, "expected 16 samples, found 3"),
        (b"P5\n2 2\n255", TruncatedFrame, "expected 4 samples, found 0"),
        (b"P6\n1 1\n255\n\x01\x02", TruncatedFrame, "expected 3 samples, found 2"),
        (b"P5\n1 1\n65535\n\x01", TruncatedFrame, "expected 1 samples, found 0"),
        (b"P5\n1 1 ", BadHeader, "truncated PNM header"),
    ])
    def test_truncated_pnm_message(self, tmp_path, content, error, message):
        path = tmp_path / "short.pgm"
        path.write_bytes(content)
        with pytest.raises(error) as info:
            read_pnm(path)
        assert str(info.value) == f"{path}: {message}"


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
