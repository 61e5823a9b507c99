"""Reading and writing the media and report formats the CLI speaks.

Supported media: YUV4MPEG2 (Y4M), headerless planar YUV with out-of-band
dimensions, and binary PNM (P5/P6). Frames are yielded lazily, one at a time.
Raw multi-byte samples are little-endian; PNM 16-bit is big-endian per its
own convention. Y4M and raw frames share one plane layout, and the PNM
header is one bytes pattern's match. Reports are JSON-lines or CSV with
deterministic field order and floats rendered to 9 significant digits.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import re
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    BadHeader,
    BadMagic,
    SizeNotMultiple,
    SsimkitError,
    TruncatedFrame,
    UnsupportedChroma,
    UnsupportedMaxval,
    ValidationError,
)
from .color import luma_of
from .frames import CHROMA_420, CHROMA_444, SPACE_RGB, SPACE_YCBCR, ColorFrame, LumaPlane

Y4M_MAGIC = b"YUV4MPEG2"

# Y4M chroma tags we accept; the three 420 variants differ only in siting,
# which does not affect plane sizes.
_Y4M_CHROMA = {
    "420": CHROMA_420,
    "420jpeg": CHROMA_420,
    "420mpeg2": CHROMA_420,
    "444": CHROMA_444,
    "mono": "mono",
}

FrameType = Union[LumaPlane, ColorFrame]


@dataclass(frozen=True)
class StreamHeader:
    width: int
    height: int
    frame_rate: tuple[int, int]
    chroma: str  # "420" | "444" | "mono"
    bit_depth: int = 8


class VideoStream:
    """A stream header plus a lazy, single-pass frame iterator."""

    def __init__(self, header: StreamHeader, frames: Callable[[], Iterator[FrameType]]):
        self.header = header
        self._frames = frames

    def __iter__(self) -> Iterator[FrameType]:
        return self._frames()

    def luma_frames(self) -> Iterator[LumaPlane]:
        for frame in self:
            yield luma_of(frame)


def _plane_shapes(width: int, height: int, chroma: str) -> list[tuple[int, int]]:
    """(rows, columns) of each stored plane of a frame: luma, then Cb and Cr
    unless ``chroma`` is mono (4:2:0 chroma rounds odd sides up)."""
    if chroma == "mono":
        return [(height, width)]
    if chroma == CHROMA_420:
        return [(height, width)] + [(-(-height // 2), -(-width // 2))] * 2
    return [(height, width)] * 3


def _plane_bytes(shape: tuple[int, int], bit_depth: int) -> int:
    return shape[0] * shape[1] * (1 if bit_depth <= 8 else 2)


def _map_bytes(fh: IO[bytes], start: int, length: int) -> np.ndarray:
    """Bytes ``[start, start + length)`` of an open file as a read-only uint8
    array over a read-only mapping of just that range.

    The mapping lives as long as some array viewing it, so dropping a
    frame's last array releases its pages. The caller checks that the range
    lies inside the file: pages past the end of a file cannot be read.
    """
    if length == 0:  # mmap refuses empty maps
        return np.frombuffer(b"", dtype=np.uint8)
    lead = start % mmap.ALLOCATIONGRANULARITY  # map offsets must be aligned
    mapped = mmap.mmap(fh.fileno(), lead + length, access=mmap.ACCESS_READ, offset=start - lead)
    return np.frombuffer(mapped, dtype=np.uint8, count=length, offset=lead)


def _decoded_frames(
    path: Union[str, os.PathLike], decode: Callable[[IO[bytes]], Optional[FrameType]], skip: int = 0
) -> Iterator[FrameType]:
    """Frames from ``decode`` until it returns None, reading ``path`` past its
    first ``skip`` bytes; a decode error names the file and the frame."""
    with open(path, "rb") as fh:
        fh.seek(skip)
        for i in itertools.count():
            try:
                frame = decode(fh)
            except SsimkitError as exc:
                raise type(exc)(f"{path}: frame {i}: {exc}") from exc
            if frame is None:
                return
            yield frame


def read_y4m(path: Union[str, os.PathLike]) -> VideoStream:
    """Open a YUV4MPEG2 file as a lazy video stream."""
    with open(path, "rb") as fh:
        magic = fh.read(len(Y4M_MAGIC))
        if magic != Y4M_MAGIC:
            raise BadMagic(f"{path}: not a YUV4MPEG2 stream")
        header_line = _read_line(fh)
        payload_start = fh.tell()
    header = _parse_y4m_header(header_line)

    def decode(fh: IO[bytes]) -> Optional[FrameType]:
        marker = _read_line(fh)
        if marker is None:
            return None
        if not marker.startswith("FRAME"):
            raise BadHeader(f"expected FRAME marker, got {marker[:20]!r}")
        frame = _read_frame_planes(fh, header)
        if frame is None:
            raise TruncatedFrame("FRAME marker with no payload")
        return frame

    return VideoStream(header, lambda: _decoded_frames(path, decode, payload_start))


def _read_line(fh: IO[bytes]) -> Optional[str]:
    """The next line of at most 512 bytes without its newline (the file's
    last line may have none), or None at the end of the file."""
    line = fh.readline(513)
    if not line:
        return None
    if line.endswith(b"\n"):
        line = line[:-1]
    elif len(line) > 512:
        raise BadHeader("unterminated header line")
    return line.decode("ascii", "replace")


def _header_int(token: str, digits: str) -> int:
    if not digits.isdigit():
        raise BadHeader(f"header token {token!r} needs a decimal number")
    return int(digits)


def _parse_y4m_header(line: Optional[str]) -> StreamHeader:
    if line is None:
        raise BadHeader("missing stream header")
    width = height = None
    rate = (30, 1)
    chroma = CHROMA_420  # Y4M default when no C tag is present
    for token in line.split(" "):
        if not token:
            continue
        tag, val = token[0], token[1:]
        if tag == "W":
            width = _header_int(token, val)
        elif tag == "H":
            height = _header_int(token, val)
        elif tag == "F":
            num, _, den = val.partition(":")
            rate = (_header_int(token, num), _header_int(token, den or "1"))
        elif tag == "C":
            if val not in _Y4M_CHROMA:
                raise UnsupportedChroma(f"chroma tag C{val} is not supported")
            chroma = _Y4M_CHROMA[val]
        elif tag in ("I", "A", "X"):
            continue  # interlacing, aspect, comments: irrelevant to scoring
        else:
            raise BadHeader(f"unknown header token {token!r}")
    if not width or not height or width <= 0 or height <= 0:
        raise BadHeader(f"header lacks valid dimensions: {line!r}")
    return StreamHeader(width, height, rate, chroma, 8)


def _read_frame_planes(fh: IO[bytes], header: StreamHeader) -> Optional[FrameType]:
    """The frame at ``fh``'s position as views of one mapping of its bytes,
    or None at the end of the file; ``fh`` moves past the frame."""
    shapes = _plane_shapes(header.width, header.height, header.chroma)
    sizes = [_plane_bytes(shape, header.bit_depth) for shape in shapes]
    start = fh.tell()
    left = os.fstat(fh.fileno()).st_size - start
    if left <= 0:
        return None
    for i, nbytes in enumerate(sizes):
        if i and not left:
            raise TruncatedFrame("frame payload ended inside the chroma planes")
        if left < nbytes:
            raise TruncatedFrame(f"plane needs {nbytes} bytes, stream had {left}")
        left -= nbytes
    data = _map_bytes(fh, start, sum(sizes))
    fh.seek(start + data.size)
    dtype = np.uint8 if header.bit_depth <= 8 else np.dtype("<u2")
    planes, offset = [], 0
    for shape, nbytes in zip(shapes, sizes):
        planes.append(data[offset : offset + nbytes].view(dtype).reshape(shape))
        offset += nbytes
    if header.chroma == "mono":
        return LumaPlane(planes[0], header.bit_depth)
    return ColorFrame(tuple(planes), SPACE_YCBCR, header.chroma, header.bit_depth)


def read_planar_raw(
    path: Union[str, os.PathLike],
    width: int,
    height: int,
    bit_depth: int = 8,
    chroma: str = CHROMA_420,
    frame_rate: tuple[int, int] = (30, 1),
) -> VideoStream:
    """Open a headerless planar YUV file; dimensions come from the caller."""
    if width <= 0 or height <= 0:
        raise ValidationError("dimensions must be positive")
    if chroma not in (CHROMA_420, CHROMA_444, "mono", "400"):
        raise UnsupportedChroma(f"chroma {chroma!r} not supported for raw input")
    if chroma == "400":
        chroma = "mono"
    frame_bytes = sum(_plane_bytes(shape, bit_depth) for shape in _plane_shapes(width, height, chroma))
    size = os.path.getsize(path)
    if size == 0 or size % frame_bytes != 0:
        raise SizeNotMultiple(f"{path}: {size} bytes is not a whole number of {frame_bytes}-byte frames")
    header = StreamHeader(width, height, frame_rate, chroma, bit_depth)
    return VideoStream(header, lambda: _decoded_frames(path, lambda fh: _read_frame_planes(fh, header)))


def read_pnm(path: Union[str, os.PathLike]) -> FrameType:
    """Read a binary PNM image: P5 -> LumaPlane, P6 -> RGB ColorFrame.

    The bit depth is the fewest bits that hold maxval (at least 8), so a
    maxval of 1023 gives a 10-bit image.
    """
    with open(path, "rb") as fh:
        data = _map_bytes(fh, 0, os.fstat(fh.fileno()).st_size)
    fields, offset = _pnm_header_fields(data, path)
    kind, width, height, maxval = fields
    if maxval <= 0 or maxval > 65535:
        raise UnsupportedMaxval(f"maxval {maxval} outside (0, 65535]")
    bit_depth = max(8, maxval.bit_length())
    dtype = np.uint8 if bit_depth == 8 else np.dtype(">u2")  # PNM 16-bit is big-endian
    channels = 1 if kind == "P5" else 3
    count = width * height * channels
    found = max(data.size - offset, 0) // np.dtype(dtype).itemsize
    if found < count:
        raise TruncatedFrame(f"{path}: expected {count} samples, found {found}")
    payload = data[offset : offset + count * np.dtype(dtype).itemsize].view(dtype)
    if kind == "P5":
        return LumaPlane(payload.reshape(height, width), bit_depth)
    rgb = payload.reshape(height, width, 3)
    return ColorFrame(
        (rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]), SPACE_RGB, CHROMA_444, bit_depth
    )


# A gap of whitespace and comments, each comment to the end of its line, so
# that backtracking within a gap cannot read the rest of a comment as a field.
_PNM_GAP = rb"(?:\s|#[^\n]*(?![^\n]))*"
# The magic and up to three fields, each a whole digit run (nothing after a
# field can fail, so none is ever split); short of three, the gap after the
# last, so that the match ends where the header stops being one.
_PNM_HEADER = re.compile(rb"P[56]" + rb"(?:%b(\d+))?" % _PNM_GAP * 3 + rb"(?(3)|%b)" % _PNM_GAP)


def _pnm_header_fields(data: np.ndarray, path) -> tuple[tuple[str, int, int, int], int]:
    match = _PNM_HEADER.match(data)
    if match is None:
        raise BadHeader(f"{path}: not a binary P5/P6 PNM file")
    if match[3] is None:
        end = match.end()
        if end == data.size:
            raise BadHeader(f"{path}: truncated PNM header")
        raise BadHeader(f"{path}: unexpected byte {data[end : end + 1].tobytes()!r} in PNM header")
    width, height, maxval = (int(field) for field in match.groups())
    if width <= 0 or height <= 0:
        raise BadHeader(f"{path}: bad dimensions {width}x{height}")
    return (data[:2].tobytes().decode(), width, height, maxval), match.end(3) + 1  # one byte after maxval


# ---------------------------------------------------------------------------
# writers (round-trip partners of the readers; also used by tests)
# ---------------------------------------------------------------------------

def write_y4m(path: Union[str, os.PathLike], frames: Iterable[FrameType], header: StreamHeader) -> None:
    """Write 8-bit frames as YUV4MPEG2; deeper samples have no tag the reader knows."""
    if header.bit_depth > 8:
        raise ValidationError(f"Y4M output is 8-bit only, got a {header.bit_depth}-bit header")
    with open(path, "wb") as fh:
        tag = {"420": " C420", "444": " C444", "mono": " Cmono"}[header.chroma]
        fh.write(
            Y4M_MAGIC
            + f" W{header.width} H{header.height} F{header.frame_rate[0]}:{header.frame_rate[1]}{tag}\n".encode()
        )
        for frame in frames:
            fh.write(b"FRAME\n")
            _write_frame_planes(fh, frame, header.bit_depth)


def write_planar_raw(path: Union[str, os.PathLike], frames: Iterable[FrameType], bit_depth: int = 8) -> None:
    with open(path, "wb") as fh:
        for frame in frames:
            _write_frame_planes(fh, frame, bit_depth)


def _signal(plane: LumaPlane) -> np.ndarray:
    """A plane's samples in signal units: a scaled plane's block sums are
    written as their float means, which the cast to the file's dtype truncates."""
    return plane.samples if plane.scale == 1 else plane.as_float()


def _write_frame_planes(fh: IO[bytes], frame: FrameType, bit_depth: int) -> None:
    dtype = np.uint8 if bit_depth <= 8 else np.dtype("<u2")
    planes = [_signal(frame)] if isinstance(frame, LumaPlane) else list(frame.channels)
    for plane in planes:
        fh.write(np.ascontiguousarray(plane, dtype=dtype).tobytes())


def write_pnm(path: Union[str, os.PathLike], image: FrameType) -> None:
    if isinstance(image, LumaPlane):
        kind, planes, bit_depth = b"P5", [_signal(image)], image.bit_depth
        h, w = image.samples.shape
    else:
        image.require_space(SPACE_RGB)
        kind, planes, bit_depth = b"P6", list(image.channels), image.bit_depth
        h, w = image.height, image.width
    maxval = (1 << bit_depth) - 1
    dtype = np.uint8 if bit_depth <= 8 else np.dtype(">u2")
    with open(path, "wb") as fh:
        fh.write(kind + f"\n{w} {h}\n{maxval}\n".encode())
        stacked = np.stack([np.asarray(p) for p in planes], axis=-1)
        fh.write(np.ascontiguousarray(stacked, dtype=dtype).tobytes())


# ---------------------------------------------------------------------------
# report writer
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """Floats at 9 significant digits with trailing zeros kept (1 -> 1.00000000)."""
    return format(float(x), "#.9g")


def _render(value, missing: str, text: Callable[[str], str]) -> str:
    """One report field: ``missing`` for None and NaN, JSON's booleans,
    :func:`format_float` floats, and any other value but an int as
    ``text`` of its str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or (isinstance(value, float) and value != value):
        return missing
    if isinstance(value, float):
        return format_float(value)
    return str(value) if isinstance(value, int) else text(str(value))


def write_report(
    records: Sequence[Mapping],
    fmt: str = "jsonl",
    fields: Optional[Sequence[str]] = None,
) -> bytes:
    """Serialize records (one frame each) with a deterministic field order.

    ``fields`` fixes the schema; it defaults to the first record's keys. CSV
    output always carries exactly one header row, including for no records.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValidationError(f"unknown report format {fmt!r}")
    if fields is None:
        if not records:
            raise ValidationError("empty record list needs an explicit field list")
        fields = list(records[0].keys())
    for i, rec in enumerate(records):
        if set(rec.keys()) != set(fields):
            raise ValidationError(f"record {i} does not match the report schema {list(fields)}")
    lines: list[str] = []
    if fmt == "csv":
        lines.append(",".join(fields))
        for rec in records:
            lines.append(",".join(_render(rec[f], "", str) for f in fields))
    else:
        for rec in records:
            body = ", ".join(f"{json.dumps(f)}: {_render(rec[f], 'null', json.dumps)}" for f in fields)
            lines.append("{" + body + "}")
    return ("\n".join(lines) + "\n").encode()
