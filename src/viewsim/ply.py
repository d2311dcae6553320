"""Minimal PLY point-cloud I/O.

Reads ``ascii`` and ``binary_little_endian`` files, keeping only the x, y, z
properties of the ``vertex`` element; every other property and element is
skipped.  ASCII vertex rows are parsed whole by numpy's text reader, so
each of their values must be a number; a bad row is named by its 1-based
number within the element.  Writes the same subset back out
(binary by default).  This is not a general PLY library; it covers the
layouts produced by common volumetric datasets and by :mod:`viewsim.synth`.
"""

from __future__ import annotations

import itertools
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .geometry import PointCloudFrame

_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


@dataclass
class _Element:
    name: str
    count: int
    props: dict  # property name -> scalar dtype code, None for a list property


def _parse_header(fh, path):
    magic = fh.readline()
    if magic.strip() != b"ply":
        raise ParseError("not a PLY file (missing 'ply' magic)", path=path, line=1)
    fmt = None
    elements = []
    lineno = 1
    while True:
        raw = fh.readline()
        lineno += 1
        if not raw:
            raise ParseError("header ended before end_header", path=path, line=lineno)
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError:
            raise ParseError("non-ASCII bytes in header", path=path, line=lineno)
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        parts = line.split()
        if parts[0] == "format":
            if len(parts) < 2:
                raise ParseError("malformed format line", path=path, line=lineno)
            fmt = parts[1]
            if fmt not in ("ascii", "binary_little_endian"):
                raise ParseError(f"unsupported PLY format '{fmt}'", path=path, line=lineno)
        elif parts[0] == "element":
            if len(parts) != 3:
                raise ParseError("malformed element line", path=path, line=lineno)
            try:
                count = int(parts[2])
            except ValueError:
                raise ParseError(f"bad element count '{parts[2]}'", path=path, line=lineno)
            if count < 0:
                raise ParseError("negative element count", path=path, line=lineno)
            elements.append(_Element(parts[1], count, {}))
        elif parts[0] == "property":
            if not elements:
                raise ParseError("property before any element", path=path, line=lineno)
            if len(parts) == 3 and parts[1] in _SCALAR_TYPES:
                dtype = _SCALAR_TYPES[parts[1]]
            elif len(parts) == 5 and parts[1] == "list" and parts[2] in _SCALAR_TYPES and parts[3] in _SCALAR_TYPES:
                dtype = None
            else:
                raise ParseError(f"malformed property line '{line}'", path=path, line=lineno)
            if parts[-1] in elements[-1].props:
                raise ParseError(f"duplicate property '{parts[-1]}'", path=path, line=lineno)
            elements[-1].props[parts[-1]] = dtype
        elif parts[0] == "end_header":
            break
        else:
            raise ParseError(f"unknown header keyword '{parts[0]}'", path=path, line=lineno)
    if fmt is None:
        raise ParseError("header has no format line", path=path, line=lineno)
    return fmt, elements


def _binary_records(fh, elem, path) -> np.ndarray:
    """The element's fixed-size records; its declared bytes are checked against those left in the file."""
    if None in elem.props.values():
        raise ParseError(f"list property in element '{elem.name}' before vertex is unsupported", path=path)
    dtype = np.dtype([(name, "<" + code) for name, code in elem.props.items()])
    size = dtype.itemsize * elem.count
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise ParseError(f"file truncated inside element '{elem.name}' ({left}/{size} bytes)", path=path)
    return np.frombuffer(fh.read(size), dtype=dtype)


def _is_row(line, width) -> bool:
    """Whether a text line is blank or ``width`` numbers to numpy's text reader."""
    try:
        return not line.strip() or np.loadtxt([line], dtype=np.float64, comments=None, ndmin=2).shape == (1, width)
    except ValueError:
        return False


def _ascii_rows(fh, elem, path) -> np.ndarray:
    """The element's rows as a (count, properties) float64 array; a row is one line of numbers."""
    shape = (elem.count, len(elem.props))
    if elem.count == 0:  # the text reader warns on empty input
        return np.empty(shape)
    start = fh.tell()
    with warnings.catch_warnings():
        # no line left: the count check below refuses it as truncation
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(itertools.islice(fh, elem.count), dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            rows = None
    if rows is None or (len(rows) and rows.shape[1] != shape[1]):
        fh.seek(start)  # the reader refuses an element only where a line is refused alone or has another width
        row = next(n for n, line in enumerate(itertools.islice(fh, elem.count), 1) if not _is_row(line, shape[1]))
        raise ParseError(f"bad row {row} in element '{elem.name}': expected {shape[1]} numbers", path=path)
    if len(rows) < elem.count:
        raise ParseError(f"file truncated inside element '{elem.name}' ({len(rows)}/{elem.count} non-blank rows)",
                         path=path)
    return rows


def _checked(coords, path) -> np.ndarray:
    if len(coords) == 0:
        raise ParseError("no vertices", path=path)
    if not np.isfinite(coords).all():
        raise ParseError("non-finite vertex coordinate", path=path)
    return coords


def read_ply(path) -> np.ndarray:
    """Vertex coordinates as an (N, 3) float64 array; a file with no vertex or a non-finite coordinate is refused."""
    with open(path, "rb") as fh:
        fmt, elements = _parse_header(fh, path)
        k = next((k for k, e in enumerate(elements) if e.name == "vertex"), None)
        if k is None:
            raise ParseError("no vertex element", path=path)
        vertex = elements[k]
        names = list(vertex.props)
        if any(c not in names for c in "xyz"):
            raise ParseError(f"vertex element lacks x/y/z (has {names})", path=path)
        if None in vertex.props.values():
            # List properties make column positions data dependent;
            # vertex elements never carry them in practice.
            raise ParseError("vertex element with list property is unsupported", path=path)
        for elem in elements[:k]:
            if fmt == "binary_little_endian":
                _binary_records(fh, elem, path)
            elif sum(1 for _ in itertools.islice(fh, elem.count)) < elem.count:
                raise ParseError(f"file truncated inside element '{elem.name}'", path=path)
        if fmt == "binary_little_endian":
            rec = _binary_records(fh, vertex, path)
            return _checked(np.column_stack([rec[c].astype(np.float64) for c in "xyz"]), path)
        rows = _ascii_rows(fh, vertex, path)
        return _checked(np.column_stack([rows[:, names.index(c)] for c in "xyz"]), path)


def write_ply(path, points, binary: bool = True) -> None:
    """Write an (N, 3) array as float32 x/y/z vertices."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        "ply\n"
        f"format {fmt} 1.0\n"
        f"element vertex {pts.shape[0]}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    f32 = pts.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(f32.tobytes(order="C"))
        else:
            for row in f32:
                fh.write(f"{row[0]:.9g} {row[1]:.9g} {row[2]:.9g}\n".encode("ascii"))


class DirectoryCloudSequence:
    """Lazy frame-indexed view over the sorted .ply files in a directory.

    Names must sort in frame order (zero-pad their numbers), or the directory is refused.
    Each access parses its file; nothing is cached here, so a frame asked
    for twice is read twice.  A table pass holds the latest frame it read
    (``PreparedContent.cloud``), so a cloud's digest, its gaze rays and the
    table or graph computed from it share one read, and no pass reads a
    cloud twice.
    """

    def __init__(self, directory):
        self.directory = os.fspath(directory)
        if not os.path.isdir(self.directory):
            raise DataError(f"cloud directory not found: {self.directory}")
        names = sorted(f for f in os.listdir(self.directory) if f.lower().endswith(".ply"))
        if not names:
            raise DataError(f"no .ply files in {self.directory}")
        numbered = [[int(t) if k % 2 else t for k, t in enumerate(re.split(r"(\d+)", f))] for f in names]
        for k in range(1, len(names)):
            if numbered[k - 1] > numbered[k]:
                raise DataError(f"{names[k - 1]} sorts before {names[k]} in {self.directory}: zero-pad the frame numbers")
        self.paths = [os.path.join(self.directory, f) for f in names]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i: int) -> PointCloudFrame:
        if not 0 <= i < len(self.paths):
            raise IndexError(i)
        return PointCloudFrame(frame_index=i, points=read_ply(self.paths[i]))
