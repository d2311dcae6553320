"""Minimal PLY point-cloud I/O.

Reads ``ascii`` and ``binary_little_endian`` files, keeping only the x, y, z
properties of the ``vertex`` element; every other property and element is
skipped.  Writes the same subset back out (binary by default).  This is not
a general PLY library; it covers the layouts produced by common volumetric
datasets and by :mod:`viewsim.synth`.
"""

from __future__ import annotations

import os
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
class _Prop:
    name: str
    dtype: str
    count_dtype: str | None = None  # set for list properties

    @property
    def is_list(self) -> bool:
        return self.count_dtype is not None


@dataclass
class _Element:
    name: str
    count: int
    props: list


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
            elements.append(_Element(parts[1], count, []))
        elif parts[0] == "property":
            if not elements:
                raise ParseError("property before any element", path=path, line=lineno)
            if len(parts) == 3 and parts[1] in _SCALAR_TYPES:
                elements[-1].props.append(_Prop(parts[2], _SCALAR_TYPES[parts[1]]))
            elif (
                len(parts) == 5
                and parts[1] == "list"
                and parts[2] in _SCALAR_TYPES
                and parts[3] in _SCALAR_TYPES
            ):
                elements[-1].props.append(
                    _Prop(parts[4], _SCALAR_TYPES[parts[3]], count_dtype=_SCALAR_TYPES[parts[2]])
                )
            else:
                raise ParseError(f"malformed property line '{line}'", path=path, line=lineno)
        elif parts[0] == "end_header":
            break
        else:
            raise ParseError(f"unknown header keyword '{parts[0]}'", path=path, line=lineno)
    if fmt is None:
        raise ParseError("header has no format line", path=path, line=lineno)
    return fmt, elements


def _read_ascii_element(fh, elem, path, want_xyz):
    cols = None
    if want_xyz:
        names = [p.name for p in elem.props]
        cols = [names.index(c) for c in ("x", "y", "z")]
        out = np.empty((elem.count, 3), dtype=np.float64)
    for i in range(elem.count):
        raw = fh.readline()
        if not raw:
            raise ParseError(
                f"file truncated inside element '{elem.name}' ({i}/{elem.count} rows)", path=path
            )
        if want_xyz:
            toks = raw.split()
            if any(p.is_list for p in elem.props):
                # List properties make column positions data dependent;
                # vertex elements never carry them in practice.
                raise ParseError("vertex element with list property is unsupported", path=path)
            if len(toks) != len(elem.props):
                raise ParseError(
                    f"vertex row {i} has {len(toks)} values, expected {len(elem.props)}", path=path
                )
            try:
                for j, c in enumerate(cols):
                    out[i, j] = float(toks[c])
            except ValueError:
                raise ParseError(f"bad vertex row '{raw.strip().decode(errors='replace')}'", path=path)
    return out if want_xyz else None


def _skip_ascii_element(fh, elem, path):
    for _ in range(elem.count):
        if not fh.readline():
            raise ParseError(f"file truncated inside element '{elem.name}'", path=path)


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
        vertex = next((e for e in elements if e.name == "vertex"), None)
        if vertex is None:
            raise ParseError("no vertex element", path=path)
        names = [p.name for p in vertex.props]
        if any(c not in names for c in ("x", "y", "z")):
            raise ParseError(f"vertex element lacks x/y/z (has {names})", path=path)
        if fmt == "ascii":
            for elem in elements:
                if elem is vertex:
                    return _checked(_read_ascii_element(fh, elem, path, want_xyz=True), path)
                _skip_ascii_element(fh, elem, path)
        # binary_little_endian: read elements in declared order up to vertex
        for elem in elements:
            if elem is vertex:
                if any(p.is_list for p in elem.props):
                    raise ParseError("vertex element with list property is unsupported", path=path)
                dtype = np.dtype([(p.name, "<" + p.dtype) for p in elem.props])
                buf = fh.read(dtype.itemsize * elem.count)
                if len(buf) != dtype.itemsize * elem.count:
                    raise ParseError(
                        f"file truncated inside element 'vertex' "
                        f"({len(buf)}/{dtype.itemsize * elem.count} bytes)",
                        path=path,
                    )
                rec = np.frombuffer(buf, dtype=dtype)
                return _checked(np.column_stack([rec[c].astype(np.float64) for c in "xyz"]), path)
            if any(p.is_list for p in elem.props):
                raise ParseError(
                    f"list property in element '{elem.name}' before vertex is unsupported",
                    path=path,
                )
            size = sum(np.dtype("<" + p.dtype).itemsize for p in elem.props) * elem.count
            if len(fh.read(size)) != size:
                raise ParseError(f"file truncated inside element '{elem.name}'", path=path)
    raise ParseError("no vertex element", path=path)


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
        self.paths = sorted(
            os.path.join(self.directory, f)
            for f in os.listdir(self.directory)
            if f.lower().endswith(".ply")
        )
        if not self.paths:
            raise DataError(f"no .ply files in {self.directory}")

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, i: int) -> PointCloudFrame:
        if not 0 <= i < len(self.paths):
            raise IndexError(i)
        return PointCloudFrame(frame_index=i, points=read_ply(self.paths[i]))
