import numpy as np
import pytest
from oracles import read_ascii_ply_oracle

from viewsim.errors import DataError, ParseError
from viewsim.ply import DirectoryCloudSequence, read_ply, write_ply

# a numpy text-reader warning (blank lines, empty input) would reach a user's stderr
pytestmark = pytest.mark.filterwarnings("error")


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(137, 3))
    path = tmp_path / "a.ply"
    write_ply(path, pts)
    got = read_ply(path)
    np.testing.assert_array_equal(got, pts.astype(np.float32).astype(np.float64))


def test_ascii_round_trip(tmp_path):
    pts = np.array([[0.0, -1.5, 2.25], [1e-7, 3.0, -4.5]])
    path = tmp_path / "a.ply"
    write_ply(path, pts, binary=False)
    got = read_ply(path)
    # stored as float32: exact at that precision
    np.testing.assert_array_equal(got.astype(np.float32), pts.astype(np.float32))


def test_write_is_deterministic(tmp_path):
    pts = np.random.default_rng(5).normal(size=(50, 3))
    write_ply(tmp_path / "a.ply", pts)
    write_ply(tmp_path / "b.ply", pts)
    assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()


def test_extra_vertex_properties_ignored(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "comment colored cloud\n"
        "element vertex 2\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
        "1 2 3 255 0 0\n"
        "4 5 6 0 255 0\n"
    )
    np.testing.assert_array_equal(read_ply(path), [[1, 2, 3], [4, 5, 6]])


def test_property_order_respected(tmp_path):
    path = tmp_path / "d.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float z\nproperty float x\nproperty float y\nend_header\n"
        "3 1 2\n"
    )
    np.testing.assert_array_equal(read_ply(path), [[1, 2, 3]])


def test_trailing_face_element_skipped(tmp_path):
    path = tmp_path / "e.ply"
    path.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "3 0 1 2\n"
    )
    assert read_ply(path).shape == (3, 3)


def test_bad_magic_reports_path_and_line(tmp_path):
    path = tmp_path / "f.ply"
    path.write_text("plyx\nformat ascii 1.0\nend_header\n")
    with pytest.raises(ParseError) as err:
        read_ply(path)
    assert "f.ply" in str(err.value)


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "g.ply"
    path.write_text("ply\nformat yaml 1.0\nelement vertex 0\nend_header\n")
    with pytest.raises(ParseError):
        read_ply(path)


def test_missing_coordinate_rejected(tmp_path):
    path = tmp_path / "h.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nend_header\n0 0\n"
    )
    with pytest.raises(ParseError):
        read_ply(path)


def test_truncated_binary_rejected(tmp_path):
    pts = np.zeros((10, 3))
    path = tmp_path / "i.ply"
    write_ply(path, pts)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError):
        read_ply(path)


def test_truncated_ascii_rejected(tmp_path):
    path = tmp_path / "j.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "0 0 0\n"
    )
    with pytest.raises(ParseError):
        read_ply(path)


def test_row_token_count_checked(tmp_path):
    path = tmp_path / "k.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "0 0 0 7\n"
    )
    with pytest.raises(ParseError):
        read_ply(path)


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
@pytest.mark.parametrize("points, message", [
    (np.zeros((0, 3)), "no vertices"),
    (np.array([[0.0, 1.0, 2.0], [np.nan, 0.0, 0.0]]), "non-finite"),
    (np.array([[0.0, 1.0, 2.0], [0.0, 0.0, -np.inf]]), "non-finite"),
], ids=["empty", "nan", "inf"])
def test_empty_or_non_finite_cloud_rejected_with_its_path(tmp_path, points, message, binary):
    path = tmp_path / "m.ply"
    write_ply(path, points, binary=binary)
    with pytest.raises(ParseError, match=message) as err:
        read_ply(path)
    assert err.value.path == path and "m.ply" in str(err.value)


def _write_ascii_ply(path, props, columns, sep=" ", eol="\n", before=None, after=None):
    """An ASCII PLY whose vertex rows hold ``columns[name]`` under each ``(type, name)`` of ``props``.

    ``before`` and ``after`` are other elements, each as (header lines, data lines).
    """
    rows = [sep.join(col) for col in zip(*(columns[name] for _, name in props))]
    vertex = ([f"element vertex {len(rows)}", *(f"property {t} {name}" for t, name in props)], rows)
    elements = [e for e in (before, vertex, after) if e is not None]
    header = ["ply", "format ascii 1.0", *(line for decl, _ in elements for line in decl), "end_header"]
    path.write_bytes(eol.join(header + [line for _, data in elements for line in data] + [""]).encode("ascii"))


def _coordinates(single: bool, n: int = 400) -> np.ndarray:
    """(n, 3) values over the whole exponent range of float64 (or float32), extremes first."""
    rng = np.random.default_rng(23)
    if single:
        extremes = [3.4028235e38, -1.4e-45, 1e-40, -1.1754942e-38, -0.0, 0.0]
        exponents = rng.integers(-45, 38, 3 * n)
    else:
        extremes = [1.7976931348623157e308, -2.5e300, 3.3e-300, 5e-324, -2.2250738585072009e-308, 1e-310, -0.0, 0.0]
        exponents = rng.integers(-300, 301, 3 * n)
    values = rng.standard_normal(3 * n) * 10.0 ** exponents
    values[: len(extremes)] = extremes
    return (values.astype(np.float32) if single else values).reshape(n, 3)


FORMATS = {
    "repr": (False, repr),
    "f32-9g": (True, "{:.9g}".format),
    "17e": (False, "{:.17e}".format),
    "signed-6E": (False, "{:+.6E}".format),
}
LAYOUTS = {"space": (" ", "\n"), "tab": ("\t", "\n"), "double-space": ("  ", "\n"), "crlf": (" ", "\r\n")}
XYZ = [("float", "x"), ("float", "y"), ("float", "z")]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_ascii_read_matches_the_per_token_oracle_bit_for_bit(tmp_path, fmt, layout):
    single, text = FORMATS[fmt]
    sep, eol = LAYOUTS[layout]
    xyz = _coordinates(single)
    columns = {c: [text(float(v)) for v in xyz[:, k]] for k, c in enumerate("xyz")}
    path = tmp_path / "a.ply"
    _write_ascii_ply(path, XYZ, columns, sep=sep, eol=eol)
    got, want = read_ply(path), read_ascii_ply_oracle(path)
    assert got.shape == want.shape == xyz.shape and got.tobytes() == want.tobytes() and got.flags.c_contiguous


_N = 50
_COLUMNS = {c: [repr(float(v)) for v in _coordinates(False, _N)[:, k]] for k, c in enumerate("xyz")}
_LIST_ELEMENT = ["property list uchar int vertex_indices"]


@pytest.mark.parametrize("props, columns, before, after", [
    ([("float", "z"), ("double", "x"), ("float", "y")], _COLUMNS, None, None),
    (XYZ + [("uchar", "red")], {**_COLUMNS, "red": [str(i * 5 % 256) for i in range(_N)]}, None, None),
    ([("int", "x"), ("int", "y"), ("int", "z")],
     {c: [str(v) for v in np.random.default_rng(k).integers(-(10**9), 10**9, _N)] for k, c in enumerate("xyz")},
     None, None),
    (XYZ, _COLUMNS, (["element meta 3", *_LIST_ELEMENT], ["3 0 1 2", "0", "1 7"]), None),
    (XYZ, _COLUMNS, None, (["element face 2", *_LIST_ELEMENT], ["3 0 1 2", "4 0 1 2 3"])),
], ids=["reordered", "extra-uchar", "integer-typed", "list-element-before", "face-after"])
def test_ascii_layouts_match_the_per_token_oracle_bit_for_bit(tmp_path, props, columns, before, after):
    path = tmp_path / "a.ply"
    _write_ascii_ply(path, props, columns, before=before, after=after)
    got, want = read_ply(path), read_ascii_ply_oracle(path)
    assert got.shape == want.shape == (_N, 3) and got.tobytes() == want.tobytes() and got.flags.c_contiguous


_HEADER = "ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\nproperty float y\nproperty float z\n"
# numpy's own text numbers a short or long row from 1 and a bad token from 0; every fault here reads "row 3"
BAD_THIRD_ROW = {
    "short-row": ("", "1 2 3\n4 5 6\n7 8\n"),
    "long-row": ("", "1 2 3\n4 5 6\n7 8 9 10\n"),
    "non-numeric-coordinate": ("", "1 2 3\n4 5 6\n7 x 9\n"),
    "non-numeric-extra": ("property uchar red\n", "1 2 3 4\n4 5 6 5\n7 8 9 red\n"),
}


@pytest.mark.parametrize("n, extra, body, message", [
    (3, "", "1 2 3\n\n4 5 6\n7 8 9\n", r"truncated inside element 'vertex' \(2/3 non-blank rows\)"),
    (2, "", "1 2 3\n4 5\n", "bad row 2 in element 'vertex': expected 3 numbers"),
    (1, "", "1 2\n", "bad row 1 in element 'vertex': expected 3 numbers"),
    (2, "", "1 2 3\n4 5 6 7\n", "bad row 2 in element 'vertex': expected 3 numbers"),
    (1, "property uchar red\n", "1 2 3 red\n", "bad row 1 in element 'vertex': expected 4 numbers"),
    (1, "", "1 2e 3\n", "bad row 1 in element 'vertex': expected 3 numbers"),
    (3, "", "1 2 3\n", r"truncated inside element 'vertex' \(1/3 non-blank rows\)"),
    (2, "", "", r"truncated inside element 'vertex' \(0/2 non-blank rows\)"),
    (1, "property list uchar int ids\n", "1 2 3 2 5 6\n", "vertex element with list property is unsupported"),
    (0, "", "", "no vertices"),
    (1, "property float x\n", "1 2 3 4\n", "duplicate property 'x'"),
    *[(3, extra, body, r"^bad row 3 in element 'vertex': expected \d numbers")
      for extra, body in BAD_THIRD_ROW.values()],
], ids=[
    "blank-line", "short-row", "short-only-row", "long-row", "non-numeric-extra", "non-numeric-coordinate",
    "truncated", "truncated-empty", "list-on-vertex", "zero-vertices", "duplicate-property",
    *[f"{variant}-3" for variant in BAD_THIRD_ROW],
])
def test_malformed_ascii_refused_naming_the_file(tmp_path, n, extra, body, message):
    path = tmp_path / "bad.ply"
    path.write_text(_HEADER.format(n=n) + extra + "end_header\n" + body)
    with pytest.raises(ParseError, match=message) as err:
        read_ply(path)
    assert err.value.path == path and "bad.ply" in str(err.value)


@pytest.mark.parametrize("binary", [False, True], ids=["ascii", "binary"])
def test_count_beyond_the_file_refused_before_allocating(tmp_path, binary):
    # 10**11 vertices, 1.2 TB of float32 rows: refused from the file size, never allocated
    path = tmp_path / "big.ply"
    write_ply(path, np.zeros((2, 3)), binary=binary)
    path.write_bytes(path.read_bytes().replace(b"element vertex 2\n", b"element vertex 100000000000\n", 1))
    with pytest.raises(ParseError, match="file truncated inside element 'vertex'") as err:
        read_ply(path)
    assert "big.ply" in str(err.value)


def test_duplicate_binary_property_refused(tmp_path):
    path = tmp_path / "dup.ply"
    header = _HEADER.format(n=1).replace("ascii", "binary_little_endian") + "property float y\nend_header\n"
    path.write_bytes(header.encode("ascii") + bytes(16))
    with pytest.raises(ParseError, match="duplicate property 'y'"):
        read_ply(path)


def _write_frames(root, names):
    rng = np.random.default_rng(1)
    for name in names:
        write_ply(root / name, rng.normal(size=(20, 3)))


def test_directory_sequence_sorted_order(tmp_path):
    _write_frames(tmp_path, ["frame_000002.ply", "frame_000000.ply", "frame_000001.ply"])
    (tmp_path / "notes.txt").write_text("ignored")
    seq = DirectoryCloudSequence(tmp_path)
    assert len(seq) == 3
    t0 = seq[0]
    assert t0.points.shape == (20, 3)
    # repeated access returns identical data
    again = seq[0]
    np.testing.assert_array_equal(again.points, t0.points)


def test_directory_sequence_missing_dir():
    with pytest.raises(DataError) as err:
        DirectoryCloudSequence("/nonexistent/cloud/dir")
    assert "/nonexistent/cloud/dir" in str(err.value)


def test_directory_sequence_empty_dir(tmp_path):
    with pytest.raises(DataError):
        DirectoryCloudSequence(tmp_path)
