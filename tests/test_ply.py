import numpy as np
import pytest

from viewsim.errors import DataError, ParseError
from viewsim.ply import DirectoryCloudSequence, read_ply, write_ply


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
