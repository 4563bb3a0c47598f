"""File formats: correspondence CSV, transform JSON, and ASCII PLY."""

import numpy as np
import pytest

from conftest import make_rng, random_correspondences, random_transform
from reglab.errors import ConfigurationError
from reglab.formats import (
    CSV_HEADER_LABELED,
    CSV_HEADER_UNLABELED,
    load_correspondences,
    load_ply_points,
    load_transform,
    save_correspondences,
    save_transform,
)
from reglab.geometry import CorrespondenceSet
from reglab.synth import SceneConfig, generate


def test_correspondences_round_trip_labeled(tmp_path):
    c, _ = generate(SceneConfig(n=40, outlier_ratio=0.3, noise_sigma=0.01, seed=3))
    path = tmp_path / "c.csv"
    save_correspondences(path, c)
    assert path.read_text().splitlines()[0] == CSV_HEADER_LABELED
    back = load_correspondences(path)
    assert back.source.tobytes() == c.source.tobytes()  # repr round-trips exactly
    assert back.target.tobytes() == c.target.tobytes()
    assert np.array_equal(back.labels, c.labels)


def test_correspondences_round_trip_unlabeled(tmp_path):
    c, _ = random_correspondences(make_rng(4), n=25, noise=0.05)
    path = tmp_path / "c.csv"
    save_correspondences(path, c)
    assert path.read_text().splitlines()[0] == CSV_HEADER_UNLABELED
    back = load_correspondences(path)
    assert back.labels is None
    assert back.source.tobytes() == c.source.tobytes()
    assert back.target.tobytes() == c.target.tobytes()


def test_correspondences_save_is_byte_stable(tmp_path):
    c, _ = generate(SceneConfig(n=20, outlier_ratio=0.2, seed=5))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_correspondences(a, c)
    save_correspondences(b, c)
    assert a.read_bytes() == b.read_bytes()


def test_load_correspondences_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ConfigurationError, match="empty"):
        load_correspondences(empty)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigurationError, match="header"):
        load_correspondences(bad_header)

    short_row = tmp_path / "short.csv"
    short_row.write_text(CSV_HEADER_UNLABELED + "\n1,2,3,4,5,6\n1,2,3\n")
    with pytest.raises(ConfigurationError, match=r":3: expected 6 cells, got 3"):
        load_correspondences(short_row)

    non_numeric = tmp_path / "text.csv"
    non_numeric.write_text(CSV_HEADER_UNLABELED + "\n1,2,3,4,5,spam\n")
    with pytest.raises(ConfigurationError, match=r":2: non-numeric cell"):
        load_correspondences(non_numeric)


def test_transform_round_trip_is_exact(tmp_path):
    tf = random_transform(make_rng(6))
    path = tmp_path / "t.json"
    save_transform(path, tf)
    back = load_transform(path)
    assert back.rotation.tobytes() == tf.rotation.tobytes()
    assert back.translation.tobytes() == tf.translation.tobytes()


def test_load_transform_errors(tmp_path):
    not_doc = tmp_path / "x.json"
    not_doc.write_text('{"rotation": [1, 2]}')
    with pytest.raises(ConfigurationError, match="transform document"):
        load_transform(not_doc)
    missing = tmp_path / "y.json"
    missing.write_text('{"translation": [0, 0, 0]}')
    with pytest.raises(ConfigurationError):
        load_transform(missing)


PLY_BASIC = """\
ply
format ascii 1.0
comment made by hand
element vertex 3
property float x
property float y
property float z
end_header
0.0 0.5 1.0
-1.25 2.0 3.5
4.0 5.0 6.0
"""

PLY_EXTRA = """\
ply
format ascii 1.0
element header_junk 2
property float foo
element vertex 2
property double y
property double x
property uchar red
property double z
end_header
9.0
8.0
1.0 2.0 255 3.0
4.0 5.0 128 6.0
"""

PLY_LIST_PROPS = """\
ply
format ascii 1.0
element vertex 1
property float x
property float y
property float z
end_header
7.0 8.0 9.0
element face 1
"""


def test_load_ply_basic(tmp_path):
    path = tmp_path / "a.ply"
    path.write_text(PLY_BASIC)
    pts = load_ply_points(path)
    np.testing.assert_array_equal(
        pts, [[0.0, 0.5, 1.0], [-1.25, 2.0, 3.5], [4.0, 5.0, 6.0]]
    )


def test_load_ply_reordered_columns_and_extra_elements(tmp_path):
    path = tmp_path / "b.ply"
    path.write_text(PLY_EXTRA)
    pts = load_ply_points(path)
    # properties are y, x, (red), z in file order
    np.testing.assert_array_equal(pts, [[2.0, 1.0, 3.0], [5.0, 4.0, 6.0]])


def test_load_ply_trailing_junk_is_ignored(tmp_path):
    path = tmp_path / "c.ply"
    path.write_text(PLY_LIST_PROPS)
    np.testing.assert_array_equal(load_ply_points(path), [[7.0, 8.0, 9.0]])


def test_load_ply_errors(tmp_path):
    no_magic = tmp_path / "n.ply"
    no_magic.write_text("not a ply\n")
    with pytest.raises(ConfigurationError, match="magic"):
        load_ply_points(no_magic)

    binary = tmp_path / "bin.ply"
    binary.write_text(
        "ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    with pytest.raises(ConfigurationError, match="ASCII"):
        load_ply_points(binary)

    unterminated = tmp_path / "u.ply"
    unterminated.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
    with pytest.raises(ConfigurationError, match="header never ends"):
        load_ply_points(unterminated)

    no_vertex = tmp_path / "nv.ply"
    no_vertex.write_text(
        "ply\nformat ascii 1.0\nelement face 0\nproperty float x\nend_header\n"
    )
    with pytest.raises(ConfigurationError, match="no vertex element"):
        load_ply_points(no_vertex)

    missing_z = tmp_path / "mz.ply"
    missing_z.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nend_header\n1.0 2.0\n"
    )
    with pytest.raises(ConfigurationError, match="lacks float property 'z'"):
        load_ply_points(missing_z)

    int_coords = tmp_path / "ic.ply"
    int_coords.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property int x\nproperty float y\nproperty float z\nend_header\n1 2.0 3.0\n"
    )
    with pytest.raises(ConfigurationError, match="lacks float property 'x'"):
        load_ply_points(int_coords)

    short_data = tmp_path / "sd.ply"
    short_data.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "1.0 2.0 3.0\n"
    )
    with pytest.raises(ConfigurationError, match="declares 3 rows, found 1"):
        load_ply_points(short_data)


def test_ply_pair_builds_correspondences(tmp_path):
    a, b = tmp_path / "s.ply", tmp_path / "t.ply"
    a.write_text(PLY_BASIC)
    b.write_text(PLY_BASIC)
    src, tgt = load_ply_points(a), load_ply_points(b)
    c = CorrespondenceSet(src, tgt)
    assert len(c) == 3
