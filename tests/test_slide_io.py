import json

import numpy as np
import pytest

from oracles import annotation_sets_equal, pyramids_equal, write_p6
from slidebench import (
    Annotation,
    AnnotationSet,
    build_pyramid,
    level_dimensions,
    parse_annotations,
    read_pyramid,
    serialize_annotations,
    write_pyramid,
)
from slidebench.errors import FormatError, ValidationError
from slidebench.slide_io import PyramidLevel, SlidePyramid


def test_level_dimensions_ceil_halving():
    assert level_dimensions(1000, 600, 0) == (1000, 600)
    assert level_dimensions(1000, 600, 1) == (500, 300)
    assert level_dimensions(1000, 600, 3) == (125, 75)
    # odd sizes round up at every step
    assert level_dimensions(125, 75, 1) == (63, 38)
    assert level_dimensions(1, 1, 5) == (1, 1)
    assert level_dimensions(16, 16, 2000) == (1, 1)
    assert level_dimensions(5, 3, 10**12) == (1, 1)


def test_build_pyramid_dims_and_subsampling(rng):
    base = rng.integers(0, 256, (37, 53, 3), dtype=np.uint8)
    p = build_pyramid("s", base, 3)
    assert [(l.width, l.height) for l in p.levels] == [(53, 37), (27, 19), (14, 10)]
    assert np.array_equal(p.level(1).pixels, base[::2, ::2])
    assert np.array_equal(p.level(2).pixels, base[::4, ::4])


def test_pyramid_rejects_wrong_level_dims(rng):
    base = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    with pytest.raises(ValidationError):
        SlidePyramid("s", [PyramidLevel(base), PyramidLevel(np.zeros((8, 9, 3), dtype=np.uint8))])


def test_pyramid_level_out_of_range(rng):
    p = build_pyramid("s", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), 2)
    with pytest.raises(ValidationError):
        p.level(2)


def test_pyramid_round_trip(tmp_path, rng):
    base = rng.integers(0, 256, (21, 33, 3), dtype=np.uint8)
    p = build_pyramid("round", base, 3)
    manifest = write_pyramid(p, tmp_path / "slide")
    back = read_pyramid(manifest)
    assert pyramids_equal(p, back)
    assert json.loads(manifest.read_text()) == {"slide_id": "round", "n_levels": 3}
    assert sorted(f.name for f in manifest.parent.iterdir()) == [
        "level_00.ppm", "level_01.ppm", "level_02.ppm", "manifest.json"]


def test_write_pyramid_is_deterministic(tmp_path, rng):
    base = rng.integers(0, 256, (12, 12, 3), dtype=np.uint8)
    p = build_pyramid("d", base, 2)
    m1 = write_pyramid(p, tmp_path / "a")
    m2 = write_pyramid(p, tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    assert (tmp_path / "a/level_00.ppm").read_bytes() == (tmp_path / "b/level_00.ppm").read_bytes()


def test_read_pyramid_missing_level_file(tmp_path, rng):
    p = build_pyramid("x", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), 2)
    manifest = write_pyramid(p, tmp_path / "s")
    (tmp_path / "s/level_01.ppm").unlink()
    with pytest.raises(FileNotFoundError, match="level_01.ppm"):
        read_pyramid(manifest)


def test_read_pyramid_dim_mismatch(tmp_path, rng):
    # a level's dimensions come from its own header, and they must follow the halving rule
    p = build_pyramid("x", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), 2)
    manifest = write_pyramid(p, tmp_path / "s")
    write_p6(tmp_path / "s/level_01.ppm", np.zeros((4, 5, 3), dtype=np.uint8))
    with pytest.raises(FormatError, match="level 1: 5x4 violates the halving rule"):
        read_pyramid(manifest)


def test_read_pyramid_rejects_the_level_table_manifest(tmp_path, rng):
    p = build_pyramid("x", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8), 1)
    manifest = write_pyramid(p, tmp_path / "s")
    level = {"index": 0, "width": 8, "height": 8, "file": "level_00.ppm"}
    manifest.write_text(json.dumps({"slide_id": "x", "mpp_level0": None, "levels": [level]}))
    with pytest.raises(FormatError, match="manifest missing field 'n_levels'"):
        read_pyramid(manifest)


def _square(name, group, x0, y0, side):
    verts = np.array(
        [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)],
        dtype=np.float64,
    )
    return Annotation(name, group, verts)


def test_annotation_round_trip(tmp_path):
    aset = AnnotationSet("slide_a", [
        _square("t1", "tumor", 1.25, 2.5, 10),
        _square("t2", "stroma", 40.0, 40.0, 5.125),
    ])
    path = tmp_path / "slide_a.xml"
    serialize_annotations(aset, path)
    back = parse_annotations(path)
    assert annotation_sets_equal(aset, back)


def test_serialized_coords_have_six_decimals(tmp_path):
    aset = AnnotationSet("s", [_square("a", "g", 0.1234567, 3, 2)])
    path = tmp_path / "s.xml"
    serialize_annotations(aset, path)
    text = path.read_text()
    assert 'X="0.123457"' in text
    assert 'Y="3.000000"' in text


def test_parse_orders_vertices_by_order_attribute(tmp_path):
    path = tmp_path / "s.xml"
    path.write_text(
        '<?xml version="1.0"?>\n<ASAP_Annotations><Annotations>'
        '<Annotation Name="a" Type="Polygon" PartOfGroup="g"><Coordinates>'
        '<Coordinate Order="2" X="3" Y="3"/>'
        '<Coordinate Order="0" X="1" Y="1"/>'
        '<Coordinate Order="1" X="2" Y="1"/>'
        "</Coordinates></Annotation></Annotations></ASAP_Annotations>"
    )
    aset = parse_annotations(path)
    assert np.array_equal(aset.annotations[0].vertices, [(1, 1), (2, 1), (3, 3)])
    assert aset.slide_id == "s"


@pytest.mark.parametrize(
    "body",
    [
        # wrong root element
        "<NotASAP></NotASAP>",
        # missing PartOfGroup
        '<ASAP_Annotations><Annotations>'
        '<Annotation Name="a" Type="Polygon"><Coordinates>'
        '<Coordinate Order="0" X="1" Y="1"/><Coordinate Order="1" X="2" Y="1"/>'
        '<Coordinate Order="2" X="2" Y="2"/>'
        "</Coordinates></Annotation></Annotations></ASAP_Annotations>",
        # unsupported type
        '<ASAP_Annotations><Annotations>'
        '<Annotation Name="a" Type="Dot" PartOfGroup="g"><Coordinates>'
        '<Coordinate Order="0" X="1" Y="1"/><Coordinate Order="1" X="2" Y="1"/>'
        '<Coordinate Order="2" X="2" Y="2"/>'
        "</Coordinates></Annotation></Annotations></ASAP_Annotations>",
        # non-numeric coordinate
        '<ASAP_Annotations><Annotations>'
        '<Annotation Name="a" Type="Polygon" PartOfGroup="g"><Coordinates>'
        '<Coordinate Order="0" X="oops" Y="1"/><Coordinate Order="1" X="2" Y="1"/>'
        '<Coordinate Order="2" X="2" Y="2"/>'
        "</Coordinates></Annotation></Annotations></ASAP_Annotations>",
        # too few vertices
        '<ASAP_Annotations><Annotations>'
        '<Annotation Name="a" Type="Polygon" PartOfGroup="g"><Coordinates>'
        '<Coordinate Order="0" X="1" Y="1"/><Coordinate Order="1" X="2" Y="1"/>'
        "</Coordinates></Annotation></Annotations></ASAP_Annotations>",
    ],
)
def test_parse_rejects_malformed_xml(tmp_path, body):
    path = tmp_path / "bad.xml"
    path.write_text(body)
    with pytest.raises(FormatError):
        parse_annotations(path)


def test_duplicate_annotation_names_rejected():
    with pytest.raises(ValidationError):
        AnnotationSet("s", [_square("a", "g", 0, 0, 2), _square("a", "g", 5, 5, 2)])
