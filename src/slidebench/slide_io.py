"""Slide pyramid interchange format and polygon annotation XML.

A slide is stored as a JSON manifest plus one binary PPM (P6) raster per
pyramid level. Level k is downsampled by exactly 2**k, with ceil division
for odd dimensions. Annotations are closed polygons in level-0 pixel
coordinates, read and written in the ASAP XML dialect.
"""
from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import netpbm
from .errors import FormatError, ValidationError, typed_field

COORD_DECIMALS = 6


@dataclass(eq=False)
class PyramidLevel:
    """One resolution level: an RGB8 raster plus its index in the pyramid."""

    index: int
    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) uint8

    def validate(self) -> None:
        if self.index < 0:
            raise ValidationError(f"level index {self.index} is negative")
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"level {self.index}: empty dimensions {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width, 3) or self.pixels.dtype != np.uint8:
            raise ValidationError(
                f"level {self.index}: raster shape {self.pixels.shape} ({self.pixels.dtype}) "
                f"does not match {self.height}x{self.width}x3 uint8"
            )


@dataclass(eq=False)
class SlidePyramid:
    """Multi-resolution RGB raster of one slide."""

    slide_id: str
    levels: list[PyramidLevel]
    mpp_level0: float | None = None

    @property
    def width(self) -> int:
        return self.levels[0].width

    @property
    def height(self) -> int:
        return self.levels[0].height

    def level(self, index: int) -> PyramidLevel:
        if not 0 <= index < len(self.levels):
            raise ValidationError(f"slide {self.slide_id} has no level {index}")
        return self.levels[index]

    def validate(self) -> None:
        if not self.levels:
            raise ValidationError(f"slide {self.slide_id}: pyramid has no levels")
        if self.mpp_level0 is not None and not self.mpp_level0 > 0:
            raise ValidationError(f"slide {self.slide_id}: mpp_level0 must be positive")
        w0, h0 = self.levels[0].width, self.levels[0].height
        for k, lvl in enumerate(self.levels):
            lvl.validate()
            if lvl.index != k:
                raise ValidationError(f"slide {self.slide_id}: level indices not contiguous at {k}")
            ew, eh = level_dimensions(w0, h0, k)
            if (lvl.width, lvl.height) != (ew, eh):
                raise ValidationError(
                    f"slide {self.slide_id} level {k}: {lvl.width}x{lvl.height} violates the "
                    f"halving rule (expected {ew}x{eh})"
                )


def level_dimensions(width0: int, height0: int, level: int) -> tuple[int, int]:
    """Expected (width, height) of a level under the ceil-halving rule, exact at any level."""
    return -(-width0 >> level), -(-height0 >> level)


def build_pyramid(
    slide_id: str,
    level0: np.ndarray,
    n_levels: int,
    mpp_level0: float | None = None,
) -> SlidePyramid:
    """Build a pyramid from a level-0 raster by 2x nearest-neighbor subsampling."""
    base = np.ascontiguousarray(level0, dtype=np.uint8)
    levels = []
    for k in range(n_levels):
        arr = base[:: 2**k, :: 2**k]
        levels.append(PyramidLevel(k, arr.shape[1], arr.shape[0], np.ascontiguousarray(arr)))
    pyramid = SlidePyramid(slide_id, levels, mpp_level0)
    pyramid.validate()
    return pyramid


def write_pyramid(pyramid: SlidePyramid, directory: str | Path) -> Path:
    """Write manifest + per-level PPM rasters; returns the manifest path.

    Output bytes are deterministic for equal inputs.
    """
    pyramid.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for lvl in pyramid.levels:
        name = f"level_{lvl.index:02d}.ppm"
        netpbm.write_p6(directory / name, lvl.pixels)
        entries.append({"index": lvl.index, "width": lvl.width, "height": lvl.height, "file": name})
    manifest = {
        "slide_id": pyramid.slide_id,
        "mpp_level0": pyramid.mpp_level0,
        "levels": entries,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def read_pyramid(manifest_path: str | Path) -> SlidePyramid:
    """Load a pyramid from its manifest, checking every format invariant."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{manifest_path}: cannot read manifest: {exc}") from exc
    where = f"{manifest_path}: manifest"
    slide_id = typed_field(manifest, "slide_id", str, where)
    mpp = typed_field(manifest, "mpp_level0", (int, float, type(None)), where)
    entries = typed_field(manifest, "levels", list, where)
    if not entries:
        raise FormatError(f"{manifest_path}: manifest declares no levels")

    levels = []
    where = f"{manifest_path}: level entry"
    for entry in entries:
        index = typed_field(entry, "index", int, where)
        width = typed_field(entry, "width", int, where)
        height = typed_field(entry, "height", int, where)
        name = typed_field(entry, "file", str, where)
        raster_path = manifest_path.parent / name
        if not raster_path.exists():
            raise FormatError(f"{manifest_path}: missing level file {raster_path}")
        pixels = netpbm.read_p6(raster_path)
        if pixels.shape != (height, width, 3):
            raise FormatError(
                f"{raster_path}: raster is {pixels.shape[1]}x{pixels.shape[0]}, "
                f"manifest declares {width}x{height}"
            )
        levels.append(PyramidLevel(index, width, height, pixels))

    pyramid = SlidePyramid(slide_id, levels, mpp)
    try:
        pyramid.validate()
    except ValidationError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from exc
    return pyramid


@dataclass(eq=False)
class Annotation:
    """One named closed polygon in level-0 pixel coordinates."""

    name: str
    group: str
    vertices: np.ndarray  # (n, 2) float64, implicitly closed

    def validate(self) -> None:
        verts = np.asarray(self.vertices, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValidationError(f"annotation {self.name!r}: needs >= 3 (x, y) vertices")
        if not np.all(np.isfinite(verts)):
            raise ValidationError(f"annotation {self.name!r}: non-finite coordinate")


@dataclass(eq=False)
class AnnotationSet:
    """All polygon annotations of one slide."""

    slide_id: str
    annotations: list[Annotation] = field(default_factory=list)

    def validate(self) -> None:
        seen = set()
        for ann in self.annotations:
            ann.validate()
            if ann.name in seen:
                raise ValidationError(f"duplicate annotation name {ann.name!r}")
            seen.add(ann.name)


def parse_annotations(xml_path: str | Path) -> AnnotationSet:
    """Parse an ASAP-style polygon annotation file.

    Vertices are returned sorted by their ``Order`` attribute. The slide id
    is taken from the file stem.
    """
    xml_path = Path(xml_path)
    try:
        root = ET.parse(xml_path).getroot()
    except (OSError, ET.ParseError, LookupError) as exc:  # LookupError: unknown encoding
        raise FormatError(f"{xml_path}: malformed XML: {exc}") from exc
    if root.tag != "ASAP_Annotations":
        raise FormatError(f"{xml_path}: root element is {root.tag!r}, expected 'ASAP_Annotations'")

    annotations = []
    names = set()
    container = root.find("Annotations")
    elements = [] if container is None else container.findall("Annotation")
    for el in elements:
        name = el.get("Name")
        a_type = el.get("Type")
        group = el.get("PartOfGroup")
        if name is None or group is None:
            raise FormatError(f"{xml_path}: Annotation element missing Name or PartOfGroup")
        if a_type != "Polygon":
            raise FormatError(f"{xml_path}: annotation {name!r} has unsupported Type {a_type!r}")
        if name in names:
            raise FormatError(f"{xml_path}: duplicate annotation name {name!r}")
        names.add(name)

        coords = el.find("Coordinates")
        points = [] if coords is None else coords.findall("Coordinate")
        parsed = []
        for pt in points:
            try:
                order = int(pt.get("Order"))
                x = float(pt.get("X"))
                y = float(pt.get("Y"))
            except (TypeError, ValueError) as exc:
                raise FormatError(
                    f"{xml_path}: annotation {name!r} has a non-numeric coordinate"
                ) from exc
            if not (math.isfinite(x) and math.isfinite(y)):
                raise FormatError(f"{xml_path}: annotation {name!r} has a non-finite coordinate")
            parsed.append((order, x, y))
        if len(parsed) < 3:
            raise FormatError(f"{xml_path}: annotation {name!r} has fewer than 3 vertices")
        parsed.sort(key=lambda t: t[0])
        vertices = np.array([(x, y) for _, x, y in parsed], dtype=np.float64)
        annotations.append(Annotation(name, group, vertices))

    return AnnotationSet(slide_id=xml_path.stem, annotations=annotations)


def serialize_annotations(aset: AnnotationSet, xml_path: str | Path) -> None:
    """Write an annotation set as ASAP XML; coordinates printed to 6 decimals."""
    aset.validate()
    root = ET.Element("ASAP_Annotations")
    container = ET.SubElement(root, "Annotations")
    for ann in aset.annotations:
        el = ET.SubElement(
            container,
            "Annotation",
            {"Name": ann.name, "Type": "Polygon", "PartOfGroup": ann.group},
        )
        coords = ET.SubElement(el, "Coordinates")
        for order, (x, y) in enumerate(np.asarray(ann.vertices, dtype=np.float64)):
            ET.SubElement(
                coords,
                "Coordinate",
                {
                    "Order": str(order),
                    "X": f"{x:.{COORD_DECIMALS}f}",
                    "Y": f"{y:.{COORD_DECIMALS}f}",
                },
            )
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(xml_path, encoding="unicode", xml_declaration=True)
