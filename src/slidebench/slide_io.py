"""Slide pyramid interchange format and polygon annotation XML.

A slide is a directory: ``manifest.json``, exactly ``{"slide_id", "n_levels"}``,
plus one binary PPM (P6) raster per pyramid level, level k in
``level_{k:02d}.ppm`` (``level_file``). Level k is downsampled by exactly
2**k, with ceil division for odd dimensions; each level's dimensions come
from its own PPM header, and ``SlidePyramid`` checks the halving rule.
Annotations are closed polygons in level-0 pixel coordinates, read and
written in the ASAP XML dialect.
"""
from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import netpbm
from .errors import FormatError, ValidationError, format_json, naming, read_text, typed_field
from .errors import write_text

COORD_DECIMALS = 6


@dataclass(eq=False)
class PyramidLevel:
    """One resolution level, an RGB8 raster; its index is its position in the pyramid."""

    pixels: np.ndarray  # (height, width, 3) uint8

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def validate(self) -> None:
        shape = self.pixels.shape
        if len(shape) != 3 or shape[2] != 3 or min(shape) < 1 or self.pixels.dtype != np.uint8:
            raise ValidationError(
                f"level raster shape {shape} ({self.pixels.dtype}) is not a non-empty "
                "height x width x 3 uint8"
            )

    __post_init__ = validate


@dataclass(eq=False)
class SlidePyramid:
    """Multi-resolution RGB raster of one slide."""

    slide_id: str
    levels: list[PyramidLevel]

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
        w0, h0 = self.levels[0].width, self.levels[0].height
        for k, lvl in enumerate(self.levels):
            ew, eh = level_dimensions(w0, h0, k)
            if (lvl.width, lvl.height) != (ew, eh):
                raise ValidationError(
                    f"slide {self.slide_id} level {k}: {lvl.width}x{lvl.height} violates the "
                    f"halving rule (expected {ew}x{eh})"
                )

    __post_init__ = validate


def level_dimensions(width0: int, height0: int, level: int) -> tuple[int, int]:
    """Expected (width, height) of a level under the ceil-halving rule, exact at any level."""
    return -(-width0 >> level), -(-height0 >> level)


def level_file(directory: str | Path, level: int) -> Path:
    """The PPM raster of pyramid level ``level`` in a slide directory."""
    return Path(directory) / f"level_{level:02d}.ppm"


def build_pyramid(slide_id: str, level0: np.ndarray, n_levels: int) -> SlidePyramid:
    """Build a pyramid from a level-0 raster by 2x nearest-neighbor subsampling."""
    base = np.ascontiguousarray(level0, dtype=np.uint8)
    levels = [PyramidLevel(np.ascontiguousarray(base[:: 2**k, :: 2**k])) for k in range(n_levels)]
    return SlidePyramid(slide_id, levels)


def write_pyramid(pyramid: SlidePyramid, directory: str | Path) -> Path:
    """Write manifest + per-level PPM rasters; returns the manifest path.

    Output bytes are deterministic for equal inputs.
    """
    dims = [(lvl.width, lvl.height) for lvl in pyramid.levels]
    blocks = enumerate(lvl.pixels for lvl in pyramid.levels)
    return _write_levels(directory, pyramid.slide_id, dims, blocks)


def write_pyramid_rows(
    slide_id: str, width: int, height: int, n_levels: int, chunks, directory: str | Path
) -> Path:
    """Write the pyramid ``build_pyramid`` makes of a level-0 raster that comes in row
    chunks, with the bytes ``write_pyramid`` writes for it; returns the manifest path.

    ``chunks`` yields ``(y0, rows)``: level-0 rows from ``y0`` on, top to bottom. Level k
    keeps the level-0 rows and columns that ``2**k`` divides, so each chunk's share of
    every level is appended as it comes and no level is held whole.
    """
    dims = [level_dimensions(width, height, k) for k in range(n_levels)]
    blocks = ((k, rows[-y0 % 2**k :: 2**k, :: 2**k])
              for y0, rows in chunks for k in range(n_levels))
    return _write_levels(directory, slide_id, dims, blocks)


def _write_levels(directory: str | Path, slide_id: str, dims: list, blocks) -> Path:
    """Write every level's PPM header, append each ``(k, rows)`` of ``blocks`` to level k,
    then write the manifest; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        appends = [stack.enter_context(netpbm.row_writer(level_file(directory, k), b"P6", w, h))
                   for k, (w, h) in enumerate(dims)]
        for k, rows in blocks:
            appends[k](rows)
    manifest_path = directory / "manifest.json"
    write_text(manifest_path, format_json({"slide_id": slide_id, "n_levels": len(dims)}))
    return manifest_path


def read_pyramid(manifest_path: str | Path) -> SlidePyramid:
    """Load a pyramid from its manifest and its level files; a missing level file raises
    the OSError of its open."""
    manifest_path = Path(manifest_path)
    manifest = read_text(manifest_path, "manifest", json.loads)
    where = f"{manifest_path}: manifest"
    slide_id = typed_field(manifest, "slide_id", str, where)
    n_levels = typed_field(manifest, "n_levels", int, where)
    levels = [PyramidLevel(netpbm.read_p6(level_file(manifest_path.parent, k)))
              for k in range(n_levels)]
    with naming(manifest_path):
        return SlidePyramid(slide_id, levels)


@dataclass(eq=False)
class Annotation:
    """One named closed polygon in level-0 pixel coordinates."""

    name: str
    group: str
    vertices: np.ndarray  # (n, 2) float64, implicitly closed

    def validate(self) -> None:
        verts = np.asarray(self.vertices, dtype=np.float64)
        if not np.all(np.isfinite(verts)):
            raise ValidationError(f"annotation {self.name!r} has a non-finite coordinate")
        # float64 holds every integer below 2**53; far past it the fill's edge products overflow
        if np.any(np.abs(verts) >= 2.0**53):
            raise ValidationError(f"annotation {self.name!r} has a coordinate of magnitude >= 2**53")
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValidationError(f"annotation {self.name!r}: vertices are not (x, y) pairs")
        if len(verts) < 3:
            raise ValidationError(f"annotation {self.name!r} has fewer than 3 vertices")

    __post_init__ = validate


@dataclass(eq=False)
class AnnotationSet:
    """All polygon annotations of one slide."""

    slide_id: str
    annotations: list[Annotation] = field(default_factory=list)

    def validate(self) -> None:
        seen = set()
        for ann in self.annotations:
            if ann.name in seen:
                raise ValidationError(f"duplicate annotation name {ann.name!r}")
            seen.add(ann.name)

    __post_init__ = validate


def parse_annotations(xml_path: str | Path) -> AnnotationSet:
    """Parse an ASAP-style polygon annotation file.

    Vertices are returned sorted by their ``Order`` attribute. The slide id
    is taken from the file stem.
    """
    xml_path = Path(xml_path)
    try:
        root = ET.parse(xml_path).getroot()
    except (ET.ParseError, LookupError) as exc:  # LookupError: unknown encoding
        raise FormatError(f"{xml_path}: malformed XML: {exc}") from exc
    if root.tag != "ASAP_Annotations":
        raise FormatError(f"{xml_path}: root element is {root.tag!r}, expected 'ASAP_Annotations'")

    annotations = []
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
            parsed.append((order, x, y))
        parsed.sort(key=lambda t: t[0])
        vertices = np.array([(x, y) for _, x, y in parsed], dtype=np.float64).reshape(-1, 2)
        annotations.append((name, group, vertices))

    with naming(xml_path):
        return AnnotationSet(xml_path.stem, [Annotation(*a) for a in annotations])


def serialize_annotations(aset: AnnotationSet, xml_path: str | Path) -> None:
    """Write an annotation set as ASAP XML; coordinates printed to 6 decimals."""
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
    ET.indent(root)
    write_text(xml_path, ET.tostring(root, encoding="unicode", xml_declaration=True))
