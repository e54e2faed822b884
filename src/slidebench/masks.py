"""Binary masks: polygon rasterization, tissue detection, label refinement.

A mask is stored as a binary PGM (P5), 0 or 255 per pixel, beside a JSON sidecar
that is exactly ``{"slide_id", "level", "kind"}``. ``kind`` is ``mask`` here and
``probability`` for ``ensemble``'s maps, and ``read_pgm_sidecar`` checks it for
both readers, so neither format is read as the other.

Rasterization uses the even-odd rule evaluated at pixel centers (x+0.5,
y+0.5) with half-open scanline crossings, so results match a per-pixel
point-in-polygon test exactly. Tissue detection thresholds Rec.601 luma,
either at an Otsu split or at the fixed gray value 200; tissue is the
darker side in both cases.

Luma is Rec.601 rounded half up, the exact integer
``(299r + 587g + 114b + 500) // 1000``. Luma and tissue detection stream
through blocks of whole rows of about ``_LUMA_CHUNK_PIXELS`` (2**16) pixels,
so each temporary stays in cache. Both start from ``s = 299r + 587g + 114b``,
an integer below 2**24 that a float32 dot product gives exactly, in whatever
order BLAS sums it. The tissue test ``luma <= t`` never rounds: a pixel is
tissue iff ``s < 1000t + 500``. ``tissue_threshold`` gives t for either
method; Gray200 masks and the per-band tile filter of ``tiling`` test row
blocks against it. The Otsu tissue mask reads the RGB level once: each
block's luma goes into the output mask's own bytes and its counts into an
int64 histogram, and the mask is then thresholded in place. No level-sized
float, luma or intp array is allocated. Blocking is bit-exact: every test is
per pixel, and the histogram is an exact integer sum of per-block counts.
"""
from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm, parallel
from .errors import METHOD_GRAY200, METHOD_OTSU, TISSUE_METHODS
from .errors import DegenerateHistogramError, DegeneratePolygonWarning, FormatError, GeometryError
from .errors import ValidationError, format_json, naming, read_text, typed_field, write_text
from .slide_io import AnnotationSet, SlidePyramid

GRAY200_THRESHOLD = 200

# 1000 x the Rec.601 weights: every 299r + 587g + 114b is below 2**24, exact in float32
_LUMA_SUMS = np.float32([299, 587, 114])


@dataclass(eq=False)
class BinaryMask:
    """Single-level 1-bit raster of one slide."""

    slide_id: str
    level: int
    data: np.ndarray  # (height, width) bool

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def count(self) -> int:
        """Number of set pixels."""
        return int(np.count_nonzero(self.data))

    def validate(self) -> None:
        if self.data.ndim != 2 or self.data.dtype != np.bool_:
            raise ValidationError(
                f"mask for {self.slide_id}: expected 2-D bool raster, got "
                f"{self.data.shape} ({self.data.dtype})"
            )
        if self.level < 0:
            raise ValidationError(f"mask for {self.slide_id}: negative level {self.level}")

    __post_init__ = validate


# Pixels per block. Blocks of 2**16-2**17 pixels measured fastest for luma on a 6144^2
# raster (2-core host, 2 MiB L2 per core, 300 MiB L3): one block's float32 temporaries
# (768 KiB for the float copy of its RGB) stay in L2.
_LUMA_CHUNK_PIXELS = 1 << 16


def _row_blocks(height: int, width: int):
    """Slices of whole rows covering ``height`` rows, about _LUMA_CHUNK_PIXELS each."""
    rows = max(1, _LUMA_CHUNK_PIXELS // max(1, width))
    return (slice(y, min(y + rows, height)) for y in range(0, height, rows))


def luma(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 grayscale of an RGB8 raster: ``(s + 500) // 1000`` as uint8, where
    ``s = 299r + 587g + 114b``.

    It is computed as ``trunc(s * 0.001 + 0.5005)`` in float32, which equals
    ``(s + 500) // 1000`` for every s up to 255,000. Rows go in blocks of about
    2**16 pixels; each pixel is computed alone, so the blocking does not change
    the result.
    """
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[-1] != 3:
        raise GeometryError(f"luma expects (..., 3) RGB, got shape {arr.shape}")
    h, w = arr.shape[0], arr.shape[1]
    out = np.empty((h, w), dtype=np.uint8)
    for rows in _row_blocks(h, w):
        g = _sums(arr[rows])
        g *= np.float32(0.001)
        g += np.float32(0.5005)
        out[rows] = g  # the cast truncates
    return out


def _sums(rgb: np.ndarray) -> np.ndarray:
    """``299r + 587g + 114b`` per pixel: an integer below 2**24, so exact in float32."""
    return rgb.astype(np.float32) @ _LUMA_SUMS


def _dark(rgb: np.ndarray, threshold: int) -> np.ndarray:
    """``luma(rgb) <= threshold``, exactly and without rounding: ``s < 1000t + 500``."""
    return _sums(rgb) < 1000 * threshold + 500


def rasterize(aset: AnnotationSet, level: int, width: int, height: int) -> BinaryMask:
    """Rasterize the union of polygons onto a level-k grid.

    Vertices are scaled by 1/2**level before filling. A pixel is set iff its
    center lies inside at least one polygon under the even-odd rule; geometry
    outside the grid is clamped by discarding.
    """
    if width < 1 or height < 1:
        raise GeometryError(f"rasterize: empty target grid {width}x{height}")
    data = np.zeros((height, width), dtype=bool)
    scale = 0.5**level
    for ann in aset.annotations:
        verts = np.asarray(ann.vertices, dtype=np.float64) * scale
        if _collinear(verts):
            warnings.warn(
                f"annotation {ann.name!r} is degenerate at level {level}; no pixels filled",
                DegeneratePolygonWarning,
                stacklevel=2,
            )
            continue
        _fill_even_odd(data, verts)
    return BinaryMask(aset.slide_id, level, data)


def _collinear(verts: np.ndarray) -> bool:
    """Whether every vertex lies on one line: on the line from the first vertex to the one
    farthest from it, tested exactly on the coordinates as integers at one common scale. A
    polygon whose signed lobes cancel, such as a symmetric bow-tie, still fills its pixels."""
    ratios = [c.as_integer_ratio() for c in verts.ravel().tolist()]
    scale = max(d for _, d in ratios)  # each d is a power of 2, so each divides the largest
    ints = [n * (scale // d) for n, d in ratios]
    (x0, y0), *rest = zip(ints[0::2], ints[1::2])
    fx, fy = max(rest, key=lambda v: (v[0] - x0) ** 2 + (v[1] - y0) ** 2)
    return all((fx - x0) * (y - y0) == (fy - y0) * (x - x0) for x, y in rest)


def _fill_even_odd(data: np.ndarray, verts: np.ndarray) -> None:
    """Scanline even-odd fill at pixel centers; mutates ``data`` in place.

    One pass finds every crossing of an edge with a row's center line y = j + 0.5,
    half-open at the edge's upper end so a vertex on the line counts once. Each
    non-horizontal edge is tested on the rows its y-range may reach, and the crossings
    are sorted by row, then x. Every row holds an even number of them, and each pair
    fills the pixels whose centers i + 0.5 lie in [a, b).
    """
    h, w = data.shape
    x0 = verts[:, 0]
    y0 = verts[:, 1]
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)
    keep = y0 != y1  # horizontal edges never cross a center scanline
    x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
    j_lo = np.clip(np.floor(np.minimum(y0, y1) - 0.5), 0, h).astype(np.intp)
    j_hi = np.clip(np.ceil(np.maximum(y0, y1)), -1, h - 1).astype(np.intp)
    counts = np.maximum(j_hi - j_lo + 1, 0)  # rows each edge may cross
    edge = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(len(edge)) + np.repeat(j_lo - (np.cumsum(counts) - counts), counts)
    yc = j + 0.5
    ya, yb = y0[edge], y1[edge]
    crossing = ((ya <= yc) & (yc < yb)) | ((yb <= yc) & (yc < ya))
    edge, j, yc = edge[crossing], j[crossing], yc[crossing]
    xs = x0[edge] + (yc - y0[edge]) * (x1[edge] - x0[edge]) / (y1[edge] - y0[edge])
    order = np.lexsort((xs, j))
    xs, j = xs[order], j[order]
    i0 = np.clip(np.ceil(xs[0::2] - 0.5), 0, w).astype(np.intp)
    i1 = np.clip(np.ceil(xs[1::2] - 0.5), 0, w).astype(np.intp)
    for row, a, b in zip(j[0::2].tolist(), i0.tolist(), i1.tolist()):
        if a < b:
            data[row, a:b] = True


def otsu_threshold(histogram) -> int:
    """Threshold maximizing between-class variance over splits [0..t], [t+1..255].

    Comparisons use exact integer arithmetic; ties resolve to the smallest t.
    """
    counts = [int(c) for c in histogram]
    if len(counts) != 256:
        raise ValidationError(f"histogram must have 256 bins, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValidationError("histogram counts must be non-negative")
    total = sum(counts)
    if total < 1:
        raise ValidationError("histogram is empty")

    sum_all = sum(i * c for i, c in enumerate(counts))
    best_t = -1
    best_num2 = 0
    best_den = 1
    w0 = 0
    s0 = 0
    for t in range(256):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        # between-class variance is proportional to (s0*w1 - s1*w0)^2 / (w0*w1)
        num = s0 * w1 - (sum_all - s0) * w0
        num2 = num * num
        den = w0 * w1
        if best_t < 0 or num2 * best_den > best_num2 * den:
            best_t, best_num2, best_den = t, num2, den
    if best_t < 0:
        raise DegenerateHistogramError("all histogram mass in a single bin")
    return best_t


def tissue_threshold(pixels: np.ndarray, method: str, workers: int = 1) -> int:
    """The cut t of ``method`` on an RGB level, whose tissue is ``luma <= t``: 200 for Gray200,
    and for Otsu the ``otsu_threshold`` of the level's luma histogram, counted on the pool."""
    if method not in TISSUE_METHODS:
        raise ValidationError(f"unknown tissue method {method!r}")
    if method == METHOD_GRAY200:
        return GRAY200_THRESHOLD
    n = parallel.processes(workers, len(pixels))  # one row slice per pool process
    hists = parallel.run_chunks(lambda i: _luma_histogram(pixels[i::n]), range(n), workers)
    return otsu_threshold(sum(hists))


def _luma_histogram(pixels: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """The int64 luma histogram of an RGB raster, summed over row blocks; with ``keep``, an
    (h, w) uint8 array, each block's luma is also stored there."""
    hist = np.zeros(256, dtype=np.int64)
    for rows in _row_blocks(*pixels.shape[:2]):
        g = luma(pixels[rows])
        if keep is not None:
            keep[rows] = g
        hist += np.bincount(g.ravel(), minlength=256)
    return hist


def tissue_mask(pyramid: SlidePyramid, level: int, method: str = METHOD_OTSU) -> BinaryMask:
    """Tissue mask of one level: pixels whose luma falls on the dark side.

    Otsu thresholds at the between-class-variance argmax of the level's luma
    histogram; Gray200 uses the fixed threshold 200. Both include the
    threshold value itself (g <= t is tissue). Gray200 tests each row block
    against ``tissue_threshold``. Otsu reads the RGB level once: each block's luma goes
    into the mask's own bytes and its counts into the histogram, and the
    mask is then thresholded in place.
    """
    pixels = pyramid.level(level).pixels
    data = np.empty(pixels.shape[:2], dtype=bool)
    if method == METHOD_OTSU:
        g = data.view(np.uint8)
        t = otsu_threshold(_luma_histogram(pixels, keep=g))
        np.less_equal(g, t, out=data)  # in place, element for element
    else:
        t = tissue_threshold(pixels, method)
        for rows in _row_blocks(*pixels.shape[:2]):
            data[rows] = _dark(pixels[rows], t)
    return BinaryMask(pyramid.slide_id, level, data)


def check_same_grid(operation: str, *items) -> None:
    """Masks or probability maps combined pixel for pixel: GeometryError unless they share
    one level and shape, ValidationError unless they share one slide id."""
    if not items:
        raise ValidationError(f"{operation}: no inputs given")
    first = items[0]
    for item in items[1:]:
        if (item.level, item.height, item.width) != (first.level, first.height, first.width):
            raise GeometryError(
                f"{operation}: level {item.level} {item.width}x{item.height} does not match "
                f"level {first.level} {first.width}x{first.height}"
            )
        if item.slide_id != first.slide_id:
            raise ValidationError(
                f"{operation}: slide {item.slide_id!r} does not match slide {first.slide_id!r}"
            )


def refine_labels(gt: BinaryMask, tissue: BinaryMask) -> BinaryMask:
    """Intersect a noisy ground-truth mask with a tissue mask."""
    check_same_grid("refine_labels", gt, tissue)
    return BinaryMask(gt.slide_id, gt.level, gt.data & tissue.data)


def write_mask(mask: BinaryMask, path: str | Path) -> None:
    """Serialize as binary PGM (0 = background, 255 = set) plus a JSON sidecar."""
    with mask_writer(path, mask.slide_id, mask.level, mask.width, mask.height) as append:
        for rows in _row_blocks(mask.height, mask.width):
            append(mask.data[rows])


@contextmanager
def mask_writer(path: str | Path, slide_id: str, level: int, width: int, height: int):
    """Write a mask as ``write_mask`` does, from blocks of whole bool rows: yields
    ``append``, which writes one block, top to bottom; the sidecar follows the rows."""
    path = Path(path)
    with netpbm.row_writer(path, b"P5", width, height) as append:
        yield lambda rows: append(rows.view(np.uint8) * np.uint8(255))
    write_pgm_sidecar(path, slide_id, level, "mask")


def read_mask(path: str | Path) -> BinaryMask:
    """Load a PGM mask and its sidecar metadata; the raster becomes bool in place."""
    gray, slide_id, level = read_pgm_sidecar(path, "mask")
    data = gray.view(np.bool_)
    np.not_equal(gray, 0, out=data)
    with naming(path):
        return BinaryMask(slide_id, level, data)


def write_pgm_sidecar(path: Path, slide_id: str, level: int, kind: str) -> None:
    """Write the JSON sidecar of the ``kind`` PGM at ``path``, which ``read_pgm_sidecar``
    reads."""
    write_text(path.with_suffix(".json"),
               format_json({"slide_id": slide_id, "level": level, "kind": kind}))


def read_pgm_sidecar(path: str | Path, kind: str) -> tuple[np.ndarray, str, int]:
    """A PGM raster and the slide id and level of its JSON sidecar, which must hold a str
    ``slide_id``, an int ``level`` and the ``kind`` given: ``mask`` or ``probability``."""
    path = Path(path)
    gray = netpbm.read_p5(path)
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise FormatError(f"{path}: missing sidecar {sidecar_path}")
    meta = read_text(sidecar_path, f"{kind} sidecar", json.loads)
    where = f"{sidecar_path}: {kind} sidecar"
    slide_id = typed_field(meta, "slide_id", str, where)
    level = typed_field(meta, "level", int, where)
    if typed_field(meta, "kind", str, where) != kind:
        raise FormatError(f"{where} field 'kind' is {meta['kind']!r}, expected {kind!r}")
    return gray, slide_id, level
