"""Tile grids and training-label assignment.

Two labeling families are supported: a 75%-overlap rule (Positive above a
strict 3/4 tumor fraction, Negative at exactly zero, Unused between) and an
all-or-nothing three-class rule (Tumor / Normal / Mix), optionally applied to
the nine uniform 256-pixel sub-patches of a 768-pixel big patch. Tumor
fractions are exact integer pixel counts, never floats.

A tissue filter keeps the tiles whose window holds at least one tissue
pixel. Tissue and tumor pixels are counted per window over row bands cut at
every window's top and bottom edge; a tile's counts are differences of band
prefix sums. All pixel work runs on the worker pool: one pass over the bands
counts both, after one over interleaved rows for the Otsu filter's histogram.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import parallel
from .errors import RULE_BIG_PATCH_NINE, RULE_THREECLASS, RULE_THRESHOLD75, RULES, TISSUE_METHODS
from .errors import FormatError, GeometryError, ValidationError, naming, read_text, typed_field
from .masks import BinaryMask, _dark, _row_blocks, tissue_threshold
from .slide_io import SlidePyramid

LABEL_POSITIVE = "Positive"
LABEL_NEGATIVE = "Negative"
LABEL_UNUSED = "Unused"
LABEL_TUMOR = "Tumor"
LABEL_NORMAL = "Normal"
LABEL_MIX = "Mix"
LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_UNUSED, LABEL_TUMOR, LABEL_NORMAL, LABEL_MIX)

MANIFEST_FIELDS = ("slide_id", "level", "x", "y", "size", "tumor_pixels", "total_pixels", "label")


@dataclass(frozen=True)
class TileRecord:
    slide_id: str
    level: int
    x: int
    y: int
    size: int
    tumor_pixels: int
    total_pixels: int
    label: str

    def validate(self) -> None:
        if self.size < 1:
            raise ValidationError(f"tile at ({self.x},{self.y}): size {self.size} < 1")
        if self.x < 0 or self.y < 0 or self.level < 0:
            raise ValidationError(f"tile at ({self.x},{self.y}): negative origin or level")
        if self.total_pixels != self.size * self.size:
            raise ValidationError(
                f"tile at ({self.x},{self.y}): total_pixels {self.total_pixels} != size^2"
            )
        if not 0 <= self.tumor_pixels <= self.total_pixels:
            raise ValidationError(
                f"tile at ({self.x},{self.y}): tumor_pixels {self.tumor_pixels} out of range"
            )
        if self.label not in LABELS:
            raise ValidationError(f"tile at ({self.x},{self.y}): unknown label {self.label!r}")

    __post_init__ = validate


@dataclass(frozen=True)
class TilingConfig:
    tile_size: int = 256
    stride: int | None = None
    rule: str = RULE_THRESHOLD75
    tissue_filter: str | None = None

    @property
    def effective_stride(self) -> int:
        return self.tile_size if self.stride is None else self.stride

    def validate(self) -> None:
        if self.tile_size < 1:
            raise ValidationError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.effective_stride < 1:
            raise ValidationError(f"stride must be >= 1, got {self.stride}")
        if self.rule not in RULES:
            raise ValidationError(f"unknown labeling rule {self.rule!r}")
        if self.rule == RULE_BIG_PATCH_NINE and self.tile_size % 3 != 0:
            raise ValidationError(
                f"big-patch rule needs tile_size divisible by 3, got {self.tile_size}"
            )
        if self.tissue_filter is not None and self.tissue_filter not in TISSUE_METHODS:
            raise ValidationError(f"unknown tissue filter {self.tissue_filter!r}")

    __post_init__ = validate


def _grid_axes(p: SlidePyramid, level: int, cfg: TilingConfig) -> tuple[np.ndarray, list[int]]:
    """Ascending x and y origins of the tiles ``extract_tiles`` labels at ``level``; the grid
    is their product.

    Partial edge tiles are dropped, never padded. Under the big-patch rule a
    big patch at ``o`` on an axis gives its three sub-tile origins ``o + i*sub``
    for ``i`` < 3, ``sub = tile_size // 3``, and neighbouring big patches may
    share some.
    """
    lvl = p.level(level)
    size, stride = cfg.tile_size, cfg.effective_stride
    if size > lvl.width or size > lvl.height:
        raise GeometryError(f"tile_size {size} exceeds level {level} dims {lvl.width}x{lvl.height}")
    xs, ys = (range(0, n - size + 1, stride) for n in (lvl.width, lvl.height))
    if cfg.rule == RULE_BIG_PATCH_NINE:
        sub = size // 3
        xs, ys = (sorted({o + i * sub for o in axis for i in range(3)}) for axis in (xs, ys))
    return np.array(xs, dtype=np.int64), list(ys)


def label_threshold75(tumor_pixels: int, total_pixels: int) -> str:
    """Positive above a strict 3/4 tumor fraction, Negative at zero, else Unused."""
    if tumor_pixels == 0:
        return LABEL_NEGATIVE
    if 4 * tumor_pixels > 3 * total_pixels:
        return LABEL_POSITIVE
    return LABEL_UNUSED


def label_threeclass(tumor_pixels: int, total_pixels: int) -> str:
    """Tumor iff every pixel is tumor, Normal iff none, else Mix."""
    if tumor_pixels == total_pixels:
        return LABEL_TUMOR
    if tumor_pixels == 0:
        return LABEL_NORMAL
    return LABEL_MIX


def rebalance_mix(records: list[TileRecord], seed: int) -> list[TileRecord]:
    """Fold Mix tiles into Tumor/Normal, then subsample the majority class.

    A Mix tile becomes Tumor when its tumor fraction is at least 1/2, Normal
    otherwise. The larger of the two classes is then subsampled (seeded,
    without replacement) to the smaller one's count; survivors keep their
    original relative order.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    folded = []
    for rec in records:
        if rec.label == LABEL_MIX:
            new = LABEL_TUMOR if 2 * rec.tumor_pixels >= rec.total_pixels else LABEL_NORMAL
            rec = replace(rec, label=new)
        folded.append(rec)
    tumor_idx = [i for i, r in enumerate(folded) if r.label == LABEL_TUMOR]
    normal_idx = [i for i, r in enumerate(folded) if r.label == LABEL_NORMAL]
    n_keep = min(len(tumor_idx), len(normal_idx))
    rng = np.random.default_rng(seed)
    keep = set()
    for idx in (tumor_idx, normal_idx):
        if len(idx) > n_keep:
            chosen = rng.choice(len(idx), size=n_keep, replace=False)
            keep.update(idx[i] for i in sorted(chosen))
        else:
            keep.update(idx)
    return [r for i, r in enumerate(folded) if i in keep or r.label not in (LABEL_TUMOR, LABEL_NORMAL)]


def _window_sums(colsum: np.ndarray, size: int, xs: np.ndarray) -> np.ndarray:
    """Sums of ``size`` consecutive column totals starting at each x origin."""
    cs = np.concatenate(([0], np.cumsum(colsum, dtype=np.int64)))
    return cs[xs + size] - cs[xs]


def _bands(ys: list, size: int) -> tuple[list, dict]:
    """The row bands between consecutive window edges (each ``y`` and ``y + size``) that a
    window covers, so not the gaps a stride past the size leaves, and for each edge the
    number of those bands above it. A window is a whole number of bands."""
    edges = sorted({*ys, *(y + size for y in ys)})
    bands, above = [], {}
    for a, b in zip(edges, edges[1:]):
        above[a] = len(bands)
        if a < ys[bisect_right(ys, a) - 1] + size:
            bands.append(slice(a, b))
    above[edges[-1]] = len(bands)
    return bands, above


def _band_sums(pixels: np.ndarray, gt: np.ndarray, t: int | None, size: int, xs: np.ndarray,
               band: slice) -> np.ndarray:
    """Tissue (``luma <= t``; none without ``t``) and tumor pixels of the rows ``band`` in
    each ``size``-wide window at x origins ``xs``, as a (2, len(xs)) int64 array."""
    tissue = np.zeros(gt.shape[1], dtype=np.int32)  # int32 sums bool rows faster than int64
    if t is not None:
        rgb = pixels[band]
        for rows in _row_blocks(*rgb.shape[:2]):
            tissue += _dark(rgb[rows], t).sum(axis=0, dtype=np.int32)
    tumor = gt[band].sum(axis=0, dtype=np.int32)  # exact: a band is below 2**31 rows
    return np.stack([_window_sums(tissue, size, xs), _window_sums(tumor, size, xs)])


def extract_tiles(p: SlidePyramid, gt: BinaryMask, cfg: TilingConfig,
                  workers: int = 1) -> list[TileRecord]:
    """Label every grid tile of the ground-truth mask's level against that mask.

    With a tissue filter configured, tiles whose window holds no tissue
    pixel (``luma <= t``, as in ``tissue_mask``) are dropped. The worker pool
    sums the Otsu filter's histogram, then counts each ``_bands`` band's tissue
    and tumor pixels per window, reading each pixel row once whatever the stride.
    A tile's counts are exact integer differences of two band prefix sums, so
    they do not depend on the worker count. The result is sorted by (slide_id, y, x).
    """
    if gt.slide_id != p.slide_id:
        raise ValidationError(f"ground truth annotates slide {gt.slide_id!r}, not {p.slide_id!r}")
    lvl = p.level(gt.level)
    if gt.data.shape != (lvl.height, lvl.width):
        raise GeometryError(f"ground truth is {gt.width}x{gt.height}, but level {gt.level} "
                            f"of slide {p.slide_id} is {lvl.width}x{lvl.height}")

    xs, ys = _grid_axes(p, gt.level, cfg)
    size = cfg.tile_size // 3 if cfg.rule == RULE_BIG_PATCH_NINE else cfg.tile_size
    label_fn = label_threshold75 if cfg.rule == RULE_THRESHOLD75 else label_threeclass
    t = tissue_threshold(lvl.pixels, cfg.tissue_filter, workers) if cfg.tissue_filter else None

    bands, above = _bands(ys, size)
    sums = parallel.run_chunks(partial(_band_sums, lvl.pixels, gt.data, t, size, xs), bands,
                               workers=workers)
    prefix = np.cumsum([np.zeros((2, len(xs)), dtype=np.int64), *sums], axis=0)

    total, records = size * size, []
    for y in ys:
        tissue, tumor = (prefix[above[y + size]] - prefix[above[y]]).tolist()
        records += [TileRecord(p.slide_id, gt.level, x, y, size, n, total, label_fn(n, total))
                    for x, k, n in zip(xs.tolist(), tissue, tumor) if t is None or k]
    return records


def emit_manifest(records: list[TileRecord], path: str | Path) -> None:
    """Write records as JSONL sorted by (slide_id, y, x)."""
    ordered = sorted(records, key=lambda r: (r.slide_id, r.y, r.x))
    with open(path, "w") as fh:
        for rec in ordered:
            fh.write(json.dumps({f: getattr(rec, f) for f in MANIFEST_FIELDS}) + "\n")


def read_manifest(path: str | Path) -> list[TileRecord]:
    lines = read_text(path, "tile manifest").split("\n")
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed tile record: {exc}") from exc
        where = f"{path}:{lineno}: tile record"
        with naming(f"{path}:{lineno}"):
            records.append(TileRecord(
                **{f: typed_field(obj, f, str if f in ("slide_id", "label") else int, where)
                   for f in MANIFEST_FIELDS}
            ))
    return records
