"""Tile grids and training-label assignment.

Two labeling families are supported: a 75%-overlap rule (Positive above a
strict 3/4 tumor fraction, Negative at exactly zero, Unused between) and an
all-or-nothing three-class rule (Tumor / Normal / Mix), optionally applied to
the nine uniform 256-pixel sub-patches of a 768-pixel big patch. Tumor
fractions are exact integer pixel counts, never floats.

A tissue filter keeps the tiles whose window holds at least one tissue
pixel. It is counted in one streamed pass over the level's RGB rows, with a
running per-column count, so no level-sized tissue mask is built.
"""
from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np

from . import parallel
from .errors import FormatError, GeometryError, ValidationError, typed_field
from .masks import TISSUE_METHODS, BinaryMask, tissue_rows
from .slide_io import SlidePyramid

LABEL_POSITIVE = "Positive"
LABEL_NEGATIVE = "Negative"
LABEL_UNUSED = "Unused"
LABEL_TUMOR = "Tumor"
LABEL_NORMAL = "Normal"
LABEL_MIX = "Mix"
LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_UNUSED, LABEL_TUMOR, LABEL_NORMAL, LABEL_MIX)

RULE_THRESHOLD75 = "threshold75"
RULE_THREECLASS = "three_class"
RULE_BIG_PATCH_NINE = "big_patch_nine"
RULES = (RULE_THRESHOLD75, RULE_THREECLASS, RULE_BIG_PATCH_NINE)

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


@dataclass
class TilingConfig:
    tile_size: int = 256
    stride: int | None = None
    level: int = 0
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
        if self.level < 0:
            raise ValidationError(f"level must be >= 0, got {self.level}")
        if self.rule not in RULES:
            raise ValidationError(f"unknown labeling rule {self.rule!r}")
        if self.rule == RULE_BIG_PATCH_NINE and self.tile_size % 3 != 0:
            raise ValidationError(
                f"big-patch rule needs tile_size divisible by 3, got {self.tile_size}"
            )
        if self.tissue_filter is not None and self.tissue_filter not in TISSUE_METHODS:
            raise ValidationError(f"unknown tissue filter {self.tissue_filter!r}")


def grid_tiles(p: SlidePyramid, cfg: TilingConfig) -> list[tuple[int, int]]:
    """Row-major origins of all tiles fully inside the configured level.

    Partial edge tiles are dropped, never padded.
    """
    cfg.validate()
    lvl = p.level(cfg.level)
    size, stride = cfg.tile_size, cfg.effective_stride
    if size > lvl.width or size > lvl.height:
        raise GeometryError(
            f"tile_size {size} exceeds level {cfg.level} dims {lvl.width}x{lvl.height}"
        )
    return [
        (x, y)
        for y in range(0, lvl.height - size + 1, stride)
        for x in range(0, lvl.width - size + 1, stride)
    ]


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


def big_patch_nine(
    p: SlidePyramid, origin: tuple[int, int], big_size: int = 768, level: int = 0
) -> list[tuple[int, int]]:
    """The 3x3 uniform sub-tile origins of one big patch."""
    if big_size < 3 or big_size % 3 != 0:
        raise ValidationError(f"big patch size must be a positive multiple of 3, got {big_size}")
    lvl = p.level(level)
    x0, y0 = origin
    if not (0 <= x0 and 0 <= y0 and x0 + big_size <= lvl.width and y0 + big_size <= lvl.height):
        raise GeometryError(
            f"big patch ({x0},{y0}) size {big_size} not inside level {level} "
            f"({lvl.width}x{lvl.height})"
        )
    sub = big_size // 3
    return [(x0 + i * sub, y0 + j * sub) for j in range(3) for i in range(3)]


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


def _count_row(gt: np.ndarray, size: int, row: tuple) -> np.ndarray:
    """Tumor pixels of each ``size``-square window of one tile row ``(y, xs)``."""
    y, xs = row
    return _window_sums(gt[y : y + size].sum(axis=0, dtype=np.int64), size, xs)


def _tissue_keep(pixels: np.ndarray, method: str, size: int, rows: list) -> list:
    """Per tile row, whether each window holds a tissue pixel, from one pass over the rows.

    ``acc`` counts tissue pixels per column over the pixel rows streamed so
    far. It is snapshot at each tile row's top edge ``y``; when row
    ``y + size`` is reached, ``acc`` minus that snapshot gives the tile row's
    column totals and the snapshot is dropped. Every pixel row is tested
    once, whatever the stride.
    """
    ends = {y + size: (y, xs) for y, xs in rows}
    tops = {y for y, _ in rows}
    marks = sorted(tops | ends.keys())
    acc = np.zeros(pixels.shape[1], dtype=np.int32)
    snaps, keep = {}, {}
    for block, tissue in tissue_rows(pixels, method):
        inner = marks[bisect_right(marks, block.start) : bisect_left(marks, block.stop)]
        cuts = [block.start, *inner, block.stop]
        for a, b in zip(cuts, cuts[1:]):
            if a in tops:
                snaps[a] = acc.copy()
            acc += tissue[a - block.start : b - block.start].sum(axis=0, dtype=np.int32)
            if b in ends:
                y, xs = ends[b]
                keep[y] = _window_sums(acc - snaps.pop(y), size, xs) > 0
    return [keep[y] for y, _ in rows]


def extract_tiles(
    p: SlidePyramid,
    gt: BinaryMask,
    cfg: TilingConfig,
    workers: int | None = None,
) -> list[TileRecord]:
    """Label every grid tile of one level against a ground-truth mask.

    With a tissue filter configured, tiles whose window holds no tissue
    pixel (``luma <= t``, as in ``tissue_mask``) are dropped. The caller
    counts tissue serially, in one streamed pass over row blocks that never
    builds a level-sized mask; tumor pixels are counted in parallel, one
    tile row per chunk. The result is sorted by (slide_id, y, x) and
    independent of worker count.
    """
    cfg.validate()
    lvl = p.level(cfg.level)
    if gt.level != cfg.level or gt.data.shape != (lvl.height, lvl.width):
        raise GeometryError(
            f"ground truth is level {gt.level} {gt.data.shape}, "
            f"config wants level {cfg.level} ({lvl.height}, {lvl.width})"
        )

    if cfg.rule == RULE_BIG_PATCH_NINE:
        sub = cfg.tile_size // 3
        origins = sorted(
            {
                o
                for big in grid_tiles(p, cfg)
                for o in big_patch_nine(p, big, cfg.tile_size, cfg.level)
            },
            key=lambda o: (o[1], o[0]),
        )
        size = sub
        label_fn = label_threeclass
    else:
        origins = grid_tiles(p, cfg)
        size = cfg.tile_size
        label_fn = label_threshold75 if cfg.rule == RULE_THRESHOLD75 else label_threeclass

    rows = [(y, np.array([x for x, _ in row], dtype=np.int64))
            for y, row in groupby(origins, key=lambda o: o[1])]
    keep = (_tissue_keep(lvl.pixels, cfg.tissue_filter, size, rows) if cfg.tissue_filter
            else [None] * len(rows))

    counts = parallel.run_chunks(partial(_count_row, gt.data, size), rows, workers=workers)

    total = size * size
    records = []
    for (y, xs), tumor, kept in zip(rows, counts, keep):
        for i in range(len(xs)):
            if kept is not None and not kept[i]:
                continue
            t = int(tumor[i])
            records.append(
                TileRecord(p.slide_id, cfg.level, int(xs[i]), y, size, t, total, label_fn(t, total))
            )
    return records


def emit_manifest(records: list[TileRecord], path: str | Path) -> None:
    """Write records as JSONL sorted by (slide_id, y, x)."""
    ordered = sorted(records, key=lambda r: (r.slide_id, r.y, r.x))
    with open(path, "w") as fh:
        for rec in ordered:
            rec.validate()
            fh.write(json.dumps({f: getattr(rec, f) for f in MANIFEST_FIELDS}) + "\n")


def read_manifest(path: str | Path) -> list[TileRecord]:
    try:
        lines = Path(path).read_text().split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: cannot read tile manifest: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed tile record: {exc}") from exc
        where = f"{path}:{lineno}: tile record"
        rec = TileRecord(
            **{f: typed_field(obj, f, str if f in ("slide_id", "label") else int, where)
               for f in MANIFEST_FIELDS}
        )
        rec.validate()
        records.append(rec)
    return records
