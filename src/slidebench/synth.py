"""Seeded synthetic slides, annotations, and prediction sets.

Slides are light backgrounds with one darker star-convex tissue blob and a
few star-polygon lesions inside it. The color ranges are chosen so that
every tissue or lesion pixel has Rec.601 luma <= 200 and every background
pixel has luma > 200, which makes the fixed gray-200 tissue rule recover the
analytic blob exactly. Everything is a pure function of (config seed, slide
index). Team predictions flip pixels where one uniform field per
(corruption seed, slide), drawn once in cache-sized row blocks, is below
their rate, so teams sharing a seed have nested flip sets and their Dice
order is guaranteed by construction.

The stream seeded with (seed, index) draws a slide's geometry and color
jitter: subtype, blob, lesions, then the two jitters. Pixels come from one
stream per 512-row chunk, seeded with (seed, index, chunk): a uint8 noise
field, one byte per channel, is mapped through a lookup table per class
(background, tissue, lesion) and channel onto that class's integer range.
"""
from __future__ import annotations

import csv
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import parallel
from .errors import ValidationError
from .masks import ROLE_PREDICTION, BinaryMask, rasterize, write_mask
from .masks import _row_blocks  # the cache-sized row blocks of luma
from .reports import TRUTH_TABLE_COLUMNS
from .slide_io import (
    Annotation,
    AnnotationSet,
    SlidePyramid,
    build_pyramid,
    serialize_annotations,
    write_pyramid,
)

SUBTYPE_ORDER = ("SCC", "SCLC", "ADC")  # weights in subtype_ratio follow this order
DEFAULT_RATIO = (6.0, 3.0, 1.0)

_CHUNK_ROWS = 512  # rows painted from one noise stream
_N_HARMONICS = 4
_SECTORS = 4096  # angular sectors of the blob-radius table
_TISSUE_LO = (150, 90, 140)  # per-channel low ends of the color ranges, before jitter
_LESION_LO = (115, 55, 125)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    slides: int = 5
    level0_size: int = 2048
    n_levels: int = 3
    n_lesions: tuple[int, int] = (2, 5)
    lesion_radius: tuple[float, float] = (20.0, 60.0)
    subtype_ratio: tuple[float, float, float] = DEFAULT_RATIO
    annotation_dilation: int = 0
    label_background_inclusion: bool = False

    def validate(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.slides < 1:
            raise ValidationError(f"slides must be >= 1, got {self.slides}")
        if self.level0_size < 64:
            raise ValidationError(f"level0_size must be >= 64, got {self.level0_size}")
        if self.n_levels < 1:
            raise ValidationError(f"n_levels must be >= 1, got {self.n_levels}")
        lo, hi = self.n_lesions
        if not 0 <= lo <= hi:
            raise ValidationError(f"bad lesion count range {self.n_lesions}")
        rlo, rhi = self.lesion_radius
        if not 0 < rlo <= rhi:
            raise ValidationError(f"bad lesion radius range {self.lesion_radius}")
        if rhi > 0.18 * self.level0_size:
            raise ValidationError(
                f"lesion radius {rhi} too large for a {self.level0_size}-pixel slide "
                f"(must fit inside the tissue blob; limit is {0.18 * self.level0_size:.0f})"
            )
        ratio = self.subtype_ratio
        if len(ratio) != 3 or any(w < 0 for w in ratio) or not np.isfinite(sum(ratio)):
            raise ValidationError(f"bad subtype ratio {ratio}")
        if sum(self.subtype_ratio) == 0:
            raise ValidationError("subtype ratio weights are all zero")
        if self.annotation_dilation < 0:
            raise ValidationError(
                f"annotation_dilation must be >= 0, got {self.annotation_dilation}"
            )

    __post_init__ = validate


@dataclass(frozen=True)
class CorruptionSpec:
    erode: int = 0
    dilate: int = 0
    flip_rate: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.erode < 0 or self.dilate < 0:
            raise ValidationError("erode/dilate radii must be >= 0")
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValidationError(f"flip_rate {self.flip_rate} outside [0, 1]")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    __post_init__ = validate


def slide_name(index: int) -> str:
    return f"slide_{index:03d}"


def _blob_radius(theta: np.ndarray, r0: float, amps: np.ndarray, phases: np.ndarray) -> np.ndarray:
    r = np.full_like(theta, 1.0)
    for k in range(_N_HARMONICS):
        r += amps[k] * np.cos((k + 2) * theta + phases[k])
    return r0 * r


def _star_polygon(rng: np.random.Generator, cx: float, cy: float, radius: float) -> np.ndarray:
    n = int(rng.integers(8, 17))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = radius * rng.uniform(0.55, 1.0, n)
    return np.column_stack((cx + radii * np.cos(angles), cy + radii * np.sin(angles)))


def _blob_mask(
    size: int, cx: float, cy: float, r0: float, amps: np.ndarray, phases: np.ndarray
) -> np.ndarray:
    """The blob: pixels with ``hypot(dx, dy) <= _blob_radius(arctan2(dy, dx))``.

    The exact test is costly, so only pixels near the boundary take it. The
    radius at the center of each angular sector, minus or plus ``slack``
    (twice the most the radius moves within a sector, plus rounding), bounds
    the radius over that sector. Each row is inside up to the smallest bound
    and outside past the largest; in the annulus between, a pixel whose
    distance clears its own sector's bounds is settled by them. Squared
    distances get a pixel of margin against rounding.
    """
    width = 2.0 * np.pi / _SECTORS
    # one sector past pi, the first again, so theta == pi needs no clipping
    centers = (np.arange(_SECTORS + 1) + 0.5) * width - np.pi
    sector_radius = _blob_radius(centers, r0, amps, phases)
    slack = width * r0 * sum(abs(a) * (k + 2) for k, a in enumerate(amps)) + 1e-6 * r0
    sure_in2 = np.maximum(sector_radius - slack - 1.0, 0.0) ** 2
    sure_out2 = (sector_radius + slack + 1.0) ** 2
    dy = np.arange(size, dtype=np.float64) - cy

    def columns(radius2):  # [lo, hi) of the columns within sqrt(radius2) of the center
        half = np.sqrt(np.maximum(radius2 - dy * dy, 0.0))
        lo = np.clip(np.ceil(cx - half), 0, size).astype(np.intp)
        hi = np.clip(np.floor(cx + half) + 1, lo, size).astype(np.intp)
        empty = dy * dy > radius2
        hi[empty] = lo[empty]
        return lo, hi

    out_lo, out_hi = columns(float(sure_out2.max()))
    in_lo, in_hi = (np.clip(c, out_lo, out_hi) for c in columns(float(sure_in2.min())))
    blob = np.zeros((size, size), dtype=bool)
    for y, (x0, x1) in enumerate(zip(in_lo.tolist(), in_hi.tolist())):
        blob[y, x0:x1] = True

    # the annulus: columns [out_lo, in_lo) and [in_hi, out_hi) of every row
    for y0 in range(0, size, _CHUNK_ROWS):
        rows = slice(y0, y0 + _CHUNK_ROWS)
        starts = np.concatenate([out_lo[rows], in_hi[rows]])
        lengths = np.concatenate([in_lo[rows], out_hi[rows]]) - starts
        ys = np.repeat(np.tile(np.arange(size)[rows], 2), lengths)
        xs = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(len(ys))
        ddx, ddy = xs - cx, dy[ys]
        d2 = ddx * ddx + ddy * ddy
        theta = np.arctan2(ddy, ddx)
        sector = ((theta + np.pi) / width).astype(np.intp)
        within = d2 <= sure_in2[sector]
        near = np.flatnonzero(~within & (d2 <= sure_out2[sector]))
        radius = _blob_radius(theta[near], r0, amps, phases)
        within[near] = np.hypot(ddx[near], ddy[near]) <= radius
        blob[ys, xs] = within
    return blob


def _paint_table(jitter: int, bg_jitter: int) -> np.ndarray:
    """Color values, indexed by ``class << 10 | channel << 8 | noise byte``.

    Classes are 0 background, 1 tissue and 2 lesion. Each (class, channel)
    row spreads the 256 noise bytes evenly over the integer range
    background 230+bg_jitter..250+bg_jitter, tissue lo+jitter..lo+jitter+45
    or lesion lo+jitter..lo+jitter+50.
    """
    u = np.arange(256)
    table = np.zeros((3, 4, 256), dtype=np.uint8)
    for c in range(3):
        lows = (230 + bg_jitter, _TISSUE_LO[c] + jitter, _LESION_LO[c] + jitter)
        for k, (lo, width) in enumerate(zip(lows, (21, 46, 51))):
            table[k, c] = lo + (u * width >> 8)
    return table.ravel()


def _paint(out: np.ndarray, cls: np.ndarray, noise: np.ndarray, table: np.ndarray) -> None:
    """``out[y, x, c] = table[cls[y, x] << 10 | c << 8 | noise[y, x, c]]``, looked up per
    ``_row_blocks`` block so that numpy's intp copy of the keys stays in cache."""
    class_keys = (np.arange(3)[:, None] << 10 | np.arange(3) << 8).astype(np.uint16)
    key = np.take(class_keys, cls, axis=0)
    key |= noise
    for rows in _row_blocks(*out.shape[:2]):
        np.take(table, key[rows], out=out[rows], mode="clip")


def generate_slide(
    cfg: SynthConfig, index: int
) -> tuple[SlidePyramid, AnnotationSet, BinaryMask, str]:
    """One deterministic synthetic slide.

    Returns the pyramid, the (possibly noise-expanded) annotations, the true
    cancer mask, and the drawn subtype. With both noise knobs off the
    annotations rasterize exactly to the true mask.
    """
    rng = np.random.default_rng([cfg.seed, index])
    size = cfg.level0_size
    sid = slide_name(index)

    weights = np.asarray(cfg.subtype_ratio, dtype=np.float64)
    subtype = SUBTYPE_ORDER[int(rng.choice(3, p=weights / weights.sum()))]

    cx, cy = size / 2.0 + rng.uniform(-0.05, 0.05, 2) * size
    r0 = rng.uniform(0.28, 0.34) * size
    amps = rng.uniform(-0.06, 0.06, _N_HARMONICS)
    phases = rng.uniform(0.0, 2.0 * np.pi, _N_HARMONICS)
    r_inner = r0 * (1.0 - float(np.sum(np.abs(amps))))  # disk guaranteed inside the blob

    n_lesions = int(rng.integers(cfg.n_lesions[0], cfg.n_lesions[1] + 1))
    truth_polygons, annotations = [], []
    for i in range(n_lesions):
        radius = float(rng.uniform(*cfg.lesion_radius))
        radius = min(radius, 0.45 * r_inner)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        if cfg.label_background_inclusion:
            # straddle the tissue boundary so the annotation covers background
            rho = float(_blob_radius(np.array([theta]), r0, amps, phases)[0])
        else:
            rho = float(rng.uniform(0.0, max(0.0, r_inner - radius - 2.0)))
        lx = float(np.clip(cx + rho * np.cos(theta), radius + 2.0, size - radius - 2.0))
        ly = float(np.clip(cy + rho * np.sin(theta), radius + 2.0, size - radius - 2.0))
        poly = _star_polygon(rng, lx, ly, radius)
        name = f"lesion_{i:02d}"
        truth_polygons.append(Annotation(name, "tumor", poly))
        if cfg.annotation_dilation > 0:
            offsets = poly - (lx, ly)
            norms = np.maximum(np.hypot(offsets[:, 0], offsets[:, 1]), 1e-9)
            scale = (norms + cfg.annotation_dilation) / norms
            poly = (lx, ly) + offsets * scale[:, None]
        annotations.append(Annotation(name, "tumor", poly))

    jitter = int(rng.integers(-8, 9))
    bg_jitter = int(rng.integers(-2, 3))
    truth = rasterize(AnnotationSet(sid, truth_polygons), 0, size, size)
    table = _paint_table(jitter, bg_jitter)
    blob = _blob_mask(size, cx, cy, r0, amps, phases)
    image = np.empty((size, size, 3), dtype=np.uint8)
    for chunk, y0 in enumerate(range(0, size, _CHUNK_ROWS)):
        y1 = min(size, y0 + _CHUNK_ROWS)
        inside = blob[y0:y1]
        # class 0 background, 1 tissue, 2 lesion; lesion color never leaves the blob
        cls = inside.view(np.uint8) + (truth.data[y0:y1] & inside).view(np.uint8)
        noise = np.random.default_rng([cfg.seed, index, chunk]).integers(
            0, 256, (y1 - y0, size, 3), dtype=np.uint8
        )
        _paint(image[y0:y1], cls, noise, table)

    if cfg.label_background_inclusion:
        truth.data &= blob
    pyramid = build_pyramid(sid, image, cfg.n_levels)
    return pyramid, AnnotationSet(sid, annotations), truth, subtype


def _along(axis: int, start=None, stop=None) -> tuple:
    return (slice(None),) * axis + (slice(start, stop),)


def _box_filter_bool(data: np.ndarray, radius: int, require_all: bool) -> np.ndarray:
    """Separable square-window erosion (require_all) or dilation over bool data.

    Along each axis the raster is ANDed (erosion) or ORed (dilation) with its
    shifts by 1..radius; neighbours outside the raster count as False.
    """
    if radius == 0:
        return data
    out = data
    for axis in (0, 1):
        acc = out.copy()
        for s in range(1, min(radius, out.shape[axis] - 1) + 1):  # longer shifts change nothing
            ahead, behind = _along(axis, s), _along(axis, None, -s)
            if require_all:
                acc[ahead] &= out[behind]
                acc[behind] &= out[ahead]
            else:
                acc[ahead] |= out[behind]
                acc[behind] |= out[ahead]
        if require_all:  # an edge pixel's window reaches past the raster
            acc[_along(axis, None, radius)] = False
            acc[_along(axis, -radius)] = False
        out = acc
    return out


def corrupt_prediction(true_mask: BinaryMask, specs: list[CorruptionSpec]) -> list[BinaryMask]:
    """One prediction per spec, in order: erode, then dilate, then flip the
    pixels where the uniform field of (spec.seed, slide id) is below flip_rate.

    Specs sharing a seed flip nested pixel sets as flip_rate grows. Each
    seed's field is drawn once, for all its specs, in row blocks of about
    2**16 pixels that continue one stream, so the flips equal thresholding
    the whole field drawn at once.
    """
    outs = []
    for spec in specs:
        data = _box_filter_bool(true_mask.data, spec.erode, require_all=True)
        data = _box_filter_bool(data, spec.dilate, require_all=False)
        outs.append(data.copy() if data is true_mask.data else data)
    blocks = list(_row_blocks(*true_mask.data.shape))
    field = np.empty((blocks[0].stop if blocks else 0, true_mask.width))  # one block's draw
    slide_key = zlib.crc32(true_mask.slide_id.encode())
    for seed in dict.fromkeys(s.seed for s in specs if s.flip_rate):
        field_rng = np.random.default_rng([seed, slide_key])
        flipped = [(o, s.flip_rate) for o, s in zip(outs, specs) if s.flip_rate and s.seed == seed]
        for rows in blocks:
            u = field_rng.random(out=field[: rows.stop - rows.start])
            for out, rate in flipped:
                out[rows] ^= u < rate
    return [BinaryMask(true_mask.slide_id, true_mask.level, o, ROLE_PREDICTION) for o in outs]


def _tally(gt: np.ndarray, pred: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(np.count_nonzero(gt & pred))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(gt)) - tp
    tn = gt.size - tp - fp - fn
    return tp, fp, fn, tn


def _normalize_teams(teams) -> list[tuple[str, CorruptionSpec]]:
    if not teams:
        raise ValidationError("generate_challenge: no teams")
    named = [(str(name), spec) for name, spec in teams]
    names = [n for n, _ in named]
    if any(n in ("", ".", "..") or "/" in n for n in names):
        raise ValidationError(f"team names must be plain directory names, got {names}")
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate team names: {names}")
    return named


def _challenge_slide(cfg: SynthConfig, teams: list, out: Path, index: int) -> tuple[str, str, list]:
    pyramid, annotations, truth, subtype = generate_slide(cfg, index)
    sid = pyramid.slide_id
    write_pyramid(pyramid, out / "slides" / sid)
    serialize_annotations(annotations, out / "annotations" / f"{sid}.xml")
    write_mask(truth, out / "truth" / f"{sid}.pgm")
    rows = []
    preds = corrupt_prediction(truth, [spec for _, spec in teams])
    for (name, _), pred in zip(teams, preds):
        write_mask(pred, out / "predictions" / name / f"{sid}.pgm")
        rows.append((name, *_tally(truth.data, pred.data)))
    return sid, subtype, rows


def generate_challenge(
    cfg: SynthConfig,
    teams: list[tuple[str, CorruptionSpec]],
    out_dir: str | Path,
    workers: int | None = None,
) -> dict:
    """Write a full synthetic challenge tree with a brute-force truth table.

    ``teams`` are ``(name, spec)`` pairs with distinct names. Layout:
    slides/<id>/, annotations/<id>.xml, truth/<id>.pgm,
    predictions/<team>/<id>.pgm, truth_table.csv, subtypes.csv. Slides are
    generated independently (parallelizable); all outputs are functions of
    the config and teams alone.
    """
    named = _normalize_teams(teams)
    out = Path(out_dir)
    (out / "slides").mkdir(parents=True, exist_ok=True)
    (out / "annotations").mkdir(exist_ok=True)
    (out / "truth").mkdir(exist_ok=True)
    for name, _ in named:
        (out / "predictions" / name).mkdir(parents=True, exist_ok=True)

    results = parallel.run_chunks(
        partial(_challenge_slide, cfg, named, out), list(range(cfg.slides)), workers=workers
    )

    subtype_rows = []
    table_rows = []
    for sid, subtype, rows in results:
        subtype_rows.append((sid, subtype))
        for name, tp, fp, fn, tn in rows:
            table_rows.append((sid, name, tp, fp, fn, tn))
    table_rows.sort(key=lambda r: (r[0], r[1]))
    subtype_rows.sort()

    with open(out / "truth_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_TABLE_COLUMNS)
        writer.writerows(table_rows)
    with open(out / "subtypes.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slide_id", "subtype"])
        writer.writerows(subtype_rows)

    return {
        "out": str(out),
        "slides": [r[0] for r in sorted(results)],
        "teams": [n for n, _ in named],
        "truth_table": str(out / "truth_table.csv"),
        "subtypes": str(out / "subtypes.csv"),
    }
