"""Seeded synthetic slides, annotations, and prediction sets.

Slides are light backgrounds with one darker star-convex tissue blob, a
2^14-gon, and a few star-polygon lesions inside it. The color ranges are
chosen so that every tissue or lesion pixel has Rec.601 luma <= 200 and every
background pixel has luma > 200, which makes the fixed gray-200 tissue rule
recover the blob exactly. Everything is a pure function of (config seed, slide
index). Team predictions flip pixels where one uniform field per
(corruption seed, slide), drawn once in cache-sized row blocks, is below
their rate, so teams sharing a seed have nested flip sets and their Dice
order is guaranteed by construction.

The stream seeded with (seed, index) draws a slide's geometry and color
jitter: subtype, blob, lesions, then the two jitters. Pixels come from one
stream per 512-row chunk, seeded with (seed, index, chunk): its raw PCG64
outputs, as little-endian bytes, give one noise byte per channel, mapped through
a lookup table per class (background, tissue, lesion) and channel onto that
class's integer range. Each chunk fills its rows of the blob polygon by the same
scanline rule as the lesions.
"""
from __future__ import annotations

import zlib
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import parallel
from .errors import ValidationError, format_csv, write_text
from .masks import BinaryMask, mask_writer, rasterize, write_mask
from .masks import _fill_even_odd, _row_blocks  # the lesions' fill, luma's row blocks
from .reports import TRUTH_TABLE_COLUMNS
from .slide_io import (
    Annotation,
    AnnotationSet,
    SlidePyramid,
    build_pyramid,
    serialize_annotations,
    write_pyramid_rows,
)

SUBTYPE_ORDER = ("SCC", "SCLC", "ADC")  # weights in subtype_ratio follow this order
DEFAULT_RATIO = (6.0, 3.0, 1.0)

_CHUNK_ROWS = 512  # rows painted from one noise stream
_N_HARMONICS = 4
_BLOB_VERTICES = 1 << 14  # vertices of the blob polygon
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


def _blob_chunks(
    size: int, cx: float, cy: float, r0: float, amps: np.ndarray, phases: np.ndarray
):
    """The blob, the polygon of _BLOB_VERTICES vertices at the angles
    ``(k + 0.5) * 2 pi / _BLOB_VERTICES - pi``, each at ``_blob_radius`` of its angle from
    (cx + 0.5, cy + 0.5), as one bool array per _CHUNK_ROWS chunk of rows, top to bottom.

    The polygon is filled at pixel centers by the lesions' scanline rule, so the half-pixel
    shift puts pixel (x, y) at offset (x - cx, y - cy) from the blob's center. Each chunk
    fills the vertices moved up by its first row y0, a subtraction that is exact for every
    y >= y0 / 2, so its edges give the crossings of one fill of the whole raster.
    """
    theta = (np.arange(_BLOB_VERTICES) + 0.5) * (2.0 * np.pi / _BLOB_VERTICES) - np.pi
    radius = _blob_radius(theta, r0, amps, phases)
    verts = np.column_stack((cx + 0.5 + radius * np.cos(theta), cy + 0.5 + radius * np.sin(theta)))
    for y0 in range(0, size, _CHUNK_ROWS):
        blob = np.zeros((min(size, y0 + _CHUNK_ROWS) - y0, size), dtype=bool)
        _fill_even_odd(blob, verts - (0.0, y0))
        yield blob


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


def _noise_bytes(key: list[int], shape: tuple) -> np.ndarray:
    """The little-endian bytes of the raw 64-bit outputs of the PCG64 stream seeded with
    ``key``: the bytes ``default_rng(key).integers(0, 256, shape, dtype=np.uint8)`` draws
    in numpy 2.4, at a third of the cost. numpy keeps bit-generator streams fixed across
    releases, but not Generator methods."""
    n = int(np.prod(shape))
    raw = np.random.PCG64(key).random_raw(-(-n // 8))
    return raw.astype("<u8", copy=False).view(np.uint8)[:n].reshape(shape)


def _paint(out: np.ndarray, inside: np.ndarray, lesion: np.ndarray, noise: np.ndarray,
           table: np.ndarray) -> None:
    """``out[y, x, c] = table[cls[y, x] << 10 | c << 8 | noise[y, x, c]]``, with class
    ``cls`` 0 background, 1 tissue (``inside`` the blob) or 2 lesion (also ``lesion``);
    lesion color never leaves the blob. Classes and keys are made and looked up per
    ``_row_blocks`` block, so that they and numpy's intp copy of the keys stay in cache."""
    class_keys = (np.arange(3)[:, None] << 10 | np.arange(3) << 8).astype(np.uint16)
    for rows in _row_blocks(*out.shape[:2]):
        cls = inside[rows].view(np.uint8) + (lesion[rows] & inside[rows]).view(np.uint8)
        key = np.take(class_keys, cls, axis=0)
        key |= noise[rows]
        np.take(table, key, out=out[rows], mode="clip")


def _draw_slide(cfg: SynthConfig, index: int):
    """A slide's subtype, annotations, true mask and painter, drawn from its (seed, index)
    stream.

    The painter is a generator function: ``paint(image=None)`` yields ``(y0, rows)``, the
    RGB rows of each _CHUNK_ROWS chunk from row y0 on, top to bottom, painted into
    ``image`` when one is given, else into one chunk-sized buffer that the next chunk
    overwrites. Each chunk computes its own blob rows and draws its own noise. With
    label_background_inclusion each chunk also clears the truth outside the blob, so the
    truth is final once every chunk is drawn.
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

    def paint(image: np.ndarray | None = None):
        buffer = np.empty((min(size, _CHUNK_ROWS), size, 3), np.uint8) if image is None else None
        blobs = _blob_chunks(size, cx, cy, r0, amps, phases)
        for chunk, (y0, inside) in enumerate(zip(range(0, size, _CHUNK_ROWS), blobs)):
            y1 = y0 + len(inside)
            out = buffer[: y1 - y0] if image is None else image[y0:y1]
            _paint(out, inside, truth.data[y0:y1],
                   _noise_bytes([cfg.seed, index, chunk], out.shape), table)
            if cfg.label_background_inclusion:
                truth.data[y0:y1] &= inside
            yield y0, out

    return subtype, AnnotationSet(sid, annotations), truth, paint


def generate_slide(
    cfg: SynthConfig, index: int
) -> tuple[SlidePyramid, AnnotationSet, BinaryMask, str]:
    """One deterministic synthetic slide.

    Returns the pyramid, the (possibly noise-expanded) annotations, the true
    cancer mask, and the drawn subtype. With both noise knobs off the
    annotations rasterize exactly to the true mask.
    """
    subtype, annotations, truth, paint = _draw_slide(cfg, index)
    image = np.empty((cfg.level0_size, cfg.level0_size, 3), dtype=np.uint8)
    for _ in paint(image):
        pass
    return build_pyramid(truth.slide_id, image, cfg.n_levels), annotations, truth, subtype


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
        n = out.shape[axis]
        if require_all and 2 * radius + 1 > n:  # every window reaches past the raster
            return np.zeros(data.shape, dtype=bool)
        if not require_all and radius >= n - 1:  # every window spans the axis
            out = np.repeat(out.any(axis=axis, keepdims=True), n, axis=axis)
            continue
        acc = out.copy()
        for s in range(1, radius + 1):
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


def _filtered_blocks(truth: np.ndarray, spec: CorruptionSpec):
    """``truth`` eroded, then dilated, by ``spec``, one ``_row_blocks`` block at a time.

    Whole blocks are filtered together, in windows of at least ``8 * halo`` rows with
    ``halo = erode + dilate`` rows of truth on either side, clipped at the raster's
    edges: the erosion is wrong only within ``erode`` rows of a window edge that is not
    the raster's, and the dilation spreads that ``dilate`` rows further. So at most a
    fifth of the rows filtered are halo, and a radius past the raster filters it once.
    """
    height = truth.shape[0]
    halo = spec.erode + spec.dilate
    lo = hi = 0  # the window's rows [lo, hi), filtered into ``window``
    for rows in _row_blocks(*truth.shape):
        if rows.stop > hi:
            span = rows.stop - rows.start  # every block but the last has this many rows
            lo, hi = rows.start, min(height, rows.start + span * max(1, -(-8 * halo // span)))
            a, b = max(0, lo - halo), min(height, hi + halo)
            window = _box_filter_bool(truth[a:b], spec.erode, require_all=True)
            window = _box_filter_bool(window, spec.dilate, require_all=False)[lo - a : hi - a]
        yield window[rows.start - lo : rows.stop - lo]


def _prediction_blocks(true_mask: BinaryMask, specs: list[CorruptionSpec]):
    """``(rows, predictions)`` for each ``_row_blocks`` block, top to bottom: the rows of
    one prediction per spec, eroded, then dilated, then flipped where the uniform field
    of (spec.seed, slide id) is below flip_rate.

    Each seed's field is one stream, drawn block by block for all its specs, so the
    flips equal thresholding the whole field drawn at once. A prediction's rows may be
    a view of the truth's; they are never written to.
    """
    data = true_mask.data
    filtered = [_filtered_blocks(data, spec) for spec in specs]
    slide_key = zlib.crc32(true_mask.slide_id.encode())
    fields = {seed: np.random.default_rng([seed, slide_key])
              for seed in dict.fromkeys(s.seed for s in specs if s.flip_rate)}
    blocks = list(_row_blocks(*data.shape))
    field = np.empty((blocks[0].stop if blocks else 0, data.shape[1]))  # one block's draw
    for rows in blocks:
        preds = [next(rows_of) for rows_of in filtered]
        for seed, field_rng in fields.items():
            u = field_rng.random(out=field[: rows.stop - rows.start])
            for i, spec in enumerate(specs):
                if spec.flip_rate and spec.seed == seed:
                    preds[i] = preds[i] ^ (u < spec.flip_rate)
        yield rows, preds


def corrupt_prediction(true_mask: BinaryMask, specs: list[CorruptionSpec]) -> list[BinaryMask]:
    """One prediction per spec, in order, assembled from ``_prediction_blocks``.

    Specs sharing a seed flip nested pixel sets as flip_rate grows.
    """
    outs = [np.empty_like(true_mask.data) for _ in specs]
    for rows, preds in _prediction_blocks(true_mask, specs):
        for out, pred in zip(outs, preds):
            out[rows] = pred
    return [BinaryMask(true_mask.slide_id, true_mask.level, o) for o in outs]


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
    """Write one slide's files, chunk by chunk and block by block, and tally each team."""
    subtype, annotations, truth, paint = _draw_slide(cfg, index)
    sid, size = truth.slide_id, cfg.level0_size
    # made per slide, not before the pool, so that a run the pool rejects leaves no tree
    for sub in ("annotations", "truth", *(f"predictions/{name}" for name, _ in teams)):
        (out / sub).mkdir(parents=True, exist_ok=True)
    write_pyramid_rows(sid, size, size, cfg.n_levels, paint(), out / "slides" / sid)
    serialize_annotations(annotations, out / "annotations" / f"{sid}.xml")
    write_mask(truth, out / "truth" / f"{sid}.pgm")
    counts = np.zeros((len(teams), 2), dtype=np.int64)  # per team: true positives, predicted
    with ExitStack() as stack:
        appends = [stack.enter_context(mask_writer(out / "predictions" / name / f"{sid}.pgm",
                                                   sid, 0, size, size))
                   for name, _ in teams]
        for rows, preds in _prediction_blocks(truth, [spec for _, spec in teams]):
            gt = truth.data[rows]
            for append, pred, tally in zip(appends, preds, counts):
                append(pred)
                tally += (np.count_nonzero(gt & pred), np.count_nonzero(pred))
    true, n = truth.count, truth.data.size
    rows = [(name, tp, predicted - tp, true - tp, n - predicted - true + tp)
            for (name, _), (tp, predicted) in zip(teams, counts.tolist())]
    return sid, subtype, rows


def generate_challenge(
    cfg: SynthConfig,
    teams: list[tuple[str, CorruptionSpec]],
    out_dir: str | Path,
    workers: int = 1,
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

    write_text(out / "truth_table.csv", format_csv(TRUTH_TABLE_COLUMNS, table_rows))
    write_text(out / "subtypes.csv", format_csv(("slide_id", "subtype"), subtype_rows))

    return {
        "out": str(out),
        "slides": [r[0] for r in sorted(results)],
        "teams": [n for n, _ in named],
        "truth_table": str(out / "truth_table.csv"),
        "subtypes": str(out / "subtypes.csv"),
    }
