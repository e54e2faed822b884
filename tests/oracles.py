"""Independent reference implementations used to validate the package.

The oracles are written straight from the mathematical definition and
share no code with the package: ray parity instead of scanline fills,
Fraction arithmetic instead of integer cross-multiplication, explicit
enumeration of all sign patterns instead of dynamic programming, and a
from-scratch logistic-regression loop. Deliberately simple and slow.
``corrupt_prediction_reference``, ``extract_tiles_reference`` and the
co-teaching step references are the exceptions. The first is the package's
earlier one-spec ``corrupt_prediction``, which draws the whole flip field at
once, kept so the blocked batch can be checked against it; it erodes and
dilates with the cumulative-sum ``box_filter_bool_reference``, not the
package's shifts. The second is the package's earlier ``extract_tiles``,
which builds a level-sized tissue mask and sums it per tile; it is kept so
the streamed, exact tissue count can be checked against it. Its
``tissue_mask_reference`` thresholds ``luma_reference`` of the whole level,
so neither uses the package's luma kernel, and it enumerates its tile origins
itself, in ``grid_tiles``, so none come from the package's grid.
``sigmoid_reference``, ``select_reference`` and
``step_reference`` are the package's earlier masked sigmoid, stable-sort
selection and co-teaching step, which recompute each learner's scores where
they are used; they are kept unchanged so the step that reuses the scores
can be checked against them bit for bit. ``decision_reference`` is the
package's earlier per-pixel classifier of the clean test pixels, which wrapped
clipped sigmoids in a ``ProbabilityMap`` and binarized it, kept so the bare
strict 0.5 of ``clean_accuracy`` can be checked against it. ``upsample_mask`` is the
package's earlier way of scoring a coarser prediction: it builds the
upsampled copy whose counts the banded scoring must equal.
``doubled_ranks_reference`` and ``wilcoxon_signed_rank_reference`` are the
package's earlier numpy signed-rank test, with ranks from ``np.unique`` and
float64 ``np.sum`` moments; they are kept so the pure-Python test can be
checked against them bit for bit. Their one change follows the package's: each
approximate tail is taken directly as an upper tail, never as ``1 - cdf``, and
floored at 2^-m, the chance of one sign pattern.

The helpers at the end make inputs for, compare or measure package objects
in the tests: pyramid and annotation equality, exact tile-window counts,
rasters whose tissue test turns on luma's rounding ties, the traced
allocation peak of a call, ``run_child``, which runs a child process that
imports the package under test, the peak RSS of such a child, a batch's mean
loss, ``gradient_check``, which differentiates the package's own loss
numerically to check its analytic gradient, ``coteach_step``, which takes the
package's co-teaching step on one ``PixelBatch``, and ``write_p5`` and
``write_p6``, which write a whole array as one ``netpbm.row_writer`` block.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
import zlib
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import numpy as np
import scipy.stats

from slidebench.coteach import CoteachConfig, PixelBatch, _gradient, _step_full, drop_rate
from slidebench.ensemble import ProbabilityMap, binarize
from slidebench.errors import MODE_APPROX, MODE_AUTO, MODE_EXACT, MODES, NoInformationError
from slidebench.errors import DivergenceError, GeometryError, ValidationError
from slidebench.netpbm import row_writer
from slidebench.masks import (
    GRAY200_THRESHOLD,
    METHOD_GRAY200,
    METHOD_OTSU,
    TISSUE_METHODS,
    BinaryMask,
    otsu_threshold,
)
from slidebench.slide_io import AnnotationSet, SlidePyramid
from slidebench.stats import EXACT_LIMIT, PairedSample, SignedRankResult
from slidebench.synth import CorruptionSpec
from slidebench.tiling import (
    RULE_BIG_PATCH_NINE,
    RULE_THRESHOLD75,
    TileRecord,
    TilingConfig,
    label_threeclass,
    label_threshold75,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def raster_oracle(polygons, width: int, height: int, scale: float = 1.0) -> np.ndarray:
    """Even-odd membership of every pixel center, one ray cast per pixel.

    A center is inside a polygon iff the number of edge crossings at or to
    the left of it is odd; the union over polygons is returned.
    """
    out = np.zeros((height, width), dtype=bool)
    cx = np.arange(width, dtype=np.float64) + 0.5
    cy = np.arange(height, dtype=np.float64) + 0.5
    for verts in polygons:
        v = np.asarray(verts, dtype=np.float64) * scale
        inside = np.zeros((height, width), dtype=bool)
        n = len(v)
        for k in range(n):
            x0, y0 = v[k]
            x1, y1 = v[(k + 1) % n]
            if y0 == y1:
                continue
            rows = ((y0 <= cy) & (cy < y1)) | ((y1 <= cy) & (cy < y0))
            xi = x0 + (cy - y0) * (x1 - x0) / (y1 - y0)
            inside ^= rows[:, None] & (xi[:, None] <= cx[None, :])
        out |= inside
    return out


def luma_reference(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 luma of the whole raster, rounded half up, in int64 and unblocked:
    ``(299r + 587g + 114b + 500) // 1000``."""
    arr = np.asarray(rgb).astype(np.int64)
    s = 299 * arr[..., 0] + 587 * arr[..., 1] + 114 * arr[..., 2]
    return ((s + 500) // 1000).astype(np.uint8)


def blob_oracle(size: int, cx: float, cy: float, r0: float, amps, phases) -> np.ndarray:
    """The synthetic tissue blob by definition, one test per pixel of the whole raster.

    A pixel is inside when its distance from (cx, cy) is at most
    r0 * (1 + sum_k amps[k] * cos((k + 2) * theta + phases[k])) at its angle theta.
    """
    dy = np.arange(size, dtype=np.float64)[:, None] - cy
    dx = np.arange(size, dtype=np.float64)[None, :] - cx
    theta = np.arctan2(dy, dx)
    r = np.ones((size, size))
    for k in range(len(amps)):
        r += amps[k] * np.cos((k + 2) * theta + phases[k])
    return np.hypot(dx, dy) <= r0 * r


def blob_polygon_oracle(size: int, cx: float, cy: float, r0: float, amps, phases) -> np.ndarray:
    """The synthetic tissue blob as synth draws it, one test per pixel of the whole raster.

    The blob is the polygon of 2**14 vertices at the angles (k + 0.5) * 2pi / 2**14 - pi,
    each at blob_oracle's radius of its angle from (cx + 0.5, cy + 0.5), the center of
    pixel (cx, cy). It is star-shaped about that point, so a pixel is inside when it is
    no farther from it than the chord between the two vertices that bracket its angle:
    when it lies on the center's side of the edge between them.
    """
    n = 1 << 14
    step = 2.0 * np.pi / n
    angle = (np.arange(n) + 0.5) * step - np.pi
    r = np.ones(n)
    for k in range(len(amps)):
        r += amps[k] * np.cos((k + 2) * angle + phases[k])
    vx, vy = r0 * r * np.cos(angle), r0 * r * np.sin(angle)
    dy = np.arange(size, dtype=np.float64)[:, None] - cy
    dx = np.arange(size, dtype=np.float64)[None, :] - cx
    a = np.floor((np.arctan2(dy, dx) + np.pi) / step - 0.5).astype(np.intp) % n
    b = (a + 1) % n
    return (vx[b] - vx[a]) * (dy - vy[a]) - (vy[b] - vy[a]) * (dx - vx[a]) >= 0


def box_filter_bool_reference(data: np.ndarray, radius: int, require_all: bool) -> np.ndarray:
    """Separable square-window erosion (require_all) or dilation over bool data.

    Window sums from zero-padded cumulative sums: a pixel survives erosion
    when its window is all True, and dilation when any of it is.
    """
    if radius == 0:
        return data
    radius = min(radius, max(data.shape))  # a longer window covers no more of the raster
    window = 2 * radius + 1
    out = data
    for axis in (0, 1):
        arr = out.astype(np.int32)
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        arr = np.pad(arr, pad)
        cs = np.cumsum(arr, axis=axis)
        zero = np.zeros_like(np.take(cs, [0], axis=axis))
        cs = np.concatenate([zero, cs], axis=axis)
        hi = np.take(cs, range(window, cs.shape[axis]), axis=axis)
        lo = np.take(cs, range(0, cs.shape[axis] - window), axis=axis)
        counts = hi - lo
        out = counts == window if require_all else counts > 0
    return out


def corrupt_prediction_reference(true_mask: BinaryMask, spec: CorruptionSpec) -> BinaryMask:
    """Erode, then dilate, then flip pixels where the shared uniform field
    falls below flip_rate.

    The flip field depends only on (spec.seed, slide id), so specs sharing a
    seed flip nested pixel sets as flip_rate grows.
    """
    spec.validate()
    data = true_mask.data
    if spec.erode:
        data = box_filter_bool_reference(data, spec.erode, require_all=True)
    if spec.dilate:
        data = box_filter_bool_reference(data, spec.dilate, require_all=False)
    if spec.flip_rate > 0.0:
        field_rng = np.random.default_rng([spec.seed, zlib.crc32(true_mask.slide_id.encode())])
        flips = field_rng.random(data.shape) < spec.flip_rate
        data = data ^ flips
    elif data is true_mask.data:
        data = data.copy()
    return BinaryMask(true_mask.slide_id, true_mask.level, data)


def tissue_mask_reference(pyramid: SlidePyramid, level: int, method: str = METHOD_OTSU) -> BinaryMask:
    """Tissue mask of one level: pixels whose luma falls on the dark side.

    Otsu thresholds at the between-class-variance argmax of the level's luma
    histogram; Gray200 uses the fixed threshold 200. Both include the
    threshold value itself (g <= t is tissue). Luma is ``luma_reference``
    of the whole level, so the package's blocked luma kernel is not used.
    """
    if method not in TISSUE_METHODS:
        raise ValidationError(f"unknown tissue method {method!r}")
    g = luma_reference(pyramid.level(level).pixels)
    if method == METHOD_GRAY200:
        t = GRAY200_THRESHOLD
    else:
        t = otsu_threshold(np.bincount(g.ravel(), minlength=256))
    return BinaryMask(pyramid.slide_id, level, g <= t)


def _window_sums(data: np.ndarray, y: int, size: int, xs: np.ndarray) -> np.ndarray:
    """Sums of ``size``-square windows with top edge ``y`` at each x origin."""
    colsum = data[y : y + size, :].sum(axis=0, dtype=np.int64)
    cs = np.concatenate(([0], np.cumsum(colsum)))
    return cs[xs + size] - cs[xs]


def grid_tiles(p: SlidePyramid, cfg: TilingConfig, level: int = 0) -> list[tuple[int, int]]:
    """Row-major origins of all tiles fully inside ``level``; under the big-patch rule, of
    the big patches."""
    height, width = p.levels[level].pixels.shape[:2]
    size, stride = cfg.tile_size, cfg.stride or cfg.tile_size
    if size > width or size > height:
        raise GeometryError(f"tile_size {size} exceeds level {level} dims {width}x{height}")
    return [(x, y) for y in range(0, height - size + 1, stride)
            for x in range(0, width - size + 1, stride)]


def extract_tiles_reference(p: SlidePyramid, gt: BinaryMask, cfg: TilingConfig) -> list[TileRecord]:
    """Label every grid tile of the ground-truth mask's level against that mask.

    With a tissue filter configured, tiles that do not intersect the tissue
    mask are dropped. The result is sorted by (slide_id, y, x).
    """
    if gt.data.shape != p.levels[gt.level].pixels.shape[:2]:
        raise GeometryError(f"ground truth {gt.data.shape} does not fit level {gt.level}")

    size = cfg.tile_size
    origins = grid_tiles(p, cfg, gt.level)
    label_fn = label_threshold75 if cfg.rule == RULE_THRESHOLD75 else label_threeclass
    if cfg.rule == RULE_BIG_PATCH_NINE:  # each big patch's 3x3 sub-tiles, once each
        size //= 3
        origins = sorted({(x + i * size, y + j * size) for x, y in origins
                          for j in range(3) for i in range(3)}, key=lambda o: (o[1], o[0]))

    tissue = tissue_mask_reference(p, gt.level, cfg.tissue_filter).data if cfg.tissue_filter else None
    total = size * size
    records = []
    for y, row in groupby(origins, key=lambda o: o[1]):
        xs = np.array([x for x, _ in row], dtype=np.int64)
        tumor = _window_sums(gt.data, y, size, xs)
        keep = _window_sums(tissue, y, size, xs) if tissue is not None else None
        for i in range(len(xs)):
            if keep is not None and keep[i] == 0:
                continue
            t = int(tumor[i])
            records.append(
                TileRecord(p.slide_id, gt.level, int(xs[i]), y, size, t, total, label_fn(t, total))
            )
    return records


def otsu_oracle(histogram) -> int:
    """Exhaustive argmax of between-class variance with Fraction arithmetic."""
    counts = [int(c) for c in histogram]
    total = sum(counts)
    grand = sum(i * c for i, c in enumerate(counts))
    best_t = -1
    best_var = Fraction(-1)
    w0 = 0
    s0 = 0
    for t in range(256):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = Fraction(s0, w0)
        mu1 = Fraction(grand - s0, w1)
        var = Fraction(w0 * w1, total * total) * (mu0 - mu1) ** 2
        if var > best_var:
            best_var = var
            best_t = t
    return best_t


def confusion_oracle(gt: np.ndarray, pred: np.ndarray):
    """Per-pixel tally with explicit Python loops."""
    tp = fp = fn = tn = 0
    h, w = gt.shape
    for j in range(h):
        for i in range(w):
            g = bool(gt[j, i])
            p = bool(pred[j, i])
            if g and p:
                tp += 1
            elif not g and p:
                fp += 1
            elif g and not p:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def upsample_mask(mask: BinaryMask, to_level: int, width: int, height: int) -> BinaryMask:
    """Nearest-neighbor upsample of a coarser mask to a finer level's grid."""
    if to_level > mask.level:
        raise GeometryError(f"cannot upsample level {mask.level} to coarser level {to_level}")
    f = 2 ** (mask.level - to_level)
    if mask.height * f < height or mask.width * f < width:
        raise GeometryError(
            f"mask {mask.width}x{mask.height} at level {mask.level} cannot cover "
            f"{width}x{height} at level {to_level}"
        )
    data = np.repeat(np.repeat(mask.data, f, axis=0), f, axis=1)[:height, :width]
    return BinaryMask(mask.slide_id, to_level, np.ascontiguousarray(data))


def dice_oracle(tp: int, fp: int, fn: int) -> Fraction:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return Fraction(1)
    return Fraction(2 * tp, denom)


def rates_oracle(tp: int, fp: int, fn: int, tn: int):
    """(accuracy, fnr, fpr) as Fractions; undefined rates are 0."""
    acc = Fraction(tp + tn, tp + fp + fn + tn)
    fnr = Fraction(fn, fn + tp) if fn + tp else Fraction(0)
    fpr = Fraction(fp, fp + tn) if fp + tn else Fraction(0)
    return acc, fnr, fpr


def tile_label_threshold75_oracle(tile: np.ndarray) -> str:
    tumor = int(np.count_nonzero(tile))
    total = int(tile.size)
    if Fraction(tumor, total) > Fraction(3, 4):
        return "Positive"
    if tumor == 0:
        return "Negative"
    return "Unused"


def tile_label_threeclass_oracle(tile: np.ndarray) -> str:
    tumor = int(np.count_nonzero(tile))
    if tumor == tile.size:
        return "Tumor"
    if tumor == 0:
        return "Normal"
    return "Mix"


def wilcoxon_oracle(diffs) -> tuple[float, Fraction]:
    """(signed-rank statistic, two-sided exact p) over all 2^m sign patterns.

    Ranks of |d| come from scipy's tie-averaging rankdata; the null is the
    literal enumeration of every sign assignment with equal probability.
    """
    d = np.asarray([x for x in diffs if x != 0], dtype=np.float64)
    m = len(d)
    ranks = scipy.stats.rankdata(np.abs(d), method="average")
    doubled = np.rint(ranks * 2).astype(np.int64)
    w_plus2 = int(doubled[d > 0].sum())
    w_signed = float(np.sum(np.where(d > 0, ranks, -ranks)))

    patterns = (np.arange(1 << m, dtype=np.int64)[:, None] >> np.arange(m)) & 1
    w_all2 = patterns @ doubled
    ge = int(np.count_nonzero(w_all2 >= w_plus2))
    le = int(np.count_nonzero(w_all2 <= w_plus2))
    p = 2 * Fraction(min(ge, le), 1 << m)
    return w_signed, min(Fraction(1), p)


def doubled_ranks_reference(abs_diffs: np.ndarray) -> np.ndarray:
    """Average ranks of |d|, times two (integers even with ties): a tie group of ``k``
    values ending at 1-based rank ``e`` has doubled rank ``2e - k + 1``."""
    _, group, k = np.unique(abs_diffs, return_inverse=True, return_counts=True)
    e = np.cumsum(k, dtype=np.int64)
    return (2 * e - k + 1)[group]


def _exact_tails_reference(doubled: np.ndarray, w_plus_doubled: int) -> tuple[float, float]:
    total = sum(int(r) for r in doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        r = int(r)
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    n_patterns = 1 << len(doubled)
    upper = sum(counts[w_plus_doubled:])
    lower = sum(counts[: w_plus_doubled + 1])
    return upper / n_patterns, lower / n_patterns


def _approx_tails_reference(doubled: np.ndarray, w_plus_doubled: int) -> tuple[float, float]:
    mu = sum(int(r) for r in doubled) / 2.0
    var = float(np.sum(doubled.astype(np.float64) ** 2)) / 4.0
    sigma = math.sqrt(var)
    gamma2 = -(float(np.sum(doubled.astype(np.float64) ** 4)) / 8.0) / (var * var)
    half_step = math.gcd(*(int(r) for r in doubled), 0) / 2.0

    def upper_tail(x: float) -> float:
        z = (x - mu) / sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        value = 0.5 * math.erfc(z / math.sqrt(2.0)) + gamma2 / 24.0 * (z**3 - 3.0 * z) * phi
        return min(1.0, max(0.5 ** len(doubled), value))

    upper = upper_tail(w_plus_doubled - half_step)
    lower = upper_tail(2 * mu - w_plus_doubled - half_step)  # W+ mirrored about its mean
    return upper, lower


def wilcoxon_signed_rank_reference(sample: PairedSample, mode: str = MODE_AUTO) -> SignedRankResult:
    sample.validate()
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    d = np.asarray(sample.a, dtype=np.float64) - np.asarray(sample.b, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValidationError("paired sample contains non-finite values")
    nonzero = d != 0.0
    zeros_discarded = int(np.count_nonzero(~nonzero))
    d = d[nonzero]
    m = len(d)
    if m == 0:
        raise NoInformationError("all paired differences are zero; nothing to rank")

    doubled = doubled_ranks_reference(np.abs(d))
    w_doubled = int(np.sum(np.where(d > 0, doubled, -doubled)))
    w_plus_doubled = int(np.sum(doubled[d > 0]))

    exact = mode == MODE_EXACT or (mode == MODE_AUTO and m <= EXACT_LIMIT)
    if exact:
        upper, lower = _exact_tails_reference(doubled, w_plus_doubled)
        used = MODE_EXACT
    else:
        upper, lower = _approx_tails_reference(doubled, w_plus_doubled)
        used = MODE_APPROX
    p = min(1.0, 2.0 * min(upper, lower))
    return SignedRankResult(w_doubled / 2.0, p, m, zeros_discarded, used)


def logistic_gd_oracle(
    features: np.ndarray, targets: np.ndarray, w0: np.ndarray, eta: float, steps: int
) -> np.ndarray:
    """Plain full-batch gradient descent on mean logistic loss."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    w = np.asarray(w0, dtype=np.float64).copy()
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        w = w - eta * (x.T @ (p - y)) / len(y)
    return w


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def decision_reference(w: np.ndarray, batch: PixelBatch) -> np.ndarray:
    """A learner's per-pixel tumor decisions through the ensemble types: the scores
    z = features @ w, clipped to +-35 so that every sigmoid lies strictly inside (0, 1) as a
    ProbabilityMap requires, then binarized at a strict 0.5."""
    z = np.clip(batch.features @ w, -35.0, 35.0)
    return binarize(ProbabilityMap(batch.name, 0, sigmoid_reference(z)), 0.5).data


def loss_reference(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-pixel logistic cross-entropy log(1 + e^z) - y z at the scores z = X w."""
    z = X @ w
    return np.logaddexp(0.0, z) - y * z


def _gradient_reference(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    return X.T @ (sigmoid_reference(X @ w) - y) / len(y)


def select_reference(
    peer_w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    rate: float,
) -> np.ndarray | None:
    """Indices kept for one learner's update, chosen by its peer.

    Returns None when the whole batch is kept, which lets the caller take the
    plain full-batch gradient path (bit-identical to ordinary logistic
    regression).
    """
    n_keep = len(y) - math.floor(rate * len(y))
    if n_keep == len(y):
        return None
    return np.argsort(loss_reference(peer_w, X, y), kind="stable")[:n_keep]


def _update_reference(
    w: np.ndarray, sel: np.ndarray | None, X, y, eta: float
) -> tuple[np.ndarray, int]:
    if sel is not None:
        X, y = X[sel], y[sel]
    grad = _gradient_reference(w, X, y)
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient; lower eta or check features")
    return w - eta * grad, len(y)


def step_reference(
    wf: np.ndarray,
    wg: np.ndarray,
    batch: PixelBatch,
    epoch: int,
    cfg: CoteachConfig,
) -> tuple[np.ndarray, np.ndarray, dict]:
    cfg.validate()
    batch.validate()
    X, y = batch.flat()
    rate = drop_rate(cfg, epoch)
    sel_f = select_reference(wg, X, y, rate)  # g picks pixels for f
    sel_g = select_reference(wf, X, y, rate)  # f picks pixels for g
    wf2, n_f = _update_reference(wf, sel_f, X, y, cfg.eta)
    wg2, _ = _update_reference(wg, sel_g, X, y, cfg.eta)
    if not (np.all(np.isfinite(wf2)) and np.all(np.isfinite(wg2))):
        raise DivergenceError("learner parameters diverged")
    info = {
        "drop_rate": rate,
        "selected_fraction": n_f / len(y),
        "loss_f": float(np.mean(loss_reference(wf, X, y))),  # pre-update, as selection ranks
        "loss_g": float(np.mean(loss_reference(wg, X, y))),
    }
    return wf2, wg2, info


def pyramids_equal(a: SlidePyramid, b: SlidePyramid) -> bool:
    """Byte-level equality of two pyramids."""
    if a.slide_id != b.slide_id or len(a.levels) != len(b.levels):
        return False
    return all(np.array_equal(la.pixels, lb.pixels) for la, lb in zip(a.levels, b.levels))


def annotation_sets_equal(a: AnnotationSet, b: AnnotationSet, tol: float = 0.0) -> bool:
    """Value equality of two annotation sets, with coordinate tolerance."""
    if a.slide_id != b.slide_id or len(a.annotations) != len(b.annotations):
        return False
    for ann_a, ann_b in zip(a.annotations, b.annotations):
        if ann_a.name != ann_b.name or ann_a.group != ann_b.group:
            return False
        va, vb = np.asarray(ann_a.vertices), np.asarray(ann_b.vertices)
        if va.shape != vb.shape or not np.all(np.abs(va - vb) <= tol):
            return False
    return True


def tile_counts(gt: BinaryMask, x: int, y: int, size: int) -> tuple[int, int]:
    """Exact (tumor_pixels, total_pixels) over one tile window."""
    if size < 1:
        raise ValidationError(f"tile size must be >= 1, got {size}")
    if not (0 <= x and 0 <= y and x + size <= gt.width and y + size <= gt.height):
        raise GeometryError(
            f"tile ({x},{y}) size {size} not inside {gt.width}x{gt.height} mask"
        )
    tumor = int(np.count_nonzero(gt.data[y : y + size, x : x + size]))
    return tumor, size * size


def _tie_colours(t: int) -> np.ndarray:
    """Every colour with 299r + 587g + 114b == 1000t + 500: luma t + 1, the closest a colour
    that is not tissue at threshold t comes to it."""
    r, g = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    rest = 1000 * t + 500 - 299 * r - 587 * g
    ok = (rest >= 0) & (rest % 114 == 0) & (rest <= 114 * 255)
    return np.column_stack((r[ok], g[ok], rest[ok] // 114)).astype(np.uint8)


def _tie_raster(t: int, h: int, w: int) -> np.ndarray:
    """A black top half over a white bottom half (``h`` even), sprinkled at the same places
    in each: the top with ``h * w // 1024`` random colours and twice as many gray t, the
    bottom with the grays that mirror those colours' luma L at 255 - L and with tie colours
    of t. Gray t is the luma just on the tissue side of the cut, and its ties just past it."""
    rng = np.random.default_rng(5)
    n = h * w // 1024
    top = np.zeros((h // 2 * w, 3), dtype=np.uint8)
    bottom = np.full_like(top, 255)
    places = rng.permutation(len(top))
    noise, gray = places[:n], places[n : 3 * n]
    top[noise] = rng.integers(0, 256, (n, 3))
    bottom[noise] = 255 - luma_reference(top[noise])[:, None]
    top[gray] = t
    ties = _tie_colours(t)
    bottom[gray] = ties[rng.integers(0, len(ties), 2 * n)]
    return np.concatenate([top, bottom]).reshape(-1, w, 3)


def tie_slide(method: str, h: int = 96, w: int = 104):
    """A tie raster of threshold t, and t: 200 for Gray200 and 127 for Otsu.

    At t = 127 the raster's luma histogram is symmetric about 127.5: black and white, each
    random colour and its mirror gray, and gray 127 and its ties at 128 come in pairs. So
    split k scores as split 254 - k, and 127, the one split that is its own mirror, splits
    the N pixels in half. Moving m pixels of gray 127 across it lowers the between-class
    variance while m is below about N / 255; they are N / 512, and the random colours,
    mostly far from the cut, N / 1024. The split is asserted all the same.
    """
    t = GRAY200_THRESHOLD if method == METHOD_GRAY200 else 127
    base = _tie_raster(t, h, w)
    if method == METHOD_OTSU:
        histogram = np.bincount(luma_reference(base).ravel(), minlength=256)
        assert np.array_equal(histogram, histogram[::-1])
        assert otsu_oracle(histogram) == t
    return base, t


# runs its arguments as one child process and prints that child's peak RSS in KiB
_CHILD_PEAK_PROBE = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def run_child(argv: list[str], env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """Run ``argv`` with ``env`` (this process's by default) and the package under test first
    on ``PYTHONPATH``; its output is captured as text unless ``kwargs``, which go to
    ``subprocess.run``, say otherwise."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(argv, env=env, **{"capture_output": True, "text": True, **kwargs})


def child_peak_rss(argv: list[str], env: dict | None = None) -> int:
    """Peak RSS in bytes of the process ``argv`` starts, run as the only child of a fresh
    wrapper interpreter, so no earlier child of the caller's counts."""
    proc = run_child([sys.executable, "-c", _CHILD_PEAK_PROBE, *argv], env, check=True)
    return int(proc.stdout.split()[-1]) * 1024  # Linux reports ru_maxrss in KiB


def traced_peak(fn):
    """Result of ``fn()`` and the peak bytes Python and numpy allocated during it."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def batch_loss(w: np.ndarray, batch: PixelBatch) -> float:
    """Mean logistic loss of one batch at weights ``w``."""
    X, y = batch.flat()
    return float(np.mean(loss_reference(w, X, y)))


def gradient_check(w: np.ndarray, batch: PixelBatch, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    batch.validate()
    X, y = batch.flat()
    analytic = _gradient(X, X @ w, y)

    def loss_at(v: np.ndarray) -> float:
        return float(np.mean(loss_reference(v, X, y)))

    worst = 0.0
    for k in range(len(w)):
        e = np.zeros_like(w)
        e[k] = step
        numeric = (loss_at(w + e) - loss_at(w - e)) / (2.0 * step)
        denom = max(abs(analytic[k]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[k] - numeric) / denom)
    return worst


def coteach_step(
    wf: np.ndarray,
    wg: np.ndarray,
    batch: PixelBatch,
    epoch: int,
    cfg: CoteachConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous co-teaching update of both learners: the package's ``_step_full``,
    the step ``train`` takes, on one batch."""
    X, y = batch.flat()
    wf2, wg2, _ = _step_full(wf, wg, X, y, epoch, cfg)
    return wf2, wg2


def write_p5(path, gray: np.ndarray) -> None:
    """Write a whole (h, w) uint8 array as binary PGM, one ``row_writer`` block."""
    with row_writer(path, b"P5", gray.shape[1], gray.shape[0]) as append:
        append(gray)


def write_p6(path, rgb: np.ndarray) -> None:
    """Write a whole (h, w, 3) uint8 array as binary PPM, one ``row_writer`` block."""
    with row_writer(path, b"P6", rgb.shape[1], rgb.shape[0]) as append:
        append(rgb)
