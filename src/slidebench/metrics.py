"""Segmentation scoring with numpy: exact pixel confusion counts, slide by slide.

``confusion`` is one in-process tally in exact 64-bit integer arithmetic.
``evaluate_team`` parallelizes over slides, one slide per chunk, and keeps
sorted slide order, so reports are identical for any worker count. What a
slide's score is, given its counts, is decided by the numpy-free ``reports``.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import parallel
from .errors import GeometryError, ValidationError
from .masks import BinaryMask, _row_blocks
from .reports import SUBTYPE_UNKNOWN, ConfusionCounts, SlideScore, TeamReport, score_slide
from .slide_io import level_dimensions

# perfbench/tracer.py's LAYERS finds the report writer as slidebench.metrics.write_report
from .reports import write_report  # noqa: F401


def confusion(gt: BinaryMask, pred: BinaryMask) -> ConfusionCounts:
    """Exact pixel confusion counts of a prediction against the ground truth of its slide.

    A prediction at level k over ground truth at level g must have the truth's
    dimensions halved k - g times with ceiling. Each pixel of a coarser
    prediction counts for the 2**(k - g) by 2**(k - g) truth pixels it covers,
    cut at the truth's edge. Counting goes in cache-sized bands of whole truth
    rows, one per ``_row_blocks`` block of prediction rows; pixels are
    repeated only when the prediction is coarser, one band at a time.
    """
    if pred.level < gt.level:
        raise GeometryError(
            f"{gt.slide_id}: prediction level {pred.level} finer than ground truth {gt.level}"
        )
    want = level_dimensions(gt.width, gt.height, pred.level - gt.level)
    if (pred.width, pred.height) != want:
        raise GeometryError(
            f"{gt.slide_id}: prediction is {pred.width}x{pred.height} at level {pred.level}, but "
            f"the {gt.width}x{gt.height} level-{gt.level} ground truth is {want[0]}x{want[1]} there"
        )
    if pred.slide_id != gt.slide_id:
        raise ValidationError(f"{gt.slide_id}: prediction is for slide {pred.slide_id!r}")
    f = 1 << min(pred.level - gt.level, 62)
    fy, fx = min(f, gt.height), min(f, gt.width)  # no pixel covers more than the whole truth
    tp = positives = 0
    for rows in _row_blocks(pred.height, fy * gt.width):
        truth, band = gt.data[rows.start * fy : rows.stop * fy], pred.data[rows]
        if f > 1:
            band = np.repeat(np.repeat(band, fy, axis=0), fx, axis=1)[: len(truth), : gt.width]
        tp += int(np.count_nonzero(band & truth))
        positives += int(np.count_nonzero(band))
    fp, fn = positives - tp, gt.count - tp
    return ConfusionCounts(tp, fp, fn, gt.data.size - tp - fp - fn)


def _score_slide(gt: dict, pred: dict, subtypes: dict[str, str], slide_id: str) -> SlideScore:
    counts = confusion(gt[slide_id], pred[slide_id])
    return score_slide(slide_id, counts, subtypes.get(slide_id, SUBTYPE_UNKNOWN))


def evaluate_team(
    team: str,
    gt: dict[str, BinaryMask],
    pred: dict[str, BinaryMask],
    subtypes: dict[str, str] | None = None,
    workers: int = 1,
) -> TeamReport:
    """Score one team's predictions against ground truth with ``confusion``, slide by slide.

    Slides are scored in sorted id order, one slide per chunk on ``workers`` processes.
    """
    if not gt:
        raise ValidationError("evaluate_team: no ground-truth masks")
    missing = sorted(set(gt) - set(pred))
    if missing:
        raise ValidationError(f"team {team!r} is missing predictions for: {', '.join(missing)}")
    score = partial(_score_slide, gt, pred, subtypes or {})
    scores = parallel.run_chunks(score, sorted(gt), workers=workers)
    return TeamReport(team, scores)
