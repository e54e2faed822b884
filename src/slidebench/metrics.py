"""Segmentation scoring: confusion counts, Dice, accuracy, FNR, FPR.

The report types, ``aggregate`` and ``read_report`` come from the numpy-free
``reports``. All counting is exact 64-bit integer arithmetic up to the final
division. ``confusion`` is one in-process tally; ``evaluate_team``
parallelizes over slides, one slide per chunk, and keeps sorted slide order,
so reports are identical for any worker count. Elsewhere, synthesis
parallelizes per slide, and tiling sums its Otsu histogram over one row slice
per pool process, then counts tissue and tumor pixels per row band.
"""
from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from . import parallel
from .errors import GeometryError, ValidationError, format_csv, format_json
from .masks import BinaryMask, _row_blocks
from .reports import COUNT_FIELDS, METRIC_FIELDS, SUBTYPE_UNKNOWN, AggregateScore, ConfusionCounts
from .reports import SlideScore, TeamReport, aggregate, read_report
from .slide_io import level_dimensions

FLAG_EMPTY_PAIR = "empty_pair"
FLAG_UNDEFINED_FNR = "undefined_fnr"
FLAG_UNDEFINED_FPR = "undefined_fpr"
FLAG_EMPTY_REGION = "empty_region"


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


def dice(c: ConfusionCounts) -> float:
    """2*tp / (2*tp + fp + fn); an empty pair scores 1.0 (see score flags)."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 1.0
    return 2 * c.tp / denom


def accuracy_fnr_fpr(c: ConfusionCounts) -> tuple[float, float, float]:
    """(accuracy, fnr, fpr) with zero-denominator rates falling back to 0."""
    accuracy = (c.tp + c.tn) / c.total if c.total > 0 else 0.0
    fnr = c.fn / (c.fn + c.tp) if c.fn + c.tp > 0 else 0.0
    fpr = c.fp / (c.fp + c.tn) if c.fp + c.tn > 0 else 0.0
    return accuracy, fnr, fpr


def score_flags(c: ConfusionCounts) -> tuple[str, ...]:
    flags = []
    if c.total == 0:
        flags.append(FLAG_EMPTY_REGION)
    if c.empty_pair:
        flags.append(FLAG_EMPTY_PAIR)
    if c.fn + c.tp == 0:
        flags.append(FLAG_UNDEFINED_FNR)
    if c.fp + c.tn == 0:
        flags.append(FLAG_UNDEFINED_FPR)
    return tuple(flags)


def score_slide(slide_id: str, c: ConfusionCounts, subtype: str = SUBTYPE_UNKNOWN) -> SlideScore:
    accuracy, fnr, fpr = accuracy_fnr_fpr(c)
    return SlideScore(slide_id, dice(c), accuracy, fnr, fpr, subtype, score_flags(c), c)


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


def report_aggregates(report: TeamReport) -> list[AggregateScore]:
    """Overall Dice aggregate followed by per-subtype rows."""
    aggs = aggregate(report.scores)
    if any(s.subtype != SUBTYPE_UNKNOWN for s in report.scores):
        aggs += aggregate(report.scores, "subtype")
    return aggs


def write_report(report: TeamReport, path: str | Path) -> None:
    """Serialize a team report as JSON (scores, counts, Dice aggregates)."""
    scores = []
    for s in report.scores:
        score = {"slide_id": s.slide_id, "subtype": s.subtype}
        score.update((k, getattr(s, k)) for k in METRIC_FIELDS)
        score["flags"] = list(s.flags)
        if s.counts is not None:
            score.update((k, getattr(s.counts, k)) for k in COUNT_FIELDS)
        scores.append(score)
    aggregates = [vars(a) for a in report_aggregates(report)]
    payload = {"team": report.team, "scores": scores, "aggregates": aggregates}
    Path(path).write_text(format_json(payload))


def write_scores_csv(report: TeamReport, path: str | Path) -> None:
    rows = ((s.slide_id, s.subtype, *(f"{getattr(s, k):.6f}" for k in METRIC_FIELDS))
            for s in report.scores)
    Path(path).write_text(format_csv(("slide_id", "subtype", *METRIC_FIELDS), rows))
