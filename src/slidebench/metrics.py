"""Segmentation scoring: confusion counts, Dice, accuracy, FNR, FPR.

All counting is exact 64-bit integer arithmetic up to the final division.
``confusion`` is one in-process tally; ``evaluate_team`` parallelizes over
slides, one slide per chunk, and keeps sorted slide order, so reports are
identical for any worker count. Elsewhere, synthesis parallelizes per slide
and tiling per tile row.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import parallel
from .errors import FormatError, GeometryError, ValidationError, typed_field
from .masks import BinaryMask, _row_blocks
from .slide_io import level_dimensions

SUBTYPE_SCC = "SCC"
SUBTYPE_SCLC = "SCLC"
SUBTYPE_ADC = "ADC"
SUBTYPE_UNKNOWN = "Unknown"
SUBTYPES = (SUBTYPE_SCC, SUBTYPE_SCLC, SUBTYPE_ADC, SUBTYPE_UNKNOWN)

FLAG_EMPTY_PAIR = "empty_pair"
FLAG_UNDEFINED_FNR = "undefined_fnr"
FLAG_UNDEFINED_FPR = "undefined_fpr"
FLAG_EMPTY_REGION = "empty_region"

METRIC_FIELDS = ("dice", "accuracy", "fnr", "fpr")
COUNT_FIELDS = ("tp", "fp", "fn", "tn")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in COUNT_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValidationError(f"confusion count {name}={v!r} must be a non-negative int")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def empty_pair(self) -> bool:
        """Both masks empty over the evaluated region."""
        return 2 * self.tp + self.fp + self.fn == 0


@dataclass(frozen=True)
class SlideScore:
    slide_id: str
    dice: float
    accuracy: float
    fnr: float
    fpr: float
    subtype: str = SUBTYPE_UNKNOWN
    flags: tuple[str, ...] = ()
    counts: ConfusionCounts | None = None

    def validate(self) -> None:
        for name in METRIC_FIELDS:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{self.slide_id}: {name}={v} outside [0, 1]")
        if self.subtype not in SUBTYPES:
            raise ValidationError(f"{self.slide_id}: unknown subtype {self.subtype!r}")


@dataclass(frozen=True)
class AggregateScore:
    key: str
    mean: float
    std: float
    n: int

    def validate(self) -> None:
        if self.n < 1:
            raise ValidationError(f"aggregate {self.key!r}: n must be >= 1")
        if self.std < 0:
            raise ValidationError(f"aggregate {self.key!r}: negative std")


@dataclass
class TeamReport:
    team: str
    scores: list[SlideScore] = field(default_factory=list)

    def slide_ids(self) -> tuple[str, ...]:
        return tuple(s.slide_id for s in self.scores)

    def mean(self, metric: str) -> float:
        if not self.scores:
            raise ValidationError(f"report for {self.team!r} has no scores")
        return float(np.mean([getattr(s, metric) for s in self.scores]))


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
    score = SlideScore(slide_id, dice(c), accuracy, fnr, fpr, subtype, score_flags(c), c)
    score.validate()
    return score


def aggregate(scores: list[SlideScore], group_by: str = "none") -> list[AggregateScore]:
    """Mean and population std of Dice per group, in lexicographic group order."""
    if not scores:
        raise ValidationError("aggregate: no scores")
    if group_by == "none":
        groups = {"all": scores}
    elif group_by == "subtype":
        groups = {}
        for s in scores:
            groups.setdefault(s.subtype, []).append(s)
    else:
        raise ValidationError(f"unknown grouping {group_by!r} (use 'none' or 'subtype')")
    out = []
    for key in sorted(groups):
        values = np.array([s.dice for s in groups[key]], dtype=np.float64)
        agg = AggregateScore(key, float(values.mean()), float(values.std()), len(values))
        agg.validate()
        out.append(agg)
    return out


def _score_slide(gt: dict, pred: dict, subtypes: dict[str, str], slide_id: str) -> SlideScore:
    counts = confusion(gt[slide_id], pred[slide_id])
    return score_slide(slide_id, counts, subtypes.get(slide_id, SUBTYPE_UNKNOWN))


def evaluate_team(
    team: str,
    gt: dict[str, BinaryMask],
    pred: dict[str, BinaryMask],
    subtypes: dict[str, str] | None = None,
    workers: int | None = None,
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
    payload = {
        "team": report.team,
        "scores": [
            {
                "slide_id": s.slide_id,
                "subtype": s.subtype,
                "dice": s.dice,
                "accuracy": s.accuracy,
                "fnr": s.fnr,
                "fpr": s.fpr,
                "flags": list(s.flags),
                **(
                    {"tp": s.counts.tp, "fp": s.counts.fp, "fn": s.counts.fn, "tn": s.counts.tn}
                    if s.counts is not None
                    else {}
                ),
            }
            for s in report.scores
        ],
        "aggregates": [
            {"key": a.key, "mean": a.mean, "std": a.std, "n": a.n}
            for a in report_aggregates(report)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_report(path: str | Path) -> TeamReport:
    try:
        payload = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed report: {exc}") from exc
    team = typed_field(payload, "team", str, f"{path}: report")
    scores = []
    where = f"{path}: report score"
    for s in typed_field(payload, "scores", list, f"{path}: report"):
        if not isinstance(s, dict):
            raise FormatError(f"{where} is {s!r}, expected a JSON object")
        counts = None
        if "tp" in s:
            counts = ConfusionCounts(*(typed_field(s, k, int, where) for k in COUNT_FIELDS))
        flags = typed_field(s, "flags", list, where) if "flags" in s else []
        if not all(isinstance(f, str) for f in flags):
            raise FormatError(f"{where} field 'flags' is {flags!r}, expected strings")
        scores.append(
            SlideScore(
                typed_field(s, "slide_id", str, where),
                *(typed_field(s, k, (int, float), where) for k in METRIC_FIELDS),
                typed_field(s, "subtype", str, where),
                tuple(flags),
                counts,
            )
        )
    if not scores:
        raise FormatError(f"{path}: report has no scores")
    report = TeamReport(team, scores)
    for s in report.scores:
        s.validate()
    return report


def write_scores_csv(report: TeamReport, path: str | Path) -> None:
    lines = ["slide_id,subtype,dice,accuracy,fnr,fpr"]
    for s in report.scores:
        lines.append(
            f"{s.slide_id},{s.subtype},{s.dice:.6f},{s.accuracy:.6f},{s.fnr:.6f},{s.fpr:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
