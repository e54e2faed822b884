"""Team reports in plain Python: the score types, the rule that gives a slide's Dice,
accuracy, FNR, FPR and flags from its confusion counts (a counted score must match it to
the bit), the report writer and reader, Dice aggregates and the subtype and truth-table CSV
readers. No numpy, so ``compare`` and ``leaderboard`` start without it. Its mean and
population std sum with ``math.fsum``: each sum is the exact sum rounded once, so it
depends only on the values, not on the order of slides or reports."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

from .errors import FormatError, ValidationError, format_csv, format_json, naming, read_text
from .errors import typed_field, write_text

SUBTYPE_UNKNOWN = "Unknown"
SUBTYPES = ("SCC", "SCLC", "ADC", SUBTYPE_UNKNOWN)

METRIC_FIELDS = ("dice", "accuracy", "fnr", "fpr")
COUNT_FIELDS = ("tp", "fp", "fn", "tn")
TRUTH_TABLE_COLUMNS = ("slide_id", "team", "tp", "fp", "fn", "tn")

FLAG_EMPTY_PAIR = "empty_pair"
FLAG_UNDEFINED_FNR = "undefined_fnr"
FLAG_UNDEFINED_FPR = "undefined_fpr"
FLAG_EMPTY_REGION = "empty_region"


def _mean(values) -> float:
    """The mean of a non-empty sequence: its exactly rounded sum over its length."""
    return math.fsum(values) / len(values)


def _std(values) -> float:
    """The population std: the root of the mean of the float squares of ``v - _mean``,
    whose sum is exactly rounded."""
    mean = _mean(values)
    return math.sqrt(math.fsum(d * d for d in (float(v) - mean for v in values)) / len(values))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def validate(self) -> None:
        for name in COUNT_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, Integral) or isinstance(v, bool) or v < 0:
                raise ValidationError(f"confusion count {name}={v!r} must be a non-negative int")

    __post_init__ = validate

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
        c = self.counts  # a counted score holds exactly, bit for bit, what its counts give
        derived = () if c is None else (dice(c), *accuracy_fnr_fpr(c), score_flags(c))
        for name, want in zip((*METRIC_FIELDS, "flags"), derived):
            if getattr(self, name) != want:
                raise ValidationError(f"{self.slide_id}: {name}={getattr(self, name)!r}, "
                                      f"but its counts give {want!r}")

    __post_init__ = validate


@dataclass(frozen=True)
class AggregateScore:
    key: str
    mean: float
    std: float
    n: int


@dataclass
class TeamReport:
    team: str
    scores: list[SlideScore] = field(default_factory=list)

    def validate(self) -> None:
        seen = set()
        for sid in self.slide_ids():
            if sid in seen:
                raise ValidationError(f"report for {self.team!r} scores slide {sid!r} twice")
            seen.add(sid)

    __post_init__ = validate

    def slide_ids(self) -> tuple[str, ...]:
        return tuple(s.slide_id for s in self.scores)

    def mean(self, metric: str) -> float:
        if not self.scores:
            raise ValidationError(f"report for {self.team!r} has no scores")
        return _mean([getattr(s, metric) for s in self.scores])


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
    return SlideScore(slide_id, dice(c), *accuracy_fnr_fpr(c), subtype, score_flags(c), c)


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
        values = [s.dice for s in groups[key]]
        out.append(AggregateScore(key, _mean(values), _std(values), len(values)))
    return out


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
    write_text(path, format_json(payload))


def write_scores_csv(report: TeamReport, path: str | Path) -> None:
    rows = ((s.slide_id, s.subtype, *(f"{getattr(s, k):.6f}" for k in METRIC_FIELDS))
            for s in report.scores)
    write_text(path, format_csv(("slide_id", "subtype", *METRIC_FIELDS), rows))


def read_report(path: str | Path) -> TeamReport:
    payload = read_text(path, "report", json.loads)
    team = typed_field(payload, "team", str, f"{path}: report")
    scores = []
    where = f"{path}: report score"
    with naming(path):
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
        return TeamReport(team, scores)


def _read_csv(path: str | Path, columns: tuple[str, ...]) -> list[dict]:
    """Rows of a CSV file that has every one of ``columns``; FormatError otherwise."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows, fields = list(reader), reader.fieldnames or []  # an empty file has no header
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: cannot read CSV: {exc}") from exc
    missing = [c for c in columns if c not in fields]
    if missing:
        raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
    for n, row in enumerate(rows, 1):
        if any(row[c] is None for c in columns):
            raise FormatError(f"{path}: row {n} has fewer than {len(fields)} fields")
    return rows


def read_truth_table(path: str | Path) -> list[dict]:
    out = []
    for n, row in enumerate(_read_csv(path, TRUTH_TABLE_COLUMNS), 1):
        rec = {k: row[k] for k in TRUTH_TABLE_COLUMNS}
        for k in TRUTH_TABLE_COLUMNS[2:]:
            try:
                rec[k] = int(rec[k])
            except ValueError as exc:
                raise FormatError(f"{path}: row {n} field {k!r} is {rec[k]!r}, "
                                  "expected an integer") from exc
        out.append(rec)
    return out


def read_subtypes(path: str | Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for n, row in enumerate(_read_csv(path, ("slide_id", "subtype")), 1):
        slide, subtype = row["slide_id"], row["subtype"]
        if subtype not in SUBTYPES:
            raise FormatError(f"{path}: row {n} field 'subtype' is {subtype!r}, "
                              f"expected one of {', '.join(SUBTYPES)}")
        if slide in out:
            raise FormatError(f"{path}: row {n} repeats slide_id {slide!r}")
        out[slide] = subtype
    return out
