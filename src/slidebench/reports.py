"""Team reports, the report reader, Dice aggregates and the subtype and truth-table CSV
readers, in plain Python.

No numpy, so ``compare`` and ``leaderboard`` start without it; the mean and
population std still equal numpy's float64 ``np.mean`` and ``np.std`` bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import reduce
from numbers import Integral
from operator import add
from pathlib import Path

from .errors import FormatError, ValidationError, naming, typed_field

SUBTYPE_UNKNOWN = "Unknown"
SUBTYPES = ("SCC", "SCLC", "ADC", SUBTYPE_UNKNOWN)

METRIC_FIELDS = ("dice", "accuracy", "fnr", "fpr")
COUNT_FIELDS = ("tp", "fp", "fn", "tn")
TRUTH_TABLE_COLUMNS = ("slide_id", "team", "tp", "fp", "fn", "tn")


def _pairwise_sum(x: list[float]) -> float:
    """Sum in the order of numpy's float64 ``pairwise_sum`` (``loops_utils.h.src``): one
    running sum below 8 values, 8 strided running sums up to 128, and above that the
    sum of two halves split at a multiple of 8. Every sum starts from 0.0, as numpy's
    reduction does, so the only zero it returns is +0.0."""
    n, m = len(x), len(x) - len(x) % 8
    if n < 8:
        return reduce(add, x, 0.0)
    if n <= 128:
        r = [reduce(add, x[j:m:8], 0.0) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, x[m:], head)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def _mean(values) -> float:
    """``float(np.mean(values))`` of a non-empty sequence, bit for bit."""
    return _pairwise_sum([float(v) for v in values]) / len(values)


def _std(values) -> float:
    """``float(np.std(values))``, the population std, bit for bit."""
    mean = _mean(values)
    squares = [d * d for d in (float(v) - mean for v in values)]
    return math.sqrt(_pairwise_sum(squares) / len(values))


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


def read_report(path: str | Path) -> TeamReport:
    try:
        payload = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed report: {exc}") from exc
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
        with open(path, newline="") as fh:
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
