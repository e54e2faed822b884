"""Team ranking, group comparison, and report rendering.

Leaderboards sort by mean Dice (descending), breaking ties by lower FNR and
then team id. Group comparison pairs per-slide group-mean Dice values and
runs the signed-rank test on them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NoInformationError, ValidationError
from .metrics import TeamReport, aggregate
from .stats import MODE_AUTO, PairedSample, wilcoxon_signed_rank

GROUP_MULTI = "MultiModel"
GROUP_SINGLE = "SingleModel"
GROUPS = (GROUP_MULTI, GROUP_SINGLE)

FORMATS = ("csv", "json", "text")

CSV_HEADER = "rank,team,group,mean_dice,std_dice,accuracy,fnr,fpr"


@dataclass(frozen=True)
class LeaderboardEntry:
    team: str
    group: str
    mean_dice: float
    std_dice: float
    accuracy: float
    fnr: float
    fpr: float
    rank: int

    def validate(self) -> None:
        if self.group not in GROUPS:
            raise ValidationError(f"team {self.team!r}: unknown group {self.group!r}")
        if self.rank < 1:
            raise ValidationError(f"team {self.team!r}: rank must be 1-based")


def format_mean_std(mean: float, std: float) -> str:
    """Four-decimal mean-and-spread cell, e.g. '0.8372±0.0858'."""
    return f"{mean:.4f}±{std:.4f}"


def _slide_set(reports: list[TeamReport], caller: str) -> tuple[str, ...]:
    """The sorted slide ids that every report scores; each team must have one report."""
    if not reports:
        raise ValidationError(f"{caller}: no reports")
    teams = [rep.team for rep in reports]
    repeated = [t for i, t in enumerate(teams) if t in teams[:i]]
    if repeated:
        raise ValidationError(f"team {repeated[0]!r} appears in more than one report")
    reference = tuple(sorted(reports[0].slide_ids()))
    for rep in reports:
        if tuple(sorted(rep.slide_ids())) != reference:
            raise ValidationError(
                f"team {rep.team!r} scores a different slide set than {reports[0].team!r}"
            )
    return reference


def rank_teams(
    reports: list[TeamReport], groups: dict[str, str] | None = None
) -> list[LeaderboardEntry]:
    """Rank team reports over a common slide set.

    Teams without an explicit group are treated as single-model entries.
    """
    _slide_set(reports, "rank_teams")
    rows = []
    for rep in reports:
        (dice,) = aggregate(rep.scores)
        rows.append(
            {
                "team": rep.team,
                "group": (groups or {}).get(rep.team, GROUP_SINGLE),
                "mean_dice": dice.mean,
                "std_dice": dice.std,
                "accuracy": rep.mean("accuracy"),
                "fnr": rep.mean("fnr"),
                "fpr": rep.mean("fpr"),
            }
        )
    rows.sort(key=lambda r: (-r["mean_dice"], r["fnr"], r["team"]))
    entries = [LeaderboardEntry(rank=i + 1, **row) for i, row in enumerate(rows)]
    for e in entries:
        e.validate()
    return entries


def group_compare(
    reports: list[TeamReport], grouping: dict[str, str], mode: str = MODE_AUTO
) -> dict:
    """Signed-rank comparison of two team groups on per-slide mean Dice.

    Every report's team must be assigned to one of exactly two groups; each
    slide contributes one paired observation (the group means of its Dice
    scores, as in a per-slide group-average comparison).
    """
    slide_ids = _slide_set(reports, "group_compare")
    names = sorted({grouping[rep.team] for rep in reports if rep.team in grouping})
    missing = [rep.team for rep in reports if rep.team not in grouping]
    if missing:
        raise ValidationError(f"no group assigned for teams: {', '.join(missing)}")
    if len(names) != 2:
        raise ValidationError(f"need exactly 2 groups, got {len(names)}: {names}")
    group_a, group_b = names

    per_slide: dict[str, dict[str, list[float]]] = {g: {} for g in names}
    for rep in reports:
        for s in rep.scores:
            per_slide[grouping[rep.team]].setdefault(s.slide_id, []).append(s.dice)
    a_means = tuple(float(np.mean(per_slide[group_a][sid])) for sid in slide_ids)
    b_means = tuple(float(np.mean(per_slide[group_b][sid])) for sid in slide_ids)

    sample = PairedSample(slide_ids, a_means, b_means)
    try:
        result = wilcoxon_signed_rank(sample, mode)
    except NoInformationError as exc:
        raise NoInformationError(
            f"groups {group_a!r} and {group_b!r} have identical per-slide mean Dice "
            f"on all {len(slide_ids)} slides; the signed-rank test carries no information"
        ) from exc
    return {
        "group_a": group_a,
        "group_b": group_b,
        "n": result.n_used,
        "w_statistic": result.w_statistic,
        "p_two_sided": result.p_two_sided,
        "zeros_discarded": result.zeros_discarded,
        "mode": result.mode,
        "group_a_mean": f"{np.mean(a_means):.4f}",
        "group_b_mean": f"{np.mean(b_means):.4f}",
    }


def render_leaderboard(entries: list[LeaderboardEntry], fmt: str = "text") -> str:
    """Deterministic leaderboard document in csv, json, or text form."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for e in entries:
            lines.append(
                f"{e.rank},{e.team},{e.group},{e.mean_dice:.4f},{e.std_dice:.4f},"
                f"{e.accuracy:.4f},{e.fnr:.4f},{e.fpr:.4f}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = [
            {
                "rank": e.rank,
                "team": e.team,
                "group": e.group,
                "mean_dice": e.mean_dice,
                "std_dice": e.std_dice,
                "dice": format_mean_std(e.mean_dice, e.std_dice),
                "accuracy": e.accuracy,
                "fnr": e.fnr,
                "fpr": e.fpr,
            }
            for e in entries
        ]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "text":
        header = ("Rank", "Team", "Group", "Dice", "Accuracy", "FNR", "FPR")
        rows = [
            (
                str(e.rank),
                e.team,
                e.group,
                format_mean_std(e.mean_dice, e.std_dice),
                f"{e.accuracy:.4f}",
                f"{e.fnr:.4f}",
                f"{e.fpr:.4f}",
            )
            for e in entries
        ]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for r in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(out) + "\n"
    raise ValidationError(f"unknown leaderboard format {fmt!r}")
