import csv
import io
import json

import numpy as np
import pytest

from oracles import wilcoxon_oracle
from slidebench import (
    SlideScore,
    TeamReport,
    group_compare,
    rank_teams,
    render_leaderboard,
)
from slidebench.errors import NoInformationError, ValidationError
from slidebench.leaderboard import (
    CSV_HEADER,
    GROUP_MULTI,
    GROUP_SINGLE,
    format_mean_std,
)


def _report(team, dices, fnr=0.1):
    scores = [
        SlideScore(f"s{i}", d, 0.9, fnr, 0.05, "Unknown") for i, d in enumerate(dices)
    ]
    return TeamReport(team, scores)


def test_format_mean_std_cell():
    assert format_mean_std(0.8372, 0.0858) == "0.8372±0.0858"
    assert format_mean_std(1.0, 0.0) == "1.0000±0.0000"


def test_rank_teams_descending_mean_dice():
    reports = [
        _report("low", [0.7, 0.8]),
        _report("high", [0.9, 0.95]),
        _report("mid", [0.8, 0.85]),
    ]
    entries = rank_teams(reports)
    assert [e.team for e in entries] == ["high", "mid", "low"]
    assert [e.rank for e in entries] == [1, 2, 3]
    assert entries[0].group == GROUP_SINGLE


def test_rank_teams_tie_broken_by_fnr_then_team():
    reports = [
        _report("bbb", [0.8, 0.8], fnr=0.10),
        _report("aaa", [0.8, 0.8], fnr=0.10),
        _report("ccc", [0.8, 0.8], fnr=0.09),
    ]
    entries = rank_teams(reports)
    assert [e.team for e in entries] == ["ccc", "aaa", "bbb"]


def test_rank_teams_permuted_dice_tie_then_fnr_then_team():
    # summed in slide order, (0.3, 0.2, 0.2, 0.1) gives 0.19999999999999998, the others 0.2
    reports = [
        _report("bbb", [0.1, 0.2, 0.2, 0.3], fnr=0.10),
        _report("aaa", [0.3, 0.2, 0.2, 0.1], fnr=0.10),
        _report("ccc", [0.2, 0.1, 0.3, 0.2], fnr=0.09),
    ]
    entries = rank_teams(reports)
    assert {e.mean_dice for e in entries} == {0.2}
    assert [e.team for e in entries] == ["ccc", "aaa", "bbb"]


def test_rank_teams_single_team():
    entries = rank_teams([_report("only", [0.5])])
    assert entries[0].rank == 1


def test_rank_teams_rejects_mismatched_slide_sets():
    good = _report("a", [0.5, 0.6])
    bad = TeamReport("b", [SlideScore("other", 0.5, 1, 0, 0)])
    with pytest.raises(ValidationError):
        rank_teams([good, bad])


def test_repeated_team_is_rejected():
    a, b = _report("a", [0.5, 0.6]), _report("b", [0.4, 0.7])
    with pytest.raises(ValidationError, match="team 'a' appears in more than one report"):
        rank_teams([a, b, _report("a", [0.1, 0.2])])
    with pytest.raises(ValidationError, match="team 'a' appears in more than one report"):
        group_compare([a, b, a], {"a": GROUP_MULTI, "b": GROUP_SINGLE})


def test_grouping_of_a_team_without_report_is_rejected():
    a, b = _report("a", [0.5, 0.6]), _report("b", [0.4, 0.7])
    with pytest.raises(ValidationError, match="groups name teams with no report: aa"):
        rank_teams([a, b], {"aa": GROUP_MULTI})
    with pytest.raises(ValidationError, match="groups name teams with no report: ghost"):
        group_compare([a, b], {"a": GROUP_MULTI, "b": GROUP_SINGLE, "ghost": GROUP_SINGLE})


def test_rank_teams_groups_applied():
    reports = [_report("fuser", [0.9]), _report("solo", [0.8])]
    entries = rank_teams(reports, {"fuser": GROUP_MULTI})
    assert entries[0].group == GROUP_MULTI
    assert entries[1].group == GROUP_SINGLE


def test_render_csv_schema_and_decimals():
    entries = rank_teams([_report("t1", [0.7514, 0.9230])])
    doc = render_leaderboard(entries, "csv")
    lines = doc.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("1,t1,SingleModel,0.8372,0.0858,")


def test_render_csv_quotes_names_and_reads_back():
    entries = rank_teams([_report('a,b "c"', [0.8]), _report("plain", [0.7])])
    doc = render_leaderboard(entries, "csv")
    rows = list(csv.reader(io.StringIO(doc)))
    assert rows[0] == CSV_HEADER.split(",")
    assert [len(r) for r in rows] == [8, 8, 8]
    assert [r[1] for r in rows[1:]] == ['a,b "c"', "plain"]
    assert doc.splitlines()[2].startswith("2,plain,SingleModel,0.7000,")


def test_render_text_has_mean_std_cells():
    entries = rank_teams([_report("t1", [0.8, 0.9])])
    doc = render_leaderboard(entries, "text")
    assert "0.8500±0.0500" in doc
    assert doc.splitlines()[0].startswith("Rank")


def test_render_json_round_trips():
    entries = rank_teams([_report("t1", [0.8, 0.9]), _report("t2", [0.7, 0.75])])
    payload = json.loads(render_leaderboard(entries, "json"))
    assert [row["rank"] for row in payload] == [1, 2]
    assert payload[0]["dice"] == "0.8500±0.0500"


def test_render_empty_entries_header_only():
    assert render_leaderboard([], "csv") == CSV_HEADER + "\n"
    assert render_leaderboard([], "text").splitlines()[0].startswith("Rank")


def test_render_deterministic():
    entries = rank_teams([_report("t", [0.5, 0.7])])
    for fmt in ("csv", "json", "text"):
        assert render_leaderboard(entries, fmt) == render_leaderboard(entries, fmt)


def test_render_unknown_format():
    with pytest.raises(ValidationError):
        render_leaderboard([], "yaml")


def test_group_compare_dominant_group():
    n = 6
    reports = [
        _report("m1", [0.80 + 0.01 * i for i in range(n)]),
        _report("m2", [0.82 + 0.01 * i for i in range(n)]),
        _report("s1", [0.76 + 0.01 * i for i in range(n)]),
    ]
    grouping = {"m1": GROUP_MULTI, "m2": GROUP_MULTI, "s1": GROUP_SINGLE}
    out = group_compare(reports, grouping)
    assert out["group_a"] == GROUP_MULTI
    assert out["group_b"] == GROUP_SINGLE
    assert out["n"] == n
    assert out["zeros_discarded"] == 0
    assert out["mode"] == "exact"
    # group A beats B on every slide by the same margin
    _, p = wilcoxon_oracle([0.05] * n)
    assert out["p_two_sided"] == float(p)
    assert out["group_a_mean"] == "0.8350"
    assert out["group_b_mean"] == "0.7850"
    assert set(out) == {
        "group_a", "group_b", "n", "w_statistic", "p_two_sided",
        "zeros_discarded", "mode", "group_a_mean", "group_b_mean",
    }


def test_group_compare_matches_enumeration(rng):
    n = 8
    base = rng.random(n)
    delta = rng.normal(0, 0.05, n)
    reports = [
        TeamReport("a", [SlideScore(f"s{i}", float(np.clip(base[i] + delta[i], 0, 1)), 1, 0, 0) for i in range(n)]),
        TeamReport("b", [SlideScore(f"s{i}", float(base[i]), 1, 0, 0) for i in range(n)]),
    ]
    out = group_compare(reports, {"a": GROUP_MULTI, "b": GROUP_SINGLE})
    a = [s.dice for s in reports[0].scores]
    b = [s.dice for s in reports[1].scores]
    w, p = wilcoxon_oracle(np.array(a) - np.array(b))
    assert out["w_statistic"] == w
    assert out["p_two_sided"] == float(p)


def test_group_compare_identical_groups_no_information():
    reports = [_report("a", [0.5, 0.6]), _report("b", [0.5, 0.6])]
    with pytest.raises(NoInformationError) as err:
        group_compare(reports, {"a": GROUP_MULTI, "b": GROUP_SINGLE})
    assert "identical" in str(err.value)


def test_group_compare_requires_two_groups():
    reports = [_report("a", [0.5]), _report("b", [0.6])]
    with pytest.raises(ValidationError):
        group_compare(reports, {"a": GROUP_MULTI, "b": GROUP_MULTI})
    with pytest.raises(ValidationError):
        group_compare(reports, {"a": GROUP_MULTI})
