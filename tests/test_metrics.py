import numpy as np
import pytest

from oracles import confusion_oracle, dice_oracle, rates_oracle
from slidebench import (
    BinaryMask,
    ConfusionCounts,
    SlideScore,
    TeamReport,
    aggregate,
    confusion,
    dice,
    evaluate_team,
    read_report,
    score_slide,
    write_report,
    write_scores_csv,
)
from slidebench.errors import FormatError, GeometryError, ValidationError
from slidebench.metrics import (
    FLAG_EMPTY_PAIR,
    FLAG_EMPTY_REGION,
    FLAG_UNDEFINED_FNR,
    FLAG_UNDEFINED_FPR,
    accuracy_fnr_fpr,
    report_aggregates,
    score_flags,
    upsample_mask,
)


def _mask(data, level=0, slide_id="s"):
    return BinaryMask(slide_id, level, np.asarray(data, dtype=bool))


def test_confusion_identity(rng):
    m = _mask(rng.random((16, 16)) < 0.5)
    c = confusion(m, m)
    assert c.fp == 0 and c.fn == 0
    assert c.tp == m.count
    assert c.total == 256


def test_confusion_complement(rng):
    data = rng.random((16, 16)) < 0.5
    c = confusion(_mask(data), _mask(~data))
    assert c.tp == 0 and c.tn == 0
    assert c.fp + c.fn == 256


def test_confusion_matches_oracle(rng):
    for _ in range(5):
        gt = rng.random((32, 32)) < rng.random()
        pred = rng.random((32, 32)) < rng.random()
        c = confusion(_mask(gt), _mask(pred))
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_oracle(gt, pred)


def test_confusion_with_region(rng):
    gt = rng.random((20, 20)) < 0.5
    pred = rng.random((20, 20)) < 0.5
    region = np.zeros((20, 20), dtype=bool)
    region[5:15, 5:15] = True
    c = confusion(_mask(gt), _mask(pred), _mask(region))
    assert (c.tp, c.fp, c.fn, c.tn) == confusion_oracle(gt, pred, region)
    assert c.total == 100


def test_confusion_worker_count_invariant(rng, forks):
    gt = {f"s{i}": _mask(rng.random((64, 64)) < 0.5, slide_id=f"s{i}") for i in range(6)}
    pred = {k: _mask(rng.random((64, 64)) < 0.5, slide_id=k) for k in gt}
    assert evaluate_team("t", gt, pred, workers=1).scores == evaluate_team(
        "t", gt, pred, workers=4
    ).scores
    assert forks


def test_confusion_rejects_mismatched_masks(rng):
    with pytest.raises(GeometryError):
        confusion(_mask(np.zeros((4, 4))), _mask(np.zeros((4, 5))))
    with pytest.raises(GeometryError):
        confusion(_mask(np.zeros((4, 4))), _mask(np.zeros((4, 4)), level=1))


def test_confusion_counts_validation():
    with pytest.raises(ValidationError):
        ConfusionCounts(-1, 0, 0, 0)
    with pytest.raises(ValidationError):
        ConfusionCounts(0.5, 0, 0, 0)


def test_dice_hand_values():
    assert dice(ConfusionCounts(4, 0, 0, 12)) == 1.0
    assert dice(ConfusionCounts(0, 3, 2, 11)) == 0.0
    assert dice(ConfusionCounts(3, 1, 1, 11)) == 0.75


def test_dice_empty_pair_scores_one_with_flag():
    c = ConfusionCounts(0, 0, 0, 16)
    assert c.empty_pair
    assert dice(c) == 1.0
    assert FLAG_EMPTY_PAIR in score_flags(c)


def test_dice_symmetry(rng):
    gt = _mask(rng.random((16, 16)) < 0.5)
    pred = _mask(rng.random((16, 16)) < 0.5)
    assert dice(confusion(gt, pred)) == dice(confusion(pred, gt))


def test_dice_matches_fraction_oracle(rng):
    for _ in range(20):
        tp, fp, fn = (int(v) for v in rng.integers(0, 100, 3))
        assert dice(ConfusionCounts(tp, fp, fn, 5)) == pytest.approx(
            float(dice_oracle(tp, fp, fn)), abs=0
        )


def test_accuracy_fnr_fpr_hand_case():
    acc, fnr, fpr = accuracy_fnr_fpr(ConfusionCounts(3, 1, 1, 5))
    assert acc == 0.8
    assert fnr == 0.25
    assert fpr == 1 / 6


def test_rates_match_fraction_oracle(rng):
    for _ in range(20):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, 4))
        if tp + fp + fn + tn == 0:
            continue
        got = accuracy_fnr_fpr(ConfusionCounts(tp, fp, fn, tn))
        want = rates_oracle(tp, fp, fn, tn)
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), abs=0)


def test_all_positive_prediction_rates():
    # gt half positive, prediction everything positive
    acc, fnr, fpr = accuracy_fnr_fpr(ConfusionCounts(8, 8, 0, 0))
    assert fnr == 0.0
    assert fpr == 1.0


def test_undefined_rate_flags():
    flags = score_flags(ConfusionCounts(0, 2, 0, 14))
    assert FLAG_UNDEFINED_FNR in flags
    flags = score_flags(ConfusionCounts(2, 0, 14, 0))
    assert FLAG_UNDEFINED_FPR in flags
    flags = score_flags(ConfusionCounts(0, 0, 0, 0))
    assert FLAG_EMPTY_REGION in flags


def test_monotone_improvement(rng):
    gt = rng.random((16, 16)) < 0.5
    pred = rng.random((16, 16)) < 0.5
    wrong = np.nonzero(gt != pred)
    base = confusion(_mask(gt), _mask(pred))
    fixed = pred.copy()
    fixed[wrong[0][0], wrong[1][0]] = gt[wrong[0][0], wrong[1][0]]
    improved = confusion(_mask(gt), _mask(fixed))
    assert dice(improved) >= dice(base)
    assert accuracy_fnr_fpr(improved)[0] >= accuracy_fnr_fpr(base)[0]


def test_upsample_mask_nearest_neighbor():
    coarse = _mask([[1, 0], [0, 1]], level=1)
    fine = upsample_mask(coarse, 0, 4, 4)
    assert fine.level == 0
    assert np.array_equal(
        fine.data,
        np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=bool),
    )


def test_upsample_mask_crops_ceil_halved_dims():
    # a 3-wide level-1 mask covers a 5-wide level-0 slide
    coarse = _mask([[1, 0, 1]], level=1)
    fine = upsample_mask(coarse, 0, 5, 2)
    assert fine.data.shape == (2, 5)
    assert fine.data[0].tolist() == [True, True, False, False, True]


def test_upsample_rejects_downsampling():
    with pytest.raises(GeometryError):
        upsample_mask(_mask(np.zeros((4, 4))), 1, 2, 2)


def test_score_slide_carries_counts_and_subtype():
    s = score_slide("slide_001", ConfusionCounts(3, 1, 1, 5), "SCC")
    assert s.subtype == "SCC"
    assert s.dice == 0.75
    assert s.counts == ConfusionCounts(3, 1, 1, 5)


def test_aggregate_single_score():
    s = SlideScore("a", 0.5, 0.5, 0.1, 0.1)
    aggs = aggregate([s])
    assert len(aggs) == 1
    assert aggs[0].mean == 0.5
    assert aggs[0].std == 0.0
    assert aggs[0].n == 1


def test_aggregate_population_std():
    scores = [SlideScore("a", 0.5, 1, 0, 0), SlideScore("b", 1.0, 1, 0, 0)]
    aggs = aggregate(scores)
    assert aggs[0].mean == 0.75
    assert aggs[0].std == 0.25


def test_aggregate_by_subtype_fixed_order():
    scores = [
        SlideScore("a", 0.8, 1, 0, 0, "SCC"),
        SlideScore("b", 0.6, 1, 0, 0, "SCLC"),
        SlideScore("c", 0.9, 1, 0, 0, "ADC"),
        SlideScore("d", 0.7, 1, 0, 0, "SCC"),
    ]
    aggs = aggregate(scores, group_by="subtype")
    assert [a.key for a in aggs] == ["ADC", "SCC", "SCLC"]
    by_key = {a.key: a for a in aggs}
    assert by_key["SCC"].mean == pytest.approx(0.75)
    assert by_key["SCC"].n == 2


def test_aggregate_empty_raises():
    with pytest.raises(ValidationError):
        aggregate([])


def test_evaluate_team_identity_predictions(rng):
    gt = {f"s{i}": _mask(rng.random((8, 8)) < 0.5, slide_id=f"s{i}") for i in range(3)}
    report = evaluate_team("t", gt, gt)
    assert report.team == "t"
    assert [s.slide_id for s in report.scores] == ["s0", "s1", "s2"]
    assert all(s.dice == 1.0 for s in report.scores)


def test_evaluate_team_upsamples_coarser_predictions(rng):
    data = rng.random((8, 8)) < 0.5
    gt = {"s": _mask(data)}
    pred_fine = upsample_mask(_mask(data[::2, ::2], level=1), 0, 8, 8)
    report_direct = evaluate_team("t", gt, {"s": pred_fine})
    report_auto = evaluate_team("t", gt, {"s": _mask(data[::2, ::2], level=1)})
    assert report_direct.scores[0].counts == report_auto.scores[0].counts


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_team_rejects_finer_predictions(workers):
    gt = {k: _mask(np.zeros((4, 4)), level=1, slide_id=k) for k in ("a", "b")}
    pred = {k: _mask(np.zeros((8, 8)), level=0, slide_id=k) for k in gt}
    # both slides fail; the first in sorted order is reported at any worker count
    with pytest.raises(GeometryError, match="^a: prediction level 0 finer than ground truth 1$"):
        evaluate_team("t", gt, pred, workers=workers)


def test_evaluate_team_missing_slide(rng):
    gt = {"a": _mask(np.zeros((4, 4))), "b": _mask(np.zeros((4, 4)))}
    with pytest.raises(ValidationError) as err:
        evaluate_team("t", gt, {"a": gt["a"]})
    assert "b" in str(err.value)


def test_report_aggregates_overall_then_subtypes():
    scores = [
        SlideScore("a", 0.8, 1, 0, 0, "SCC"),
        SlideScore("b", 0.6, 1, 0, 0, "ADC"),
    ]
    aggs = report_aggregates(TeamReport("t", scores))
    assert [a.key for a in aggs] == ["all", "ADC", "SCC"]


def test_report_round_trip(tmp_path, rng):
    gt = {f"s{i}": _mask(rng.random((8, 8)) < 0.5, slide_id=f"s{i}") for i in range(2)}
    pred = {k: _mask(rng.random((8, 8)) < 0.5, slide_id=k) for k in gt}
    report = evaluate_team("team_x", gt, pred, subtypes={"s0": "SCC", "s1": "ADC"})
    path = tmp_path / "r.json"
    write_report(report, path)
    back = read_report(path)
    assert back.team == "team_x"
    assert back.scores == report.scores


def test_read_report_rejects_non_object_score(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"team": "t", "scores": [1]}')
    with pytest.raises(FormatError, match="report score is 1, expected a JSON object"):
        read_report(path)


def test_scores_csv_format(tmp_path):
    report = TeamReport("t", [SlideScore("slide_1", 0.75, 0.8, 0.25, 1 / 6, "SCC")])
    path = tmp_path / "s.csv"
    write_scores_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "slide_id,subtype,dice,accuracy,fnr,fpr"
    assert lines[1] == "slide_1,SCC,0.750000,0.800000,0.250000,0.166667"


def test_identity_2tp_fp_fn(rng):
    gt = _mask(rng.random((16, 16)) < 0.5)
    pred = _mask(rng.random((16, 16)) < 0.5)
    c = confusion(gt, pred)
    assert (c.tp + c.fn) + (c.tp + c.fp) == 2 * c.tp + c.fp + c.fn
    assert (c.tp + c.fn) == gt.count
    assert (c.tp + c.fp) == pred.count
