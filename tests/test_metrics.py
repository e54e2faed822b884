import csv

import numpy as np
import pytest

from oracles import confusion_oracle, dice_oracle, rates_oracle, traced_peak, upsample_mask
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
from slidebench import masks
from slidebench.errors import FormatError, GeometryError, ValidationError
from slidebench.reports import (
    FLAG_EMPTY_PAIR,
    FLAG_EMPTY_REGION,
    FLAG_UNDEFINED_FNR,
    FLAG_UNDEFINED_FPR,
    accuracy_fnr_fpr,
    report_aggregates,
    score_flags,
)
from slidebench.reports import _mean, _std
from slidebench.slide_io import level_dimensions


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
    with pytest.raises(ValidationError, match="^a: prediction is for slide 'b'$"):
        confusion(_mask(np.zeros((4, 4)), slide_id="a"), _mask(np.zeros((4, 4)), slide_id="b"))


@pytest.mark.parametrize("chunk_pixels", [1, 37, masks._LUMA_CHUNK_PIXELS])
def test_confusion_banding_is_invisible(rng, monkeypatch, chunk_pixels):
    """Same-level counts in bands of any height, the last one partial, equal the oracle's."""
    monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", chunk_pixels)
    for h, w in ((1, 1), (7, 5), (33, 18), (97, 130)):
        gt, pred = rng.random((h, w)) < 0.5, rng.random((h, w)) < 0.5
        c = confusion(_mask(gt), _mask(pred))
        assert (c.tp, c.fp, c.fn, c.tn) == confusion_oracle(gt, pred)


def test_confusion_counts_a_coarser_prediction_as_upsampled(rng):
    gt = rng.random((33, 18)) < 0.5
    pred = _mask(rng.random(level_dimensions(18, 33, 2)[::-1]) < 0.5, level=2)
    c = confusion(_mask(gt), pred)
    assert (c.tp, c.fp, c.fn, c.tn) == confusion_oracle(gt, upsample_mask(pred, 0, 18, 33).data)


def test_confusion_counts_validation():
    with pytest.raises(ValidationError):
        ConfusionCounts(-1, 0, 0, 0)
    with pytest.raises(ValidationError):
        ConfusionCounts(0.5, 0, 0, 0)
    with pytest.raises(ValidationError):
        ConfusionCounts(True, False, 0, 3)
    with pytest.raises(ValidationError):
        ConfusionCounts(1, 0, np.bool_(True), 3)
    assert ConfusionCounts(np.int64(2), np.uint8(1), 0, 3).total == 6


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


def test_mean_and_std_equal_numpy_bit_for_bit(rng):
    for n in range(1, 301):
        spread = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, n)
        for values in (rng.random(n), spread, rng.integers(0, 4, n) / 3):  # last: tie-heavy
            values = values.tolist()
            assert _mean(values) == float(np.mean(values))
            assert _std(values) == float(np.std(values))
    for n in (1, 9, 130):  # numpy's reduction starts from 0.0, so a -0.0 sum reads 0.0
        assert repr(_mean([-0.0] * n)) == repr(float(np.mean([-0.0] * n))) == "0.0"


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


@pytest.mark.parametrize("chunk_pixels", [1, masks._LUMA_CHUNK_PIXELS])
@pytest.mark.parametrize("gt_level", [0, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_evaluate_team_counts_coarser_predictions_as_upsampled(rng, monkeypatch, k, gt_level,
                                                                chunk_pixels):
    """Counts of a prediction k levels coarser equal the oracle's upsampled copy, edges included."""
    monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", chunk_pixels)
    for h, w in ((1, 1), (1, 9), (7, 5), (33, 18), (64, 40), (301, 1003)):
        gt = _mask(rng.random((h, w)) < 0.5, level=gt_level)
        pw, ph = level_dimensions(w, h, k)
        pred = _mask(rng.random((ph, pw)) < 0.5, level=gt_level + k)
        report = evaluate_team("t", {"s": gt}, {"s": pred})
        assert report.scores[0].counts == confusion(gt, upsample_mask(pred, gt_level, w, h))


def test_evaluate_team_scores_a_one_pixel_prediction_at_any_level(rng):
    data = rng.random((3, 5)) < 0.5
    for level in (3, 62, 63, 2000, 10**12):
        report = evaluate_team("t", {"s": _mask(data)}, {"s": _mask([[1]], level=level)})
        assert report.scores[0].counts == ConfusionCounts(data.sum(), (~data).sum(), 0, 0)


def test_coarse_prediction_scoring_peaks_below_the_truth_bytes(rng):
    h, w = 2049, 2047
    gt = _mask(rng.random((h, w)) < 0.5)
    pw, ph = level_dimensions(w, h, 2)
    pred = _mask(rng.random((ph, pw)) < 0.5, level=2)
    report, peak = traced_peak(lambda: evaluate_team("t", {"s": gt}, {"s": pred}))
    assert peak < gt.data.nbytes
    assert report.scores[0].counts == confusion(gt, upsample_mask(pred, 0, w, h))


def test_evaluate_team_requires_ceil_halved_prediction_dims():
    gt = {"s": _mask(np.ones((5, 7)))}
    # 7x5 at level 0 is 4x3 at level 1 and 2x2 at level 2
    for shape, level in (((3, 4), 1), ((2, 2), 2)):
        report = evaluate_team("t", gt, {"s": _mask(np.ones(shape), level=level)})
        assert report.scores[0].dice == 1.0
    for shape, level in (((3, 3), 1), ((4, 4), 1), ((3, 4), 2), ((5, 7), 1), ((6, 8), 0)):
        with pytest.raises(GeometryError, match="^s: prediction is"):
            evaluate_team("t", gt, {"s": _mask(np.ones(shape), level=level)})


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


def test_report_round_trip_keeps_every_flag(tmp_path, rng):
    flagged = [(0, 0, 0, 0), (0, 0, 0, 16), (0, 5, 0, 11), (3, 0, 4, 0), (0, 2, 3, 0)]
    drawn = [tuple(int(v) for v in rng.integers(0, 10 ** rng.integers(1, 16), 4))
             for _ in range(40)]
    subtypes = ("SCC", "SCLC", "ADC", "Unknown")
    scores = [score_slide(f"s{i:02d}", ConfusionCounts(*c), subtypes[i % 4])
              for i, c in enumerate(flagged + drawn)]
    assert {f for s in scores for f in s.flags} == {
        FLAG_EMPTY_REGION, FLAG_EMPTY_PAIR, FLAG_UNDEFINED_FNR, FLAG_UNDEFINED_FPR}
    report = TeamReport("t", scores)
    write_report(report, tmp_path / "r.json")
    assert read_report(tmp_path / "r.json").scores == report.scores


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


def test_scores_csv_quotes_slide_ids_and_reads_back(tmp_path):
    ids = ["s,1", 's"2', "s3"]
    report = TeamReport("t", [SlideScore(sid, 0.5, 0.5, 0.0, 0.0) for sid in ids])
    path = tmp_path / "s.csv"
    write_scores_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [6] * 4
    assert [r[0] for r in rows[1:]] == ids
    assert path.read_bytes().endswith(b"\ns3,Unknown,0.500000,0.500000,0.000000,0.000000\n")


def test_identity_2tp_fp_fn(rng):
    gt = _mask(rng.random((16, 16)) < 0.5)
    pred = _mask(rng.random((16, 16)) < 0.5)
    c = confusion(gt, pred)
    assert (c.tp + c.fn) + (c.tp + c.fp) == 2 * c.tp + c.fp + c.fn
    assert (c.tp + c.fn) == gt.count
    assert (c.tp + c.fp) == pred.count
