"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each criterion re-verifies a core guarantee end to end against independent
oracles or construction-guaranteed outcomes, with an explicit runtime budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""
import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from oracles import (
    confusion_oracle,
    coteach_step,
    dice_oracle,
    gradient_check,
    otsu_oracle,
    raster_oracle,
    tile_label_threeclass_oracle,
    tile_label_threshold75_oracle,
    wilcoxon_oracle,
    logistic_gd_oracle,
)
from slidebench import (
    Annotation,
    AnnotationSet,
    BinaryMask,
    CorruptionSpec,
    CoteachConfig,
    PairedSample,
    PixelBatch,
    SynthConfig,
    TilingConfig,
    confusion,
    dice,
    emit_manifest,
    evaluate_team,
    extract_tiles,
    generate_challenge,
    generate_slide,
    otsu_threshold,
    pixel_features,
    rank_teams,
    rasterize,
    read_mask,
    read_subtypes,
    read_truth_table,
    report_aggregates,
    wilcoxon_signed_rank,
)
from slidebench.coteach import noise_benchmark
from slidebench.leaderboard import format_mean_std
from slidebench.masks import METHOD_GRAY200
from slidebench.stats import MODE_APPROX, MODE_EXACT


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {state} - {name}{suffix}")
    assert ok, f"criterion {num:02d} failed: {name}{suffix}"


def _mask_pair(rng, h, w):
    gt = BinaryMask("s", 0, rng.random((h, w)) < rng.uniform(0.1, 0.9))
    pred = BinaryMask("s", 0, rng.random((h, w)) < rng.uniform(0.1, 0.9))
    return gt, pred


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_01_confusion_and_dice_match_pixel_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        gt, pred = _mask_pair(rng, 64, 64)
        c = confusion(gt, pred)
        tp, fp, fn, tn = confusion_oracle(gt.data, pred.data)
        ok = ok and (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
        ok = ok and dice(c) == float(dice_oracle(tp, fp, fn))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(1, "confusion counts and Dice equal the per-pixel oracle on 100 mask pairs",
             ok, f"{elapsed:.2f}s")


def test_criterion_02_otsu_matches_exhaustive_search():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        hist = np.zeros(256, dtype=np.int64)
        support = rng.choice(256, size=int(rng.integers(2, 40)), replace=False)
        hist[support] = rng.integers(1, 1000, len(support))
        ok = ok and otsu_threshold(hist) == otsu_oracle(hist)
    tie = np.zeros(256, dtype=np.int64)
    tie[[100, 150]] = 7
    ok = ok and otsu_threshold(tie) == otsu_oracle(tie) == 100
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(2, "Otsu equals exhaustive between-class-variance argmax with smallest-t ties",
             ok, f"50 histograms, {elapsed:.2f}s")


def test_criterion_03_rasterization_matches_point_in_polygon_oracle():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    ok = True
    for i in range(50):
        w = int(rng.integers(16, 129))
        h = int(rng.integers(16, 129))
        polys = []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(3, 13))
            polys.append(np.column_stack((rng.uniform(-5, w + 5, n), rng.uniform(-5, h + 5, n))))
        aset = AnnotationSet("s", [Annotation(f"p{j}", "tumor", v) for j, v in enumerate(polys)])
        got = rasterize(aset, 0, w, h)
        ok = ok and np.array_equal(got.data, raster_oracle(polys, w, h))
        w1, h1 = max(1, math.ceil(w / 2)), max(1, math.ceil(h / 2))
        scaled = AnnotationSet("s", [Annotation(f"p{j}", "tumor", v * 0.5)
                                     for j, v in enumerate(polys)])
        ok = ok and np.array_equal(rasterize(aset, 1, w1, h1).data,
                                   rasterize(scaled, 0, w1, h1).data)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(3, "rasterization equals the pixel-center oracle and is level-consistent",
             ok, f"50 polygon sets, {elapsed:.2f}s")


def test_criterion_04_tile_labels_match_brute_force_counting():
    from slidebench.tiling import label_threeclass, label_threshold75

    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    ok = True
    fills = (0.0, 0.05, 0.5, 0.74, 0.76, 0.95, 1.0)
    for i in range(1000):
        side = int(rng.integers(2, 17))
        tile = rng.random((side, side)) < fills[i % len(fills)]
        tumor = int(np.count_nonzero(tile))
        total = tile.size
        ok = ok and label_threshold75(tumor, total) == tile_label_threshold75_oracle(tile)
        ok = ok and label_threeclass(tumor, total) == tile_label_threeclass_oracle(tile)
    exact75 = np.zeros((8, 8), dtype=bool)
    exact75.ravel()[:48] = True
    ok = ok and label_threshold75(48, 64) == tile_label_threshold75_oracle(exact75) == "Unused"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _verdict(4, "tile labels match brute-force tumor-pixel counting, 0.75 exactly is Unused",
             ok, f"1000 tiles, {elapsed:.2f}s")


def test_criterion_05_signed_rank_exact_matches_enumeration():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for m in range(1, 13):
        for _ in range(8):
            if rng.random() < 0.5:
                d = rng.normal(0.0, 1.0, m)
            else:
                d = rng.integers(-4, 5, m).astype(np.float64)
            if not np.any(d != 0):
                d[0] = 1.0
            sample = PairedSample(tuple(f"s{i}" for i in range(m)),
                                  tuple(d), tuple(0.0 for _ in range(m)))
            result = wilcoxon_signed_rank(sample, mode=MODE_EXACT)
            w, p = wilcoxon_oracle(d)
            ok = ok and result.w_statistic == w and result.p_two_sided == float(p)
            checked += 1
    hand = wilcoxon_signed_rank(
        PairedSample(("a", "b", "c"), (1.0, 2.0, 3.0), (0.0, 0.0, 0.0)), mode=MODE_EXACT)
    ok = ok and hand.p_two_sided == 0.25 and hand.w_statistic == 6.0

    worst = 0.0
    for _ in range(30):
        d = rng.normal(0.0, 1.0, 12)
        sample = PairedSample(tuple(f"s{i}" for i in range(12)),
                              tuple(d), tuple(0.0 for _ in range(12)))
        exact = wilcoxon_signed_rank(sample, mode=MODE_EXACT).p_two_sided
        approx = wilcoxon_signed_rank(sample, mode=MODE_APPROX).p_two_sided
        worst = max(worst, abs(exact - approx))
    ok = ok and worst < 0.01
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(5, "exact signed-rank p equals full enumeration; approximation within 0.01 at n=12",
             ok, f"{checked} samples, worst approx gap {worst:.4f}, {elapsed:.2f}s")


def test_criterion_06_end_to_end_challenge_reproduces_truth_table(tmp_path):
    t0 = time.perf_counter()
    cfg = SynthConfig(seed=23, slides=5, level0_size=512, n_levels=2)
    teams = [
        ("exact", CorruptionSpec(seed=23)),
        ("flip2", CorruptionSpec(flip_rate=0.02, seed=23)),
        ("flip5", CorruptionSpec(flip_rate=0.05, seed=23)),
    ]
    out = tmp_path / "challenge"
    generate_challenge(cfg, teams, out, workers=1)
    truth = {p.stem: read_mask(p) for p in sorted((out / "truth").glob("*.pgm"))}
    subtypes = read_subtypes(out / "subtypes.csv")
    table = {(r["slide_id"], r["team"]): r for r in read_truth_table(out / "truth_table.csv")}

    ok = True
    reports = []
    for name, _ in teams:
        preds = {p.stem: read_mask(p)
                 for p in sorted((out / "predictions" / name).glob("*.pgm"))}
        report = evaluate_team(name, truth, preds, subtypes)
        reports.append(report)
        for score in report.scores:
            row = table[(score.slide_id, name)]
            got = (score.counts.tp, score.counts.fp, score.counts.fn, score.counts.tn)
            ok = ok and got == (row["tp"], row["fp"], row["fn"], row["tn"])

    entries = rank_teams(reports)
    ok = ok and [e.team for e in entries] == ["exact", "flip2", "flip5"]
    ok = ok and format_mean_std(entries[0].mean_dice, entries[0].std_dice) == "1.0000±0.0000"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(6, "challenge evaluation reproduces the generator truth table and the built-in ranking",
             ok, f"5 slides x 3 teams, {elapsed:.2f}s")


def test_criterion_07_leaderboard_and_subtype_format():
    from slidebench.reports import score_slide, ConfusionCounts, TeamReport

    t0 = time.perf_counter()
    ok = format_mean_std(0.8372, 0.0858) == "0.8372±0.0858"

    scores = [
        score_slide("s1", ConfusionCounts(80, 10, 10, 900), "SCC"),
        score_slide("s2", ConfusionCounts(70, 20, 10, 900), "SCC"),
        score_slide("s3", ConfusionCounts(60, 10, 30, 900), "SCLC"),
        score_slide("s4", ConfusionCounts(90, 5, 5, 900), "ADC"),
    ]
    aggs = report_aggregates(TeamReport("demo", scores))
    ok = ok and [a.key for a in aggs] == ["all", "ADC", "SCC", "SCLC"]
    ok = ok and len([a for a in aggs if a.key != "all"]) == 3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(7, "mean±std cells use 4 decimals and subtype aggregation has the three-row shape",
             ok, f"{elapsed:.2f}s")


def test_criterion_08_coteaching_guarantees():
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()

    worst_grad = 0.0
    for _ in range(20):
        img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        batch = PixelBatch("b", pixel_features(img), rng.random((8, 8)) < 0.5)
        w = rng.normal(0.0, 1.0, 6)
        worst_grad = max(worst_grad, gradient_check(w, batch))
    ok = worst_grad < 1e-5

    img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    batch = PixelBatch("b", pixel_features(img), rng.random((8, 8)) < 0.5)
    init = rng.normal(0.0, 0.01, 6)
    wf, wg = init.copy(), init.copy()
    cfg = CoteachConfig(eta=0.5, t_max=100, n_max=1, tau=0.3, ramp_epochs=10, seed=0)
    symmetric = True
    for epoch in range(100):
        wf, wg = coteach_step(wf, wg, batch, epoch, cfg)
        symmetric = symmetric and np.array_equal(wf, wg)
    ok = ok and symmetric

    w_plain = init.copy()
    w_pair = init.copy()
    plain = replace(cfg, tau=0.0)
    for epoch in range(100):
        w_pair, _ = coteach_step(w_pair, w_pair.copy(), batch, epoch, plain)
    X, y = batch.flat()
    w_oracle = logistic_gd_oracle(X, y, w_plain, 0.5, 100)
    plain_gap = float(np.max(np.abs(w_pair - w_oracle)))
    ok = ok and plain_gap <= 1e-12

    wins = 0
    for seed in range(10):
        r = noise_benchmark(seed)
        wins += r["coteach_accuracy"] >= r["single_accuracy"]
    ok = ok and wins >= 8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _verdict(8, "gradients, symmetry, plain-regression equivalence, and noisy-label wins",
             ok, f"grad err {worst_grad:.2e}, plain gap {plain_gap:.2e}, "
                 f"{wins}/10 wins, {elapsed:.2f}s")


def test_criterion_09_worker_count_does_not_change_bytes(tmp_path, forks):
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    pairs = [_mask_pair(rng, 256, 256) for _ in range(10)]
    gt = {f"s{i}": g for i, (g, _) in enumerate(pairs)}
    pred = {f"s{i}": p for i, (_, p) in enumerate(pairs)}
    ok = (evaluate_team("t", gt, pred, workers=1).scores
          == evaluate_team("t", gt, pred, workers=4).scores)
    pooled = [len(forks)]  # forks so far, after each 4-worker stage: every stage must fork

    cfg = SynthConfig(seed=9, slides=1, level0_size=1024, n_levels=1)
    pyr, _, truth, _ = generate_slide(cfg, 0)
    tcfg = TilingConfig(tile_size=128, tissue_filter=METHOD_GRAY200)
    m1, m4 = tmp_path / "t1.jsonl", tmp_path / "t4.jsonl"
    emit_manifest(extract_tiles(pyr, truth, tcfg, workers=1), m1)
    emit_manifest(extract_tiles(pyr, truth, tcfg, workers=4), m4)
    ok = ok and m1.read_bytes() == m4.read_bytes()
    pooled.append(len(forks))

    ccfg = SynthConfig(seed=19, slides=3, level0_size=256, n_levels=2,
                       lesion_radius=(10.0, 30.0))
    teams = [("a", CorruptionSpec(seed=1)), ("b", CorruptionSpec(flip_rate=0.05, seed=1))]
    generate_challenge(ccfg, teams, tmp_path / "c1", workers=1)
    generate_challenge(ccfg, teams, tmp_path / "c4", workers=4)
    ok = ok and _tree_digest(tmp_path / "c1") == _tree_digest(tmp_path / "c4")
    pooled.append(len(forks))
    ok = ok and 0 < pooled[0] < pooled[1] < pooled[2]
    elapsed = time.perf_counter() - t0
    _verdict(9, "confusion, tiling, and challenge outputs are byte-identical for 1 and 4 workers",
             ok, f"{elapsed:.2f}s, {len(forks)} processes forked")


def test_criterion_10_large_slide_tiling_throughput():
    cfg = SynthConfig(seed=10, slides=1, level0_size=16384, n_levels=1)
    pyr, _, truth, _ = generate_slide(cfg, 0)
    tcfg = TilingConfig(tile_size=512, tissue_filter=METHOD_GRAY200)

    t0 = time.perf_counter()
    extract_tiles(pyr, truth, tcfg, workers=1)
    single = time.perf_counter() - t0
    t0 = time.perf_counter()
    extract_tiles(pyr, truth, tcfg, workers=4)
    quad = time.perf_counter() - t0
    speedup = single / quad

    ok = single < 60.0 and speedup >= 2.5
    _verdict(10, "16384-pixel slide tiles in under 60s and speeds up 2.5x with 4 workers",
             ok, f"single {single:.1f}s, 4 workers {quad:.1f}s, speedup {speedup:.2f}x")
