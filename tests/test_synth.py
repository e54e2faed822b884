"""Synthetic challenge generation: analytic guarantees and corruption models."""
import hashlib
import os
import signal
import sys
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    blob_oracle,
    blob_polygon_oracle,
    box_filter_bool_reference,
    child_peak_rss,
    corrupt_prediction_reference,
    traced_peak,
)
from slidebench import (
    METHOD_GRAY200,
    METHOD_OTSU,
    BinaryMask,
    CorruptionSpec,
    FormatError,
    SynthConfig,
    ValidationError,
    confusion,
    corrupt_prediction,
    dice,
    generate_challenge,
    generate_slide,
    luma,
    rasterize,
    read_mask,
    read_subtypes,
    read_truth_table,
    refine_labels,
    tissue_mask,
    write_mask,
    write_pyramid,
)
from slidebench import masks
from slidebench.synth import _CHUNK_ROWS, _LESION_LO, _TISSUE_LO, _blob_chunks, _box_filter_bool
from slidebench.synth import _paint_table
from slidebench.synth import _prediction_blocks

_CFG = SynthConfig(seed=5, slides=1, level0_size=192, n_levels=2, lesion_radius=(8.0, 20.0))


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


# sizes that leave the last 512-row chunk partial
_PROPERTY_CASES = [(size, seed) for size in (700, 1100) for seed in (3, 4, 5)]


def test_generate_slide_deterministic():
    pyr1, ann1, truth1, sub1 = generate_slide(_CFG, 0)
    pyr2, ann2, truth2, sub2 = generate_slide(_CFG, 0)
    assert np.array_equal(pyr1.level(0).pixels, pyr2.level(0).pixels)
    assert np.array_equal(truth1.data, truth2.data)
    assert sub1 == sub2
    assert len(ann1.annotations) == len(ann2.annotations)
    for a, b in zip(ann1.annotations, ann2.annotations):
        assert np.array_equal(a.vertices, b.vertices)


def test_different_indices_differ():
    _, _, truth0, _ = generate_slide(_CFG, 0)
    _, _, truth1, _ = generate_slide(_CFG, 1)
    assert not np.array_equal(truth0.data, truth1.data)


def test_truth_matches_rasterized_annotations():
    pyr, ann, truth, _ = generate_slide(_CFG, 0)
    w, h = pyr.width, pyr.height
    raster = rasterize(ann, 0, w, h)
    assert np.array_equal(raster.data, truth.data)
    assert np.count_nonzero(truth.data) > 0


def test_truth_inside_gray200_tissue():
    pyr, _, truth, _ = generate_slide(_CFG, 0)
    tissue = tissue_mask(pyr, 0, METHOD_GRAY200)
    assert not np.any(truth.data & ~tissue.data)
    assert np.count_nonzero(tissue.data) > np.count_nonzero(truth.data)


def test_otsu_agrees_with_gray200_on_synthetic_slides():
    pyr, _, _, _ = generate_slide(_CFG, 0)
    otsu = tissue_mask(pyr, 0, METHOD_OTSU)
    fixed = tissue_mask(pyr, 0, METHOD_GRAY200)
    assert np.array_equal(otsu.data, fixed.data)


def test_dilated_annotations_strictly_cover_truth():
    cfg = replace(_CFG, annotation_dilation=4)
    pyr, ann, truth, _ = generate_slide(cfg, 0)
    w, h = pyr.width, pyr.height
    raster = rasterize(ann, 0, w, h)
    assert not np.any(truth.data & ~raster.data)
    assert np.count_nonzero(raster.data) > np.count_nonzero(truth.data)


def test_background_inclusion_refines_back_to_truth():
    cfg = replace(_CFG, label_background_inclusion=True)
    pyr, ann, truth, _ = generate_slide(cfg, 0)
    w, h = pyr.width, pyr.height
    raster = rasterize(ann, 0, w, h)
    tissue = tissue_mask(pyr, 0, METHOD_GRAY200)
    # lesions straddle the tissue boundary, so the raw annotations leak out
    assert np.count_nonzero(raster.data & ~tissue.data) > 0
    refined = refine_labels(raster, tissue)
    assert np.array_equal(refined.data, truth.data)


def test_corrupt_identity_copies_truth():
    _, _, truth, _ = generate_slide(_CFG, 0)
    pred = corrupt_prediction(truth, [CorruptionSpec()])[0]
    assert np.array_equal(pred.data, truth.data)
    assert pred.data is not truth.data
    assert pred.slide_id == truth.slide_id
    assert pred.level == truth.level


def test_flip_rate_one_complements():
    _, _, truth, _ = generate_slide(_CFG, 0)
    pred = corrupt_prediction(truth, [CorruptionSpec(flip_rate=1.0, seed=3)])[0]
    assert np.array_equal(pred.data, ~truth.data)


def test_flip_fraction_near_rate():
    blank = BinaryMask("s", 0, np.zeros((100, 100), dtype=bool))
    for seed in range(20):
        pred = corrupt_prediction(blank, [CorruptionSpec(flip_rate=0.1, seed=seed)])[0]
        flipped = int(np.count_nonzero(pred.data))
        assert 800 <= flipped <= 1200


def test_same_seed_flip_sets_are_nested():
    _, _, truth, _ = generate_slide(_CFG, 0)
    low = corrupt_prediction(truth, [CorruptionSpec(flip_rate=0.02, seed=9)])[0]
    high = corrupt_prediction(truth, [CorruptionSpec(flip_rate=0.05, seed=9)])[0]
    flips_low = low.data ^ truth.data
    flips_high = high.data ^ truth.data
    assert not np.any(flips_low & ~flips_high)
    assert np.count_nonzero(flips_high) > np.count_nonzero(flips_low)


def test_nested_flips_give_monotone_dice():
    _, _, truth, _ = generate_slide(_CFG, 0)
    scores = []
    for rate in (0.02, 0.05, 0.10):
        pred = corrupt_prediction(truth, [CorruptionSpec(flip_rate=rate, seed=9)])[0]
        scores.append(dice(confusion(truth, pred)))
    assert scores[0] > scores[1] > scores[2]


def test_erode_shrinks_and_dilate_grows():
    _, _, truth, _ = generate_slide(_CFG, 0)
    eroded = corrupt_prediction(truth, [CorruptionSpec(erode=1)])[0]
    dilated = corrupt_prediction(truth, [CorruptionSpec(dilate=1)])[0]
    assert not np.any(eroded.data & ~truth.data)
    assert np.count_nonzero(eroded.data) < np.count_nonzero(truth.data)
    assert not np.any(truth.data & ~dilated.data)
    assert np.count_nonzero(dilated.data) > np.count_nonzero(truth.data)


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (7, 5), (64, 33)])
@pytest.mark.parametrize("radius", [*range(7), 9, 64, 100])
@pytest.mark.parametrize("require_all", [True, False])
def test_box_filter_matches_reference(shape, radius, require_all):
    rng = np.random.default_rng([radius, *shape])
    for density in (0.3, 0.9, 1.0):
        data = rng.random(shape) < density
        got = _box_filter_bool(data, radius, require_all)
        assert got.dtype == bool
        assert np.array_equal(got, box_filter_bool_reference(data, radius, require_all))


@pytest.mark.parametrize("spec", [CorruptionSpec(erode=2), CorruptionSpec(dilate=2),
                                  CorruptionSpec(erode=1, dilate=3)])
def test_corrupt_prediction_box_filters_match_reference(spec):
    _, _, truth, _ = generate_slide(replace(_CFG, level0_size=300), 1)
    expected = box_filter_bool_reference(truth.data, spec.erode, require_all=True)
    expected = box_filter_bool_reference(expected, spec.dilate, require_all=False)
    assert np.array_equal(corrupt_prediction(truth, [spec])[0].data, expected)


def test_box_filter_radius_past_the_raster_returns_at_once():
    # looping one shift per pixel of reach takes seconds at this size
    truth = BinaryMask("slide_000", 0, np.random.default_rng(0).random((2048, 2048)) < 0.5)
    reach = max(truth.data.shape)

    def too_slow(signum, frame):
        raise TimeoutError("a box filter radius of 10**9 took over 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)  # fails, not hangs, if every shift is looped over
    try:
        huge = corrupt_prediction(truth, [CorruptionSpec(erode=10**9), CorruptionSpec(dilate=10**9)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wide = corrupt_prediction(truth, [CorruptionSpec(erode=reach), CorruptionSpec(dilate=reach)])
    assert all(np.array_equal(a.data, b.data) for a, b in zip(huge, wide))
    assert not huge[0].data.any() and huge[1].data.all()


# two seeds; rates 0, 0.01 and 1.0; box filters before flips; repeated specs
_BATCH_SPECS = [
    CorruptionSpec(),
    CorruptionSpec(flip_rate=0.01, seed=3),
    CorruptionSpec(flip_rate=1.0, seed=3),
    CorruptionSpec(flip_rate=0.01, seed=4),
    CorruptionSpec(erode=2, flip_rate=0.01, seed=3),
    CorruptionSpec(dilate=2, flip_rate=0.05, seed=4),
    CorruptionSpec(flip_rate=0.01, seed=3),
    CorruptionSpec(),
]


# 700 and 1100 leave the last block of 2**16 pixels partial (93 and 59 rows
# per block); at 37 pixels per block, 700 wide gives blocks of one row and
# 5 wide gives blocks of 7 rows, the last of 2
@pytest.mark.parametrize("shape, chunk_pixels", [
    ((700, 700), None), ((1100, 1100), None), ((700, 700), 37), ((23, 5), 37),
])
def test_batched_predictions_match_reference(monkeypatch, shape, chunk_pixels):
    if chunk_pixels is not None:
        monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", chunk_pixels)
    data = np.random.default_rng(list(shape)).random(shape) < 0.3
    truth = BinaryMask("slide_004", 0, data)
    preds = corrupt_prediction(truth, _BATCH_SPECS)
    assert len(preds) == len(_BATCH_SPECS)
    for spec, pred in zip(_BATCH_SPECS, preds):
        expected = corrupt_prediction_reference(truth, spec)
        assert np.array_equal(pred.data, expected.data), spec
        assert (pred.slide_id, pred.level) == ("slide_004", 0)
    # every prediction owns its raster, and the truth is untouched
    assert len({id(p.data) for p in preds} | {id(data)}) == len(preds) + 1
    assert np.array_equal(truth.data, np.random.default_rng(list(shape)).random(shape) < 0.3)


# radii past the raster, a halo of erode + dilate rows, and two seeds' fields
_BLOCK_SPECS = [
    CorruptionSpec(),
    CorruptionSpec(erode=2, dilate=3, flip_rate=0.1, seed=1),
    CorruptionSpec(erode=2, dilate=3, flip_rate=0.3, seed=1),
    CorruptionSpec(erode=1, flip_rate=0.2, seed=2),
    CorruptionSpec(dilate=7),
    CorruptionSpec(erode=10**9, flip_rate=0.05, seed=2),
    CorruptionSpec(dilate=100, flip_rate=0.05, seed=1),
]


@pytest.mark.parametrize("block_rows", [1, 37, 2**16])
def test_streamed_blocks_match_whole_raster_corruption(monkeypatch, block_rows):
    yy, xx = np.mgrid[:83, :61]
    noise = np.random.default_rng(block_rows).random((83, 61)) < 0.05
    data = ((yy - 40) ** 2 + (xx - 30) ** 2 < 27**2) ^ noise
    truth = BinaryMask("slide_007", 0, data.copy())
    monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", block_rows * 61)
    expected = [corrupt_prediction_reference(truth, spec).data for spec in _BLOCK_SPECS]
    assert expected[1].any() and not np.array_equal(expected[1], data)
    starts, assembled = [], [[] for _ in _BLOCK_SPECS]
    for rows, preds in _prediction_blocks(truth, _BLOCK_SPECS):
        starts.append(rows.start)
        for out, pred in zip(assembled, preds):
            assert pred.shape == (rows.stop - rows.start, 61)
            out.append(pred)
    assert starts == list(range(0, 83, min(block_rows, 83)))
    for spec, blocks, want in zip(_BLOCK_SPECS, assembled, expected):
        assert np.array_equal(np.concatenate(blocks), want), spec
    for spec, pred, want in zip(_BLOCK_SPECS, corrupt_prediction(truth, _BLOCK_SPECS), expected):
        assert np.array_equal(pred.data, want), spec
    assert np.array_equal(truth.data, data)  # the blocks never write to the truth


def test_streamed_challenge_files_equal_the_in_memory_ones(tmp_path):
    # 1100 rows at 11 levels: level 10 keeps level-0 rows 0 and 1024 only, so the chunk
    # of rows 512-1023 appends nothing to it, and level 9's rows 0, 512 and 1024 each
    # start a chunk
    cfg = SynthConfig(seed=3, slides=1, level0_size=1100, n_levels=11,
                      lesion_radius=(20.0, 60.0), label_background_inclusion=True)
    teams = [("a", CorruptionSpec(erode=3, dilate=1, flip_rate=0.02, seed=4)),
             ("b", CorruptionSpec(dilate=2, seed=4))]
    generate_challenge(cfg, teams, tmp_path / "streamed", workers=1)
    pyramid, _, truth, _ = generate_slide(cfg, 0)
    memory = tmp_path / "memory"
    write_pyramid(pyramid, memory / "slides" / "slide_000")
    (memory / "truth").mkdir()
    write_mask(truth, memory / "truth" / "slide_000.pgm")
    for (name, _), pred in zip(teams, corrupt_prediction(truth, [spec for _, spec in teams])):
        (memory / "predictions" / name).mkdir(parents=True)
        write_mask(pred, memory / "predictions" / name / "slide_000.pgm")
    in_memory = _tree_digest(memory)
    assert len(in_memory) == 11 + 1 + 2 + 2 * 2  # levels, manifest, truth, predictions
    streamed = _tree_digest(tmp_path / "streamed")
    assert {k: streamed[k] for k in in_memory} == in_memory


# loads every module a synth run loads, with the CLI's BLAS setting, and does no work
_SYNTH_IMPORTS = """
import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy.random
from slidebench import synth
synth.generate_challenge
"""


def test_synth_child_peaks_within_one_and_a_half_rgb_levels_above_its_imports(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    imports = child_peak_rss([sys.executable, "-c", _SYNTH_IMPORTS], env)
    peak = child_peak_rss([sys.executable, "-m", "slidebench", "synth", "--out", str(tmp_path),
                           "--slides", "1", "--size", "2048", "--levels", "2", "--workers", "1"],
                          env)
    rgb = 2048 * 2048 * 3
    assert peak - imports <= 1.5 * rgb, (peak - imports) / rgb


def test_flip_memory_is_below_one_and_a_half_masks():
    data = np.random.default_rng(0).random((2048, 2048)) < 0.3
    truth = BinaryMask("slide_000", 0, data)
    spec = CorruptionSpec(flip_rate=0.02, seed=13)
    (pred,), peak = traced_peak(lambda: corrupt_prediction(truth, [spec]))
    assert np.array_equal(pred.data, corrupt_prediction_reference(truth, spec).data)
    assert peak <= 1.5 * data.nbytes, peak / data.nbytes


def _blob_geometry(cfg: SynthConfig, index: int):
    """The blob parameters generate_slide draws first from its (seed, index) stream."""
    rng = np.random.default_rng([cfg.seed, index])
    weights = np.asarray(cfg.subtype_ratio, dtype=np.float64)
    rng.choice(3, p=weights / weights.sum())
    size = cfg.level0_size
    cx, cy = size / 2.0 + rng.uniform(-0.05, 0.05, 2) * size
    r0 = rng.uniform(0.28, 0.34) * size
    return cx, cy, r0, rng.uniform(-0.06, 0.06, 4), rng.uniform(0.0, 2.0 * np.pi, 4)


# (size, cx, cy, r0 / size) past one _CHUNK_ROWS chunk: centers on integer coordinates,
# where the blob's center is a pixel center and the row dy == 0 left of it lies on the
# oracles' arctan2 branch cut, centers on a chunk's first row or the row above it, and
# centers off the raster
_BLOB_CASES = {
    "600-integer": (600, 300.0, 301.0, 0.45),
    "1100-integer": (1100, 517.0, 611.0, 0.31),
    "600-integer-even": (600, 288.0, 320.0, 0.4),
    "1100-chunk-corner": (1100, 543.0, 511.0, 0.33),
    "1100-chunk-start": (1100, 512.0, 512.0, 0.6),
    "1100-off-integer": (1100, -131.0, 640.0, 0.55),
    "600-off": (600, 410.3, 690.8, 0.5),
}


@pytest.mark.parametrize("seed, case", [(s, None) for s in range(12)]
                         + [(12 + i, case) for i, case in enumerate(_BLOB_CASES.values())],
                         ids=[*map(str, range(12)), *_BLOB_CASES])
def test_blob_mask_matches_oracle(seed, case):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(64, 400))
    cx, cy = rng.uniform(-0.2, 1.2, 2) * size  # centers off the raster too
    r0 = rng.uniform(0.1, 0.6) * size
    if case is not None:
        size, cx, cy, r0 = case[0], case[1], case[2], case[3] * case[0]
    amps = rng.uniform(-0.06, 0.06, 4)
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    assert np.array_equal(np.concatenate(list(_blob_chunks(size, cx, cy, r0, amps, phases))),
                          blob_oracle(size, cx, cy, r0, amps, phases))


def test_blob_with_a_deep_dent_near_its_center_matches_oracle():
    # The blob dips to a fifth of r0, 30 pixels from its center, at -163 degrees: far
    # from convex there, while every pixel near the center is still inside.
    theta0 = np.deg2rad(-163.0)
    amps, phases = np.full(4, -0.2), -np.arange(2, 6) * theta0
    size, cx, cy, r0 = 600, 319.0, 351.0, 150.0
    assert np.array_equal(np.concatenate(list(_blob_chunks(size, cx, cy, r0, amps, phases))),
                          blob_oracle(size, cx, cy, r0, amps, phases))


@pytest.mark.parametrize("seed, case", [(s, None) for s in range(100, 112)]
                         + [(12 + i, case) for i, case in enumerate(_BLOB_CASES.values())],
                         ids=[*map(str, range(100, 112)), *_BLOB_CASES])
def test_blob_mask_matches_polygon_oracle(seed, case):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(64, 1600))  # up to four chunks
    cx, cy = rng.uniform(-0.2, 1.2, 2) * size  # centers off the raster too
    r0 = rng.uniform(0.1, 0.6) * size
    if case is not None:
        size, cx, cy, r0 = case[0], case[1], case[2], case[3] * case[0]
    amps = rng.uniform(-0.06, 0.06, 4)
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    assert np.array_equal(np.concatenate(list(_blob_chunks(size, cx, cy, r0, amps, phases))),
                          blob_polygon_oracle(size, cx, cy, r0, amps, phases))


def test_blob_memory_stays_at_chunk_sized_masks():
    size = 8192
    chunk = _CHUNK_ROWS * size  # bytes of one chunk's mask: 4 MiB
    cx, cy, r0, amps, phases = _blob_geometry(replace(_CFG, level0_size=size), 0)
    _, peak = traced_peak(lambda: deque(_blob_chunks(size, cx, cy, r0, amps, phases), maxlen=0))
    # The chunk just yielded stays alive while the next is filled, and the scanline
    # fill adds its per-edge temporaries of the 2**14-gon: 2.13 masks measured. A
    # whole-slide mask would be 16.
    assert peak <= 2.5 * chunk, peak / chunk


@pytest.mark.parametrize("jitter, bg_jitter", [(-8, -2), (0, 0), (8, 2)])
def test_paint_table_covers_each_class_range(jitter, bg_jitter):
    table = _paint_table(jitter, bg_jitter).reshape(3, 4, 256)
    for c in range(3):
        ranges = ((230 + bg_jitter, 21), (_TISSUE_LO[c] + jitter, 46), (_LESION_LO[c] + jitter, 51))
        for k, (lo, width) in enumerate(ranges):
            assert set(table[k, c].tolist()) == set(range(lo, lo + width))


@pytest.mark.parametrize("size, seed", _PROPERTY_CASES)
def test_slide_luma_separates_blob_from_background(size, seed):
    cfg = replace(_CFG, seed=seed, level0_size=size)
    pyr, _, truth, _ = generate_slide(cfg, seed)
    blob = blob_oracle(size, *_blob_geometry(cfg, seed))
    pixels = pyr.level(0).pixels
    gray = luma(pixels)
    assert np.all(gray[blob] <= 200) and np.all(gray[~blob] > 200)
    for c in range(3):  # the noise reaches every value of each range
        assert len(np.unique(pixels[~blob, c])) == 21
        assert len(np.unique(pixels[blob & ~truth.data, c])) == 46
    assert np.count_nonzero(truth.data & ~blob) == 0
    otsu = tissue_mask(pyr, 0, METHOD_OTSU)
    assert np.array_equal(otsu.data, tissue_mask(pyr, 0, METHOD_GRAY200).data)
    assert np.array_equal(otsu.data, blob)


@pytest.mark.parametrize("size, seed", _PROPERTY_CASES)
def test_lesion_pixels_stay_in_lesion_ranges(size, seed):
    pyr, _, truth, _ = generate_slide(replace(_CFG, seed=seed, level0_size=size), 0)
    lesion = pyr.level(0).pixels[truth.data].astype(int)
    assert len(lesion) > 0
    for c, lo in enumerate(_LESION_LO):
        # one jitter in [-8, 8] shifts the whole 51-value range of a slide
        assert lo - 8 <= lesion[:, c].min() and lesion[:, c].max() <= lo + 8 + 50
        assert lesion[:, c].max() - lesion[:, c].min() <= 50


@pytest.mark.parametrize("size, seed", _PROPERTY_CASES)
def test_same_seed_and_index_give_identical_bytes(size, seed):
    cfg = replace(_CFG, seed=seed, level0_size=size)
    first, again = generate_slide(cfg, 2)[0], generate_slide(cfg, 2)[0]
    for level in (0, 1):
        assert first.level(level).pixels.tobytes() == again.level(level).pixels.tobytes()


@pytest.mark.parametrize("size", [700, 1100])
def test_truth_table_recount_at_partial_chunk_sizes(tmp_path, size):
    cfg = SynthConfig(seed=size, slides=2, level0_size=size, n_levels=1)
    teams = [("exact", CorruptionSpec(seed=1)), ("flip", CorruptionSpec(flip_rate=0.04, seed=1)),
             ("erode", CorruptionSpec(erode=2)), ("dilate", CorruptionSpec(dilate=2))]
    generate_challenge(cfg, teams, tmp_path, workers=1)
    assert len(read_truth_table(tmp_path / "truth_table.csv")) == 8
    _assert_truth_table_recounts(tmp_path)


def test_subtype_ratio_degenerate_weights():
    cfg = replace(_CFG, subtype_ratio=(1.0, 0.0, 0.0))
    for index in range(4):
        _, _, _, subtype = generate_slide(cfg, index)
        assert subtype == "SCC"


def test_challenge_layout(challenge_dir):
    for sub in ("slides", "annotations", "truth", "predictions"):
        assert (challenge_dir / sub).is_dir()
    slides = sorted(p.name for p in (challenge_dir / "slides").iterdir())
    assert len(slides) == 5
    for sid in slides:
        assert (challenge_dir / "annotations" / f"{sid}.xml").is_file()
        assert (challenge_dir / "truth" / f"{sid}.pgm").is_file()
        for team in ("exact", "flip2", "flip5"):
            assert (challenge_dir / "predictions" / team / f"{sid}.pgm").is_file()
    table = read_truth_table(challenge_dir / "truth_table.csv")
    assert len(table) == 15
    subtypes = read_subtypes(challenge_dir / "subtypes.csv")
    assert sorted(subtypes) == slides
    assert set(subtypes.values()) <= {"SCC", "SCLC", "ADC"}


def _assert_truth_table_recounts(root: Path) -> None:
    for row in read_truth_table(root / "truth_table.csv"):
        truth = read_mask(root / "truth" / f"{row['slide_id']}.pgm")
        pred = read_mask(root / "predictions" / row["team"] / f"{row['slide_id']}.pgm")
        c = confusion(truth, pred)
        assert (c.tp, c.fp, c.fn, c.tn) == (row["tp"], row["fp"], row["fn"], row["tn"])


def test_truth_table_matches_mask_recount(challenge_dir):
    _assert_truth_table_recounts(challenge_dir)


def test_identity_team_is_perfect_in_truth_table(challenge_dir):
    for row in read_truth_table(challenge_dir / "truth_table.csv"):
        if row["team"] == "exact":
            assert row["fp"] == 0 and row["fn"] == 0
            assert row["tp"] > 0


def test_challenge_identical_across_worker_counts(tmp_path, forks):
    cfg = SynthConfig(seed=2, slides=2, level0_size=128, n_levels=2, lesion_radius=(8.0, 16.0))
    teams = [("a", CorruptionSpec(seed=2)), ("b", CorruptionSpec(flip_rate=0.03, seed=2))]
    generate_challenge(cfg, teams, tmp_path / "serial", workers=1)
    generate_challenge(cfg, teams, tmp_path / "forked", workers=2)
    assert forks
    assert _tree_digest(tmp_path / "serial") == _tree_digest(tmp_path / "forked")


# the teams of the benchmark's scoring workload
_SCORING_TEAMS = (("exact", {}), ("flip1", {"flip_rate": 0.01}), ("flip2", {"flip_rate": 0.02}),
                  ("flip3", {"flip_rate": 0.03}), ("flip5", {"flip_rate": 0.05}),
                  ("flip8", {"flip_rate": 0.08}), ("erode2", {"erode": 2}),
                  ("dilate2", {"dilate": 2}))
# the synthesized bytes; a change here must be deliberate and declared
_PINNED_TREE_SHA256 = "2434008b8c9a187fdd7271c2dd38b933e6ab596538e1a268b3f1318246fee04e"


@pytest.mark.parametrize("workers", [1, 2])
def test_challenge_tree_digest_is_pinned(tmp_path, workers):
    cfg = SynthConfig(seed=13, slides=2, level0_size=256, n_levels=1, lesion_radius=(8.0, 20.0))
    teams = [(name, CorruptionSpec(seed=13, **kw)) for name, kw in _SCORING_TEAMS]
    generate_challenge(cfg, teams, tmp_path, workers=workers)
    files = _tree_digest(tmp_path)
    assert len(files) == 44
    digest = hashlib.sha256("".join(f"{k}\0{v}\n" for k, v in files.items()).encode())
    assert digest.hexdigest() == _PINNED_TREE_SHA256


# 1100 rows leave a partial 512-row chunk and odd rows at every level; the
# teams halo their blocks by erode + dilate rows and flip one seed's field
_PINNED_UNEVEN_TREE_SHA256 = "b12004f0b6e96a83f81f882775307f4254936493e3a83853f6eed0f99526ddc0"


@pytest.mark.parametrize("workers", [1, 2])
def test_uneven_challenge_tree_digest_is_pinned(tmp_path, workers):
    cfg = SynthConfig(seed=7, slides=1, level0_size=1100, n_levels=3, lesion_radius=(20.0, 60.0))
    teams = [("exact", CorruptionSpec(seed=7)),
             ("shape", CorruptionSpec(erode=2, dilate=3, seed=7)),
             ("flip1", CorruptionSpec(erode=2, dilate=3, flip_rate=0.01, seed=7)),
             ("flip4", CorruptionSpec(erode=2, dilate=3, flip_rate=0.04, seed=7))]
    generate_challenge(cfg, teams, tmp_path, workers=workers)
    files = _tree_digest(tmp_path)
    assert len(files) == 17
    digest = hashlib.sha256("".join(f"{k}\0{v}\n" for k, v in files.items()).encode())
    assert digest.hexdigest() == _PINNED_UNEVEN_TREE_SHA256


def test_duplicate_team_names_rejected(tmp_path):
    cfg = SynthConfig(seed=2, slides=1, level0_size=128, n_levels=1, lesion_radius=(8.0, 16.0))
    teams = [("a", CorruptionSpec()), ("a", CorruptionSpec(flip_rate=0.1))]
    with pytest.raises(ValidationError):
        generate_challenge(cfg, teams, tmp_path)


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b"])
def test_team_names_that_are_not_directory_names_rejected(tmp_path, name):
    cfg = SynthConfig(seed=2, slides=1, level0_size=128, n_levels=1, lesion_radius=(8.0, 16.0))
    with pytest.raises(ValidationError, match="plain directory names"):
        generate_challenge(cfg, [("ok", CorruptionSpec()), (name, CorruptionSpec())],
                           tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_rejected_worker_count_writes_nothing(tmp_path):
    cfg = SynthConfig(seed=2, slides=1, level0_size=64, n_levels=1, lesion_radius=(3.0, 8.0))
    with pytest.raises(ValidationError, match="workers must be >= 1, got 0"):
        generate_challenge(cfg, [("exact", CorruptionSpec())], tmp_path / "out", workers=0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"slides": 0},
        {"level0_size": 32},
        {"n_levels": 0},
        {"n_lesions": (3, 1)},
        {"lesion_radius": (0.0, 5.0)},
        {"lesion_radius": (20.0, 500.0)},
        {"subtype_ratio": (0.0, 0.0, 0.0)},
        {"annotation_dilation": -1},
    ],
)
def test_synth_config_validation(kwargs):
    with pytest.raises(ValidationError):
        SynthConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [{"erode": -1}, {"dilate": -2}, {"flip_rate": 1.5}])
def test_corruption_spec_validation(kwargs):
    with pytest.raises(ValidationError):
        CorruptionSpec(**kwargs)


_TRUTH_HEADER = b"slide_id,team,tp,fp,fn,tn\n"


@pytest.mark.parametrize("data, message", [
    (b"slide_id,team,tp,fp,fn\ns,t,1,2,3\n", "missing column"),
    (_TRUTH_HEADER + b"s,t,1,2,three,4\n", "row 1 field 'fn' is 'three', expected an integer"),
    (_TRUTH_HEADER + b"s,t,1,2\n", "row 1 has fewer than 6 fields"),
    (_TRUTH_HEADER + b"s,\xff\xfe,1,2,3,4\n", "cannot read CSV"),
])
def test_read_truth_table_rejects_malformed_csv(tmp_path, data, message):
    path = tmp_path / "truth_table.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        read_truth_table(path)


@pytest.mark.parametrize("data, message", [
    (b"slide_id,kind\ns,SCC\n", "missing column"),
    (b"slide_id,subtype\ns,\xff\xfe\n", "cannot read CSV"),
])
def test_read_subtypes_rejects_malformed_csv(tmp_path, data, message):
    path = tmp_path / "subtypes.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        read_subtypes(path)
