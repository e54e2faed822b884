import os
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    extract_tiles_reference,
    grid_tiles,
    luma_reference,
    tile_counts,
    tile_label_threeclass_oracle,
    tile_label_threshold75_oracle,
    tie_slide,
    traced_peak,
)
from slidebench import (
    BinaryMask,
    TileRecord,
    TilingConfig,
    build_pyramid,
    emit_manifest,
    extract_tiles,
    read_manifest,
    rebalance_mix,
)
from slidebench import masks, tiling
from slidebench.errors import DegenerateHistogramError, FormatError, GeometryError, ValidationError
from slidebench.masks import METHOD_GRAY200, METHOD_OTSU
from slidebench.tiling import (
    LABEL_MIX,
    LABEL_NEGATIVE,
    LABEL_NORMAL,
    LABEL_POSITIVE,
    LABEL_TUMOR,
    LABEL_UNUSED,
    RULE_BIG_PATCH_NINE,
    RULE_THREECLASS,
    label_threeclass,
    label_threshold75,
)


def _pyramid(width, height, fill=255):
    base = np.full((height, width, 3), fill, dtype=np.uint8)
    return build_pyramid("s", base, 1)


def _gt(data):
    return BinaryMask("s", 0, np.asarray(data, dtype=bool))


def test_grid_tiles_row_major_and_partial_dropped():
    p = _pyramid(100, 70)
    tiles = grid_tiles(p, TilingConfig(tile_size=32))
    assert tiles == [(0, 0), (32, 0), (64, 0), (0, 32), (32, 32), (64, 32)]


def test_grid_tiles_with_stride_overlap():
    p = _pyramid(64, 40)
    tiles = grid_tiles(p, TilingConfig(tile_size=32, stride=16))
    assert tiles == [(0, 0), (16, 0), (32, 0)]


def test_grid_tiles_oversized_tile_raises():
    p = _pyramid(30, 30)
    with pytest.raises(GeometryError):
        grid_tiles(p, TilingConfig(tile_size=32))


def test_label_threshold75_boundaries():
    # exactly 3/4 is not a strict majority over the threshold
    assert label_threshold75(48, 64) == LABEL_UNUSED
    assert label_threshold75(49, 64) == LABEL_POSITIVE
    assert label_threshold75(0, 64) == LABEL_NEGATIVE
    assert label_threshold75(1, 64) == LABEL_UNUSED
    assert label_threshold75(64, 64) == LABEL_POSITIVE


def test_label_threeclass_boundaries():
    assert label_threeclass(64, 64) == LABEL_TUMOR
    assert label_threeclass(0, 64) == LABEL_NORMAL
    assert label_threeclass(63, 64) == LABEL_MIX
    assert label_threeclass(1, 64) == LABEL_MIX


def test_labels_match_oracle_on_random_tiles(rng):
    for _ in range(50):
        tile = rng.random((8, 8)) < rng.random()
        tumor = int(tile.sum())
        assert label_threshold75(tumor, 64) == tile_label_threshold75_oracle(tile)
        assert label_threeclass(tumor, 64) == tile_label_threeclass_oracle(tile)


def test_tile_counts_window(rng):
    data = rng.random((20, 20)) < 0.4
    gt = _gt(data)
    tumor, total = tile_counts(gt, 3, 5, 7)
    assert total == 49
    assert tumor == int(data[5:12, 3:10].sum())


def test_tile_counts_out_of_range(rng):
    gt = _gt(np.zeros((10, 10)))
    with pytest.raises(GeometryError):
        tile_counts(gt, 5, 5, 6)


def _rec(i, label, tumor=0, total=16):
    return TileRecord("s", 0, i * 4, 0, 4, tumor, total, label)


def test_rebalance_mix_folds_at_half():
    records = [
        _rec(0, LABEL_MIX, tumor=8),   # exactly half -> Tumor
        _rec(1, LABEL_MIX, tumor=7),   # below half -> Normal
        _rec(2, LABEL_TUMOR, tumor=16),
        _rec(3, LABEL_NORMAL, tumor=0),
    ]
    out = rebalance_mix(records, seed=0)
    tumor = [r for r in out if r.label == LABEL_TUMOR]
    normal = [r for r in out if r.label == LABEL_NORMAL]
    assert len(tumor) == len(normal) == 2


def test_rebalance_mix_subsamples_majority_deterministically():
    records = [_rec(i, LABEL_TUMOR, tumor=16) for i in range(10)]
    records += [_rec(10 + i, LABEL_NORMAL) for i in range(3)]
    out1 = rebalance_mix(records, seed=42)
    out2 = rebalance_mix(records, seed=42)
    assert [r.x for r in out1] == [r.x for r in out2]
    assert sum(r.label == LABEL_TUMOR for r in out1) == 3
    assert sum(r.label == LABEL_NORMAL for r in out1) == 3
    # survivors keep their original relative order
    xs = [r.x for r in out1]
    assert xs == sorted(xs, key=xs.index)
    different = rebalance_mix(records, seed=43)
    assert len(different) == len(out1)


def test_rebalance_keeps_unused_records():
    records = [_rec(0, LABEL_UNUSED, tumor=4), _rec(1, LABEL_TUMOR, tumor=16)]
    out = rebalance_mix(records, seed=0)
    assert [r.label for r in out] == [LABEL_UNUSED]


def test_extract_tiles_matches_per_tile_counting(rng):
    data = rng.random((96, 96)) < 0.35
    p = _pyramid(96, 96)
    gt = _gt(data)
    records = extract_tiles(p, gt, TilingConfig(tile_size=16))
    assert len(records) == 36
    for rec in records:
        tumor, total = tile_counts(gt, rec.x, rec.y, rec.size)
        assert (rec.tumor_pixels, rec.total_pixels) == (tumor, total)
        assert rec.label == label_threshold75(tumor, total)


def test_extract_tiles_three_class_rule(rng):
    data = rng.random((32, 32)) < 0.5
    records = extract_tiles(_pyramid(32, 32), _gt(data), TilingConfig(tile_size=8, rule=RULE_THREECLASS))
    for rec in records:
        assert rec.label == label_threeclass(rec.tumor_pixels, rec.total_pixels)


def test_extract_tiles_big_patch_rule(rng):
    data = rng.random((96, 96)) < 0.5
    p = _pyramid(96, 96)
    records = extract_tiles(p, _gt(data), TilingConfig(tile_size=96, rule=RULE_BIG_PATCH_NINE))
    assert len(records) == 9
    assert {r.size for r in records} == {32}
    for rec in records:
        tumor, total = tile_counts(_gt(data), rec.x, rec.y, rec.size)
        assert rec.tumor_pixels == tumor
        assert rec.label == label_threeclass(tumor, total)


TISSUE_GRIDS = {
    "stride_below_size": dict(tile_size=8, stride=5),
    "stride_equal_size": dict(tile_size=8),
    "stride_above_size": dict(tile_size=8, stride=13),
    "big_patch_nine": dict(tile_size=24, rule=RULE_BIG_PATCH_NINE),
    # overlapping big patches, where sub-tiles of neighbouring patches coincide
    "big_patch_nine_stride_10": dict(tile_size=24, stride=10, rule=RULE_BIG_PATCH_NINE),
    "big_patch_nine_stride_16": dict(tile_size=24, stride=16, rule=RULE_BIG_PATCH_NINE),
}


@pytest.mark.parametrize("method", [METHOD_GRAY200, METHOD_OTSU])
@pytest.mark.parametrize("grid", TISSUE_GRIDS.values(), ids=TISSUE_GRIDS.keys())
def test_extract_tiles_keeps_exactly_the_tiles_holding_tissue(rng, four_cpus, forks, method, grid):
    base, t = tie_slide(method)
    p = build_pyramid("s", base, 1)
    gt = _gt(rng.random(base.shape[:2]) < 0.3)
    cfg = TilingConfig(**grid, tissue_filter=method)
    got = extract_tiles(p, gt, cfg, workers=1)
    assert not forks
    assert got == extract_tiles_reference(p, gt, cfg)
    # at 2 and 4 workers forked workers count tissue and tumor in every other band, or in
    # three of every four; the kept tiles stay the same
    assert extract_tiles(p, gt, cfg, workers=2) == got
    assert extract_tiles(p, gt, cfg, workers=4) == got
    assert forks

    tissue = luma_reference(base) <= t
    s = base.astype(np.int64) @ np.array([299, 587, 114])
    tie = s == 1000 * t + 500
    every = extract_tiles(p, gt, replace(cfg, tissue_filter=None))
    assert all(extract_tiles(p, gt, replace(cfg, tissue_filter=None), workers=w) == every
               for w in (2, 4))
    windows = [np.s_[r.y : r.y + r.size, r.x : r.x + r.size] for r in every]
    assert got == [r for r, win in zip(every, windows) if tissue[win].any()]
    # every tie rounds up, so no tie is tissue, and a tile holding ties but no tissue is dropped
    assert tie.any() and not (tie & tissue).any()
    assert any(tie[win].any() and not tissue[win].any() for win in windows)


def _log_calls(monkeypatch, log, module, name):
    """Make ``module.name`` append its name and its process's pid to ``log`` on each call."""
    real = getattr(module, name)

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{name}:{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)


@pytest.mark.parametrize("method", [METHOD_GRAY200, METHOD_OTSU])
def test_extract_tiles_counts_tissue_in_forked_workers(tmp_path, monkeypatch, rng, four_cpus,
                                                       method):
    # keeps the tissue test, and the Otsu filter's histogram, from moving back into the caller
    log = tmp_path / "calls"
    _log_calls(monkeypatch, log, tiling, "_dark")
    _log_calls(monkeypatch, log, masks, "_luma_histogram")
    base, _ = tie_slide(method)
    p = build_pyramid("s", base, 1)
    gt = _gt(rng.random(base.shape[:2]) < 0.3)
    cfg = TilingConfig(tile_size=8, tissue_filter=method)
    names = {"_dark", "_luma_histogram"} if method == METHOD_OTSU else {"_dark"}
    got = extract_tiles(p, gt, cfg, workers=1)
    assert set(log.read_text().split()) == {f"{name}:{os.getpid()}" for name in names}
    log.unlink()
    assert extract_tiles(p, gt, cfg, workers=2) == got
    calls = {tuple(line.split(":")) for line in log.read_text().split()}
    assert {name for name, pid in calls if pid == str(os.getpid())} == names
    assert {name for name, pid in calls if pid != str(os.getpid())} == names


@pytest.mark.parametrize("method", [METHOD_GRAY200, METHOD_OTSU])
def test_extract_tiles_tissue_blocking_is_invisible(monkeypatch, rng, method):
    # 37 pixels over rows of 104 is one row per block, so tile edges fall at every block edge
    monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", 37)
    base, _ = tie_slide(method)
    p = build_pyramid("s", base, 1)
    gt = _gt(rng.random(base.shape[:2]) < 0.3)
    for grid in TISSUE_GRIDS.values():
        cfg = TilingConfig(**grid, tissue_filter=method)
        assert extract_tiles(p, gt, cfg) == extract_tiles_reference(p, gt, cfg)


def test_extract_tiles_otsu_on_uniform_slide_raises(rng):
    gt = _gt(rng.random((32, 32)) < 0.5)
    with pytest.raises(DegenerateHistogramError):
        cfg = TilingConfig(tile_size=8, tissue_filter=METHOD_OTSU)
        extract_tiles(_pyramid(32, 32, fill=90), gt, cfg)


@pytest.mark.parametrize("method", [METHOD_GRAY200, METHOD_OTSU])
def test_extract_tiles_tissue_filter_memory_is_far_below_the_raster(rng, method):
    base = rng.integers(0, 256, (2048, 2048, 3), dtype=np.uint8)
    p = build_pyramid("s", base, 1)
    gt = _gt(rng.random((2048, 2048)) < 0.3)
    cfg = TilingConfig(tile_size=256, tissue_filter=method)
    records, peak = traced_peak(lambda: extract_tiles(p, gt, cfg, workers=1))
    assert len(records) == 64
    assert peak <= 0.1 * base.nbytes, peak / base.nbytes


def test_extract_tiles_worker_count_invariant(rng, forks):
    data = rng.random((80, 80)) < 0.4
    p = _pyramid(80, 80)
    gt = _gt(data)
    cfg = TilingConfig(tile_size=16, stride=8)
    assert extract_tiles(p, gt, cfg, workers=1) == extract_tiles(p, gt, cfg, workers=4)
    assert forks


def test_extract_tiles_geometry_mismatch(rng):
    p = _pyramid(32, 32)
    with pytest.raises(GeometryError):
        extract_tiles(p, _gt(np.zeros((16, 16))), TilingConfig(tile_size=8))


@pytest.mark.parametrize("grid", TISSUE_GRIDS.values(), ids=TISSUE_GRIDS.keys())
def test_extract_tiles_labels_at_the_truth_level(rng, grid):
    base, _ = tie_slide(METHOD_GRAY200)
    p = build_pyramid("s", base, 2)
    lvl = p.level(1)
    gt = BinaryMask("s", 1, rng.random((lvl.height, lvl.width)) < 0.3)
    cfg = TilingConfig(**grid, tissue_filter=METHOD_GRAY200)
    got = extract_tiles(p, gt, cfg)
    assert got == extract_tiles_reference(p, gt, cfg)
    assert got and {r.level for r in got} == {1}
    with pytest.raises(ValidationError, match="has no level 2"):
        extract_tiles(p, BinaryMask("s", 2, np.zeros((24, 26), dtype=bool)), cfg)


def test_manifest_round_trip(tmp_path, rng):
    data = rng.random((64, 64)) < 0.3
    records = extract_tiles(_pyramid(64, 64), _gt(data), TilingConfig(tile_size=16))
    path = tmp_path / "tiles.jsonl"
    emit_manifest(records, path)
    assert read_manifest(path) == sorted(records, key=lambda r: (r.slide_id, r.y, r.x))


def test_manifest_sorted_regardless_of_input_order(tmp_path):
    records = [
        TileRecord("b", 0, 0, 0, 4, 0, 16, LABEL_NEGATIVE),
        TileRecord("a", 0, 4, 0, 4, 0, 16, LABEL_NEGATIVE),
        TileRecord("a", 0, 0, 0, 4, 0, 16, LABEL_NEGATIVE),
    ]
    path = tmp_path / "tiles.jsonl"
    emit_manifest(records, path)
    back = read_manifest(path)
    assert [(r.slide_id, r.y, r.x) for r in back] == [("a", 0, 0), ("a", 0, 4), ("b", 0, 0)]


def test_manifest_empty_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    emit_manifest([], path)
    assert path.read_text() == ""
    assert read_manifest(path) == []


def test_manifest_line_schema(tmp_path):
    records = [TileRecord("s", 0, 0, 0, 4, 16, 16, LABEL_POSITIVE)]
    path = tmp_path / "one.jsonl"
    emit_manifest(records, path)
    line = path.read_text().strip()
    assert line == (
        '{"slide_id": "s", "level": 0, "x": 0, "y": 0, "size": 4, '
        '"tumor_pixels": 16, "total_pixels": 16, "label": "Positive"}'
    )


def test_read_manifest_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"slide_id": "s", "level": 0}\n')
    with pytest.raises(FormatError):
        read_manifest(path)


def test_read_manifest_rejects_string_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"slide_id": "s", "level": 0, "x": "0", "y": 0, "size": 4, '
                    '"tumor_pixels": 0, "total_pixels": 16, "label": "Negative"}\n')
    with pytest.raises(FormatError, match=r"bad.jsonl:1: tile record field 'x' is '0', expected int"):
        read_manifest(path)


def test_read_manifest_names_the_line_of_a_record_that_breaks_an_invariant(tmp_path):
    path = tmp_path / "bad.jsonl"
    emit_manifest([TileRecord("s", 0, 0, 0, 4, 0, 16, LABEL_NEGATIVE)], path)
    good = path.read_text()
    path.write_text(good + good.replace('"total_pixels": 16', '"total_pixels": 15'))
    with pytest.raises(FormatError) as info:
        read_manifest(path)
    assert str(info.value) == f"{path}:2: tile at (0,0): total_pixels 15 != size^2"


@pytest.mark.parametrize("data, message", [
    (b'{"slide_id": "s",\n', "malformed tile record"),
    (b"[1]\n", "tile record is not a JSON object"),
    (b'{"slide_id": "\xff\xfe"}\n', "cannot read tile manifest"),
])
def test_read_manifest_rejects_malformed_jsonl(tmp_path, data, message):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message):
        read_manifest(path)

