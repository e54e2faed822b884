import json
import os
import sys
import warnings

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from oracles import (
    luma_reference,
    otsu_oracle,
    raster_oracle,
    run_child,
    tie_slide,
    tissue_mask_reference,
    traced_peak,
)
from slidebench import (
    Annotation,
    AnnotationSet,
    BinaryMask,
    ProbabilityMap,
    build_pyramid,
    luma,
    masks,
    otsu_threshold,
    rasterize,
    read_mask,
    refine_labels,
    tissue_mask,
    write_mask,
    write_probability_map,
)
from slidebench.errors import (
    DegenerateHistogramError,
    DegeneratePolygonWarning,
    FormatError,
    GeometryError,
    ValidationError,
)
from slidebench.masks import (
    GRAY200_THRESHOLD,
    METHOD_GRAY200,
    METHOD_OTSU,
)


def _poly(name, verts):
    return Annotation(name, "tumor", np.asarray(verts, dtype=np.float64))


def _aset(*polys):
    return AnnotationSet("s", list(polys))


def test_luma_known_values():
    rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255], [128, 128, 128]]], dtype=np.uint8)
    g = luma(rgb)
    assert g.tolist() == [[76, 150, 29, 128]]


def test_luma_of_gray_is_identity():
    gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
    rgb = np.stack([gray] * 3, axis=-1)
    assert np.array_equal(luma(rgb), gray)


def _every_colour():
    """All 2**24 RGB colours as a 4096x4096 raster."""
    levels = np.arange(256, dtype=np.uint8)
    rgb = np.empty((256, 256, 256, 3), dtype=np.uint8)
    rgb[..., 0] = levels[:, None, None]
    rgb[..., 1] = levels[None, :, None]
    rgb[..., 2] = levels[None, None, :]
    return rgb.reshape(4096, 4096, 3)


def test_luma_matches_reference_on_every_colour():
    rgb = _every_colour()
    assert np.array_equal(luma(rgb), luma_reference(rgb))


def test_tissue_test_is_exact_on_every_colour():
    rgb = _every_colour()
    g = luma(rgb)
    for t in (0, 127, 200, 254, 255):
        dark = np.empty(g.shape, dtype=bool)
        for rows in masks._row_blocks(*g.shape):
            dark[rows] = masks._dark(rgb[rows], t)
        assert np.array_equal(dark, g <= t), t


# prints one sha256 of every colour's luma and tissue test at t = 200, and whether numpy may
# dispatch to AVX-512 (X86_V4)
_EVERY_COLOUR_DIGEST = """
import hashlib
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from slidebench import masks
levels = np.arange(256, dtype=np.uint8)
rgb = np.stack(np.meshgrid(levels, levels, levels, indexing="ij"), -1).reshape(4096, 4096, 3)
dark = np.empty((4096, 4096), dtype=bool)
for rows in masks._row_blocks(4096, 4096):
    dark[rows] = masks._dark(rgb[rows], 200)
digest = hashlib.sha256(masks.luma(rgb).tobytes() + np.packbits(dark).tobytes())
print(digest.hexdigest(), __cpu_features__["X86_V4"])
"""


def _every_colour_digest(**env) -> tuple[str, bool, str]:
    """The digest above from a child with ``env`` added, its X86_V4 flag, and its stderr:
    with ``OPENBLAS_VERBOSE=2``, OpenBLAS names there the kernel it picked."""
    proc = run_child([sys.executable, "-c", _EVERY_COLOUR_DIGEST],
                     {**os.environ, "OPENBLAS_VERBOSE": "2", **env})
    assert proc.returncode == 0, proc.stderr
    digest, avx512 = proc.stdout.split()
    return digest, avx512 == "True", proc.stderr


@pytest.fixture(scope="module")
def default_digest():
    return _every_colour_digest()[0]


# OpenBLAS kernels, each with the numpy CPU feature the host needs to run it
BLAS_KERNELS = {"Nehalem": "SSE42", "Haswell": "AVX2", "SkylakeX": "AVX512_SKX"}


@pytest.mark.parametrize("kernel", BLAS_KERNELS)
def test_luma_and_tissue_bits_are_the_same_under_every_blas_kernel(default_digest, kernel):
    # _sums' products and partial sums are integers below 2**24, exact in any summation order
    if not __cpu_features__.get(BLAS_KERNELS[kernel]):
        pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernel")
    digest, _, stderr = _every_colour_digest(OPENBLAS_CORETYPE=kernel)
    assert f"Core: {kernel}" in stderr
    assert digest == default_digest


def test_luma_and_tissue_bits_are_the_same_without_avx512(default_digest):
    digest, avx512, _ = _every_colour_digest(
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert not avx512
    assert digest == default_digest


@pytest.fixture(scope="module")
def every_tie():
    """The 16,782 colours with 299r + 587g + 114b == 1000t + 500, and each one's t.

    Such a colour sits on the rounding edge of luma, and of the tissue test at threshold t.
    """
    rgb = _every_colour().reshape(-1, 3)
    s = rgb.astype(np.int64) @ np.array([299, 587, 114])
    tie = s % 1000 == 500
    return rgb[tie], (s[tie] - 500) // 1000


def test_tissue_test_is_exact_at_every_tie(every_tie):
    ties, t = every_tie
    assert len(ties) == 16782
    expected = luma_reference(ties[None])[0] <= t
    # every tie rounds up to luma t + 1, so none is tissue at t
    assert not expected.any()
    for threshold in np.unique(t):
        at = t == threshold
        assert np.array_equal(masks._dark(ties[at], int(threshold)), expected[at]), threshold


# the tie colours as one row, as rows of 6, and as a strided view with rows of 6
TIE_LAYOUTS = {
    "one_row": lambda ties: ties.reshape(1, -1, 3),
    "rows_of_6": lambda ties: ties.reshape(-1, 6, 3),
    "rows_of_6_strided": lambda ties: ties.reshape(6, -1, 3).transpose(1, 0, 2),
}


@pytest.mark.parametrize("chunk", [None, 37], ids=["default_blocks", "blocks_of_37"])
@pytest.mark.parametrize("layout", TIE_LAYOUTS.values(), ids=TIE_LAYOUTS.keys())
def test_luma_matches_reference_at_every_tie(monkeypatch, every_tie, chunk, layout):
    # rows of 6 in 37-pixel blocks are 467 blocks; any other case is one block
    if chunk:
        monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", chunk)
    rgb = layout(every_tie[0])
    assert np.array_equal(luma(rgb), luma_reference(rgb))


@pytest.mark.parametrize("chunk", [None, 37], ids=["default_blocks", "blocks_of_37"])
@pytest.mark.parametrize("method", [METHOD_OTSU, METHOD_GRAY200])
def test_tissue_mask_at_a_tie_threshold_matches_reference(monkeypatch, chunk, method):
    # the raster's threshold t has tie colours, which round up to t + 1, and gray t
    base, t = tie_slide(method)
    if chunk:
        monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", chunk)
    p = build_pyramid("s", base, 1)
    mask = tissue_mask(p, 0, method)
    s = base.astype(np.int64) @ np.array([299, 587, 114])
    tie = s == 1000 * t + 500
    assert tie.any() and not mask.data[tie].any()
    assert mask.data[(base == t).all(axis=-1)].all()
    assert np.array_equal(mask.data, tissue_mask_reference(p, 0, method).data)


def test_blocking_is_invisible(monkeypatch, rng):
    # 37 pixels over rows of 5 is blocks of 7 rows; 23 rows end in a block of 2
    monkeypatch.setattr(masks, "_LUMA_CHUNK_PIXELS", 37)
    base = rng.integers(0, 256, (23, 5, 3), dtype=np.uint8)
    g = luma_reference(base)
    hist = np.bincount(g.ravel(), minlength=256)
    t = otsu_oracle(hist)
    p = build_pyramid("s", base, 1)
    assert np.array_equal(luma(base), g)
    assert otsu_threshold(hist) == t
    assert np.array_equal(tissue_mask(p, 0, METHOD_OTSU).data, g <= t)
    assert np.array_equal(tissue_mask(p, 0, METHOD_GRAY200).data, g <= GRAY200_THRESHOLD)


def test_luma_rejects_non_rgb():
    with pytest.raises(GeometryError):
        luma(np.zeros((4, 4), dtype=np.uint8))


def test_rasterize_unit_square():
    aset = _aset(_poly("sq", [(1, 1), (5, 1), (5, 5), (1, 5)]))
    mask = rasterize(aset, 0, 8, 8)
    assert mask.count == 16
    assert mask.data[1:5, 1:5].all()


def test_rasterize_level_scales_vertices():
    aset = _aset(_poly("sq", [(2, 2), (10, 2), (10, 10), (2, 10)]))
    lvl0 = rasterize(aset, 0, 16, 16)
    lvl1 = rasterize(aset, 1, 8, 8)
    assert lvl0.count == 64
    assert lvl1.count == 16
    assert lvl1.data[1:5, 1:5].all()


def test_rasterize_concave_polygon_matches_oracle(rng):
    for _ in range(5):
        n = int(rng.integers(4, 10))
        verts = rng.random((n, 2)) * 40
        aset = _aset(_poly("p", verts))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePolygonWarning)
            mask = rasterize(aset, 0, 48, 48)
        assert np.array_equal(mask.data, raster_oracle([verts], 48, 48))


# lattice polygons, where the half-open rule decides: vertices on level-0 center
# scanlines y = j + 0.5 and on level-1 ones (odd y), horizontal edges, a self-crossing
# bow-tie, and polygons reaching past all four grid edges
_LATTICE_POLYGONS = {
    "center-scanlines": [(2.5, 1.5), (9.5, 4.5), (7.0, 7.0), (13.5, 13.5), (1.0, 9.0), (4.0, 4.5)],
    "horizontal-edges": [(1, 1), (9, 1), (9, 4.5), (4, 4.5), (4, 9), (13, 9), (13, 13), (1, 13)],
    "bow-tie": [(1.5, 1.5), (13.5, 11.5), (13.5, 1.5), (1.5, 7.5)],
    # lobes of equal and opposite signed area: the shoelace sum is 0, yet 50 pixels are inside
    "balanced-bow-tie": [(1.5, 1.5), (11.5, 11.5), (11.5, 1.5), (1.5, 11.5)],
    "past-every-edge": [(-3, 7.5), (7.5, -4), (19, 7.5), (7.5, 20.5)],
    "past-edges-on-lattice": [(-2, -2), (18, -2), (18, 5.5), (6, 5.5), (6, 9), (18, 9), (18, 18),
                              (-2, 18)],
}


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", _LATTICE_POLYGONS)
def test_rasterize_lattice_polygon_matches_oracle(name, level):
    verts = _LATTICE_POLYGONS[name]
    side = 16 >> level
    mask = rasterize(_aset(_poly("p", verts)), level, side, side)
    assert mask.count > 0
    assert np.array_equal(mask.data, raster_oracle([verts], side, side, 0.5**level))


def test_rasterize_multiple_polygons_is_union():
    a = _poly("a", [(0, 0), (4, 0), (4, 4), (0, 4)])
    b = _poly("b", [(2, 2), (6, 2), (6, 6), (2, 6)])
    mask = rasterize(_aset(a, b), 0, 8, 8)
    assert np.array_equal(
        mask.data, raster_oracle([a.vertices], 8, 8) | raster_oracle([b.vertices], 8, 8)
    )


def test_rasterize_degenerate_polygon_warns_and_skips():
    flat = _poly("flat", [(1, 1), (5, 1), (9, 1)])
    square = _poly("sq", [(1, 1), (3, 1), (3, 3), (1, 3)])
    with pytest.warns(DegeneratePolygonWarning):
        mask = rasterize(_aset(flat, square), 0, 12, 12)
    assert mask.count == 4


def test_rasterize_empty_set_is_empty_mask():
    mask = rasterize(AnnotationSet("s"), 0, 4, 4)
    assert mask.count == 0


def test_rasterize_rejects_empty_grid():
    with pytest.raises(GeometryError):
        rasterize(AnnotationSet("s"), 0, 0, 4)


def test_otsu_two_spikes():
    hist = np.zeros(256, dtype=np.int64)
    hist[0] = 50
    hist[255] = 50
    assert otsu_threshold(hist) == 0


def test_otsu_weighted_spikes():
    hist = np.zeros(256, dtype=np.int64)
    hist[10] = 30
    hist[200] = 70
    assert otsu_threshold(hist) == 10


def test_otsu_tie_picks_smallest_threshold():
    # symmetric histogram: every split between the spikes scores equally
    hist = np.zeros(256, dtype=np.int64)
    hist[100] = 10
    hist[150] = 10
    assert otsu_threshold(hist) == otsu_oracle(hist) == 100


def test_otsu_matches_oracle_random(rng):
    for _ in range(10):
        hist = rng.integers(0, 50, 256)
        assert otsu_threshold(hist) == otsu_oracle(hist)


def test_otsu_single_bin_raises():
    hist = np.zeros(256, dtype=np.int64)
    hist[77] = 1000
    with pytest.raises(DegenerateHistogramError):
        otsu_threshold(hist)


def test_otsu_validates_histogram():
    with pytest.raises(ValidationError):
        otsu_threshold(np.zeros(100, dtype=np.int64))
    with pytest.raises(ValidationError):
        otsu_threshold(np.zeros(256, dtype=np.int64))


def test_tissue_mask_gray200(rng):
    base = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    p = build_pyramid("s", base, 1)
    mask = tissue_mask(p, 0, METHOD_GRAY200)
    assert np.array_equal(mask.data, luma(base) <= GRAY200_THRESHOLD)


def test_tissue_mask_otsu_separates_bimodal():
    base = np.full((20, 20, 3), 240, dtype=np.uint8)
    base[:10] = 60
    p = build_pyramid("s", base, 1)
    mask = tissue_mask(p, 0)
    assert np.array_equal(mask.data, luma(base) <= 60)


def test_tissue_threshold_cuts_one_chunk_per_pool_process(monkeypatch, rng, four_cpus):
    # a chunk per requested worker would cut 64 histograms, where the pool runs 4 processes
    pixels = rng.integers(0, 256, (8, 16, 3), dtype=np.uint8)
    chunk_counts = []

    def run_in_process(func, chunks, workers=1):
        chunk_counts.append(len(chunks))
        return [func(c) for c in chunks]

    monkeypatch.setattr(masks.parallel, "run_chunks", run_in_process)
    t = masks.tissue_threshold(pixels, METHOD_OTSU, workers=64)
    assert chunk_counts == [4]
    assert t == otsu_threshold(np.bincount(luma(pixels).ravel(), minlength=256))


def test_tissue_mask_otsu_memory_is_below_the_raster(rng):
    base = rng.integers(0, 256, (2048, 2048, 3), dtype=np.uint8)
    p = build_pyramid("s", base, 1)
    mask, peak = traced_peak(lambda: tissue_mask(p, 0, METHOD_OTSU))
    assert mask.data.shape == (2048, 2048)
    # the bool mask is a third of the raster; no level-sized luma is kept beside it
    assert peak <= 0.5 * base.nbytes, peak / base.nbytes


def test_refine_labels_is_intersection(rng):
    gt = BinaryMask("s", 0, rng.random((16, 16)) < 0.5)
    tissue = BinaryMask("s", 0, rng.random((16, 16)) < 0.5)
    refined = refine_labels(gt, tissue)
    assert np.array_equal(refined.data, gt.data & tissue.data)


def test_refine_labels_rejects_mismatched_geometry(rng):
    gt = BinaryMask("s", 0, np.zeros((8, 8), dtype=bool))
    tissue = BinaryMask("s", 1, np.zeros((8, 8), dtype=bool))
    with pytest.raises(GeometryError):
        refine_labels(gt, tissue)
    other = BinaryMask("t", 0, np.zeros((8, 8), dtype=bool))
    with pytest.raises(ValidationError, match="slide 't' does not match slide 's'"):
        refine_labels(gt, other)


def test_mask_round_trip(tmp_path, rng):
    mask = BinaryMask("slide_007", 2, rng.random((9, 13)) < 0.3)
    write_mask(mask, tmp_path / "m.pgm")
    back = read_mask(tmp_path / "m.pgm")
    assert back.slide_id == "slide_007"
    assert back.level == 2
    assert np.array_equal(back.data, mask.data)


def test_read_mask_requires_sidecar(tmp_path, rng):
    mask = BinaryMask("s", 0, rng.random((4, 4)) < 0.5)
    write_mask(mask, tmp_path / "m.pgm")
    (tmp_path / "m.json").unlink()
    with pytest.raises(FormatError):
        read_mask(tmp_path / "m.pgm")


def test_mask_sidecar_is_slide_level_and_kind(tmp_path):
    write_mask(BinaryMask("slide_007", 2, np.eye(3, dtype=bool)), tmp_path / "m.pgm")
    meta = json.loads((tmp_path / "m.json").read_text())
    assert meta == {"slide_id": "slide_007", "level": 2, "kind": "mask"}


def test_read_mask_rejects_a_probability_map(tmp_path):
    write_probability_map(ProbabilityMap("s", 0, np.zeros((4, 4))), tmp_path / "p.pgm")
    with pytest.raises(FormatError, match="mask sidecar field 'kind' is 'probability', "
                                          "expected 'mask'"):
        read_mask(tmp_path / "p.pgm")
