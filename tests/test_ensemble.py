import json

import numpy as np
import pytest

from slidebench import (
    BinaryMask,
    ProbabilityMap,
    binarize,
    fuse_mean,
    fuse_vote,
    read_probability_map,
    write_probability_map,
)
from slidebench.errors import FormatError, GeometryError, ValidationError


def _pm(values, slide_id="s", level=0):
    return ProbabilityMap(slide_id, level, np.asarray(values, dtype=np.float64))


def _mask(data, slide_id="s", level=0):
    return BinaryMask(slide_id, level, np.asarray(data, dtype=bool))


def test_fuse_mean_is_pixelwise_mean(rng):
    maps = [_pm(rng.random((8, 8))) for _ in range(5)]
    fused = fuse_mean(maps)
    want = np.mean([m.values for m in maps], axis=0)
    assert np.allclose(fused.values, want, atol=1e-15)
    assert fused.slide_id == "s"


def test_fuse_mean_single_map_identity(rng):
    m = _pm(rng.random((4, 4)))
    assert np.array_equal(fuse_mean([m]).values, m.values)


def test_fuse_mean_deterministic(rng):
    maps = [_pm(rng.random((16, 16))) for _ in range(3)]
    a = fuse_mean(maps).values
    b = fuse_mean(maps).values
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", range(1, 34))
def test_fuse_mean_never_leaves_the_unit_interval(rng, n):
    assert np.all(fuse_mean([_pm(np.ones((3, 3)))] * n).values == 1.0)
    # values within a few ulps of 1, where rounding could push an unclipped mean past 1
    near_one = [_pm(1.0 - rng.integers(0, 4, (64, 64)) * 2.0**-53) for _ in range(n)]
    assert fuse_mean(near_one).values.max() <= 1.0


def test_fuse_mean_rejects_geometry_mismatch(rng):
    with pytest.raises(GeometryError):
        fuse_mean([_pm(np.zeros((4, 4))), _pm(np.zeros((4, 5)))])
    with pytest.raises(GeometryError):
        fuse_mean([_pm(np.zeros((4, 4))), _pm(np.zeros((4, 4)), level=1)])


def test_fuse_mean_rejects_different_slides():
    with pytest.raises(ValidationError):
        fuse_mean([_pm(np.zeros((2, 2)), "a"), _pm(np.zeros((2, 2)), "b")])


def test_fuse_mean_rejects_out_of_range_values():
    with pytest.raises(ValidationError):
        fuse_mean([ProbabilityMap("s", 0, np.full((2, 2), 1.5))])


def test_fuse_vote_majority():
    m1 = _mask([[1, 1, 0, 0]])
    m2 = _mask([[1, 0, 1, 0]])
    m3 = _mask([[1, 0, 0, 0]])
    out = fuse_vote([m1, m2, m3])
    assert out.data.tolist() == [[True, False, False, False]]


def test_fuse_vote_rejects_mismatched_or_missing_masks():
    with pytest.raises(GeometryError):
        fuse_vote([_mask(np.zeros((4, 4)))] * 2 + [_mask(np.zeros((4, 5)))])
    with pytest.raises(GeometryError):
        fuse_vote([_mask(np.zeros((4, 4)))] * 2 + [_mask(np.zeros((4, 4)), level=1)])
    with pytest.raises(ValidationError, match="slide 'b' does not match slide 'a'"):
        fuse_vote([_mask(np.zeros((4, 4)), "a")] * 2 + [_mask(np.zeros((4, 4)), "b")])
    with pytest.raises(ValidationError, match="no inputs"):
        fuse_vote([])


def test_fuse_vote_requires_odd_count(rng):
    masks = [_mask(rng.random((4, 4)) < 0.5) for _ in range(4)]
    with pytest.raises(ValidationError):
        fuse_vote(masks)


def test_fuse_vote_of_identical_masks_is_identity(rng):
    data = rng.random((6, 6)) < 0.5
    out = fuse_vote([_mask(data)] * 3)
    assert np.array_equal(out.data, data)


@pytest.mark.parametrize("n", [3, 257])
def test_fuse_vote_matches_int64_count(rng, n):
    data = rng.random((n, 5, 7)) < 0.5
    data[:, 0, 0] = True  # n votes, past uint8 when n is 257
    data[:, 0, 1] = np.arange(n) <= n // 2  # the least majority
    data[:, 0, 2] = np.arange(n) < n // 2  # one vote short
    out = fuse_vote([_mask(d) for d in data])
    assert np.array_equal(out.data, 2 * data.sum(axis=0, dtype=np.int64) > n)
    assert out.data[0, :3].tolist() == [True, True, False]


def test_binarize_threshold_is_strict():
    pm = _pm([[0.4, 0.5, 0.6]])
    mask = binarize(pm, 0.5)
    assert mask.data.tolist() == [[False, False, True]]


def test_binarize_validates_threshold():
    with pytest.raises(ValidationError):
        binarize(_pm([[0.5]]), 1.5)


def test_probability_map_round_trip_quantizes(tmp_path, rng):
    pm = _pm(rng.random((8, 8)), slide_id="slide_42", level=1)
    write_probability_map(pm, tmp_path / "p.pgm")
    back = read_probability_map(tmp_path / "p.pgm")
    assert back.slide_id == "slide_42"
    assert back.level == 1
    assert np.array_equal(np.rint(back.values * 255), np.rint(pm.values * 255))
    assert np.max(np.abs(back.values - pm.values)) <= 0.5 / 255


def test_probability_sidecar_is_slide_level_and_kind(tmp_path):
    pm = _pm([[0.0, 1.0]], slide_id="slide_42", level=3)
    write_probability_map(pm, tmp_path / "p.pgm")
    meta = json.loads((tmp_path / "p.json").read_text())
    assert meta == {"slide_id": "slide_42", "level": 3, "kind": "probability"}


def test_read_probability_map_rejects_mask_sidecar(tmp_path, rng):
    from slidebench import write_mask

    write_mask(_mask(rng.random((4, 4)) < 0.5), tmp_path / "m.pgm")
    with pytest.raises(FormatError, match="probability sidecar field 'kind' is 'mask', "
                                          "expected 'probability'"):
        read_probability_map(tmp_path / "m.pgm")


def test_fuse_then_binarize_pipeline(rng):
    maps = [_pm(rng.random((16, 16))) for _ in range(3)]
    fused = fuse_mean(maps)
    mask = binarize(fused, 0.5)
    want = np.mean([m.values for m in maps], axis=0) > 0.5
    assert np.array_equal(mask.data, want)
