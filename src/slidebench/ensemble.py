"""Multi-model fusion of probability maps and binary masks.

Mean fusion accumulates in the given input order, so a fixed input list is
bit-deterministic; majority vote requires an odd number of masks. The
binarization threshold is strict (a value equal to the threshold stays
unset), one convention shared with ``coteach.clean_accuracy``'s 0.5.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .errors import FormatError, ValidationError, naming, typed_field
from .masks import ROLE_PREDICTION, BinaryMask, check_same_grid, read_pgm_sidecar, write_pgm_sidecar

QUANT_RULE = "round(255*p)"


@dataclass(eq=False)
class ProbabilityMap:
    """Per-pixel tumor probabilities for one slide level."""

    slide_id: str
    level: int
    values: np.ndarray  # (height, width) float64 in [0, 1]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def validate(self) -> None:
        if self.values.ndim != 2 or self.values.dtype != np.float64:
            raise ValidationError(
                f"probability map for {self.slide_id}: expected 2-D float64, got "
                f"{self.values.shape} ({self.values.dtype})"
            )
        if self.level < 0:
            raise ValidationError(f"probability map for {self.slide_id}: negative level")
        if self.values.size and not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
            raise ValidationError(
                f"probability map for {self.slide_id} has values outside [0, 1]"
            )

    __post_init__ = validate


def fuse_mean(maps: list[ProbabilityMap]) -> ProbabilityMap:
    """Pixelwise arithmetic mean, summed in input order; within [0, 1] unclipped, since
    a rounded running sum of values in [0, 1] never exceeds its count."""
    check_same_grid("fuse_mean", *maps)
    acc = np.zeros_like(maps[0].values)
    for m in maps:
        acc += m.values
    acc /= len(maps)
    return ProbabilityMap(maps[0].slide_id, maps[0].level, acc)


def fuse_vote(masks: list[BinaryMask]) -> BinaryMask:
    """Strict per-pixel majority vote over an odd number of masks."""
    check_same_grid("fuse_vote", *masks)
    if len(masks) % 2 == 0:
        raise ValidationError(f"fuse_vote needs an odd count, got {len(masks)}")
    votes = np.zeros(masks[0].data.shape, dtype=np.min_scalar_type(len(masks)))
    for m in masks:
        votes += m.data.view(np.uint8)
    out = votes > len(masks) // 2
    return BinaryMask(masks[0].slide_id, masks[0].level, out, ROLE_PREDICTION)


def binarize(pm: ProbabilityMap, threshold: float = 0.5) -> BinaryMask:
    """Mask of pixels with probability strictly above the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold {threshold} outside [0, 1]")
    return BinaryMask(pm.slide_id, pm.level, pm.values > threshold, ROLE_PREDICTION)


def write_probability_map(pm: ProbabilityMap, path: str | Path) -> None:
    """Serialize as 8-bit PGM (value = round(255*p)) plus a quantization sidecar."""
    path = Path(path)
    with netpbm.row_writer(path, b"P5", pm.width, pm.height) as append:
        append(np.rint(pm.values * 255.0).astype(np.uint8))
    write_pgm_sidecar(path, {"slide_id": pm.slide_id, "level": pm.level, "kind": "probability",
                             "quantization": {"maxval": 255, "rule": QUANT_RULE}})


def read_probability_map(path: str | Path) -> ProbabilityMap:
    gray, meta, where = read_pgm_sidecar(path, "probability")
    if typed_field(meta, "kind", str, where) != "probability":
        raise FormatError(f"{where} field 'kind' is {meta['kind']!r}, expected 'probability'")
    with naming(path):
        return ProbabilityMap(meta["slide_id"], meta["level"], np.divide(gray, 255.0))
