"""Paired two-sided Wilcoxon signed-rank test.

Average ranks are stored doubled so every rank is an integer and all tail
comparisons are exact. The exact null distribution of W+ (sum of positive
ranks under random signs) is built by subset-sum counting, which enumerates
the same 2^m sign assignments as the brute-force definition; counts are
Python ints so no m overflows. The normal approximation uses the
tie-corrected variance sum(r_i^2)/4, a lattice-aware continuity correction,
and an Edgeworth fourth-cumulant refinement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoInformationError, ValidationError

MODE_EXACT = "exact"
MODE_APPROX = "normal-approx"
MODE_AUTO = "auto"
MODES = (MODE_EXACT, MODE_APPROX, MODE_AUTO)

EXACT_LIMIT = 20


@dataclass(frozen=True)
class PairedSample:
    """Per-slide values of two methods, aligned index-wise."""

    labels: tuple[str, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]

    def validate(self) -> None:
        if not (len(self.labels) == len(self.a) == len(self.b)):
            raise ValidationError(
                f"paired sample lengths differ: {len(self.labels)} labels, "
                f"{len(self.a)} vs {len(self.b)} values"
            )
        if len(self.a) < 1:
            raise ValidationError("paired sample is empty")


@dataclass(frozen=True)
class SignedRankResult:
    w_statistic: float  # sum of signed ranks
    p_two_sided: float
    n_used: int  # pairs remaining after zero-difference discard
    zeros_discarded: int
    mode: str  # "exact" or "normal-approx"


def _doubled_ranks(abs_diffs: np.ndarray) -> np.ndarray:
    """Average ranks of |d|, times two (integers even with ties): a tie group of ``k``
    values ending at 1-based rank ``e`` has doubled rank ``2e - k + 1``."""
    _, group, k = np.unique(abs_diffs, return_inverse=True, return_counts=True)
    e = np.cumsum(k, dtype=np.int64)
    return (2 * e - k + 1)[group]


def _exact_tails(doubled: np.ndarray, w_plus_doubled: int) -> tuple[float, float]:
    """(P[W+ >= w], P[W+ <= w]) under random signs, exact.

    Builds the count of sign assignments per achievable doubled W+ value by
    dynamic programming; equivalent to enumerating all 2^m assignments.
    """
    total = sum(int(r) for r in doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled:
        r = int(r)
        for s in range(total, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    n_patterns = 1 << len(doubled)
    upper = sum(counts[w_plus_doubled:])
    lower = sum(counts[: w_plus_doubled + 1])
    return upper / n_patterns, lower / n_patterns


def _approx_tails(doubled: np.ndarray, w_plus_doubled: int) -> tuple[float, float]:
    """Edgeworth-refined normal tails of W+ on the doubled-rank lattice.

    W+ doubled lives on a lattice with spacing gcd(doubled ranks), so the
    continuity correction is half that spacing. The fourth-cumulant term
    (each rank contributes kappa4 = -d^4/8 under random signs) corrects the
    flat-topped shape of the null; without it the plain normal misses exact
    mid-range p values by more than 0.01 even at m = 12.
    """
    mu = sum(int(r) for r in doubled) / 2.0
    var = float(np.sum(doubled.astype(np.float64) ** 2)) / 4.0
    sigma = math.sqrt(var)
    gamma2 = -(float(np.sum(doubled.astype(np.float64) ** 4)) / 8.0) / (var * var)
    half_step = math.gcd(*(int(r) for r in doubled), 0) / 2.0

    def cdf(x: float) -> float:
        z = (x - mu) / sigma
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        value = 0.5 * math.erfc(-z / math.sqrt(2.0)) - gamma2 / 24.0 * (z**3 - 3.0 * z) * phi
        return min(1.0, max(0.0, value))

    upper = 1.0 - cdf(w_plus_doubled - half_step)
    lower = cdf(w_plus_doubled + half_step)
    return upper, lower


def wilcoxon_signed_rank(sample: PairedSample, mode: str = MODE_AUTO) -> SignedRankResult:
    """Two-sided signed-rank test of paired values.

    Zero differences are discarded (their count is reported). ``auto``
    enumerates exactly up to m = 20 pairs and switches to the normal
    approximation beyond.
    """
    sample.validate()
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    d = np.asarray(sample.a, dtype=np.float64) - np.asarray(sample.b, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValidationError("paired sample contains non-finite values")
    nonzero = d != 0.0
    zeros_discarded = int(np.count_nonzero(~nonzero))
    d = d[nonzero]
    m = len(d)
    if m == 0:
        raise NoInformationError("all paired differences are zero; nothing to rank")

    doubled = _doubled_ranks(np.abs(d))
    w_doubled = int(np.sum(np.where(d > 0, doubled, -doubled)))
    w_plus_doubled = int(np.sum(doubled[d > 0]))

    exact = mode == MODE_EXACT or (mode == MODE_AUTO and m <= EXACT_LIMIT)
    if exact:
        upper, lower = _exact_tails(doubled, w_plus_doubled)
        used = MODE_EXACT
    else:
        upper, lower = _approx_tails(doubled, w_plus_doubled)
        used = MODE_APPROX
    p = min(1.0, 2.0 * min(upper, lower))
    return SignedRankResult(w_doubled / 2.0, p, m, zeros_discarded, used)
