"""Paired two-sided Wilcoxon signed-rank test.

Average ranks are stored doubled so every rank is an integer and all tail
comparisons are exact. The exact null distribution of W+ (sum of positive
ranks under random signs) is built by subset-sum counting, which enumerates
the same 2^m sign assignments as the brute-force definition; counts are
Python ints so no m overflows. The normal approximation uses the
tie-corrected variance sum(r_i^2)/4, a lattice-aware continuity correction,
and an Edgeworth fourth-cumulant refinement; each tail is computed as an
upper tail, never as 1 - cdf, and is floored at 2^-m, the chance of one sign
pattern, so no p is 0. Ranks, W, W+ and the moments
are exact integer sums, converted to float once; no numpy is imported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .errors import MODE_APPROX, MODE_AUTO, MODE_EXACT, MODES, NoInformationError, ValidationError

EXACT_LIMIT = 200


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

    __post_init__ = validate


@dataclass(frozen=True)
class SignedRankResult:
    w_statistic: float  # sum of signed ranks
    p_two_sided: float
    n_used: int  # pairs remaining after zero-difference discard
    zeros_discarded: int
    mode: str  # "exact" or "normal-approx"


def _doubled_ranks(abs_diffs) -> list[int]:
    """Average ranks of |d|, times two (integers even with ties): a tie group of ``k``
    values ending at 1-based rank ``e`` has doubled rank ``2e - k + 1``."""
    order = sorted(range(len(abs_diffs)), key=abs_diffs.__getitem__)
    doubled, e = [0] * len(order), 0
    for _, tied in groupby(order, key=abs_diffs.__getitem__):
        tied = list(tied)
        e += len(tied)
        for i in tied:
            doubled[i] = 2 * e - len(tied) + 1
    return doubled


def _exact_tail(doubled: list[int], w_plus_doubled: int) -> float:
    """min(P[W+ >= w], P[W+ <= w]) under random signs, exact.

    W+ and sum(doubled) - W+ have one law, so this is P[W+ <= k] with k the nearer
    of w and sum(doubled) - w. Counts of sign assignments per achievable doubled W+
    up to k are built by dynamic programming; equivalent to enumerating all 2^m
    assignments.
    """
    k = min(w_plus_doubled, sum(doubled) - w_plus_doubled)
    counts = [1] + [0] * k
    for r in doubled:
        for s in range(k, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    return sum(counts) / (1 << len(doubled))


def _approx_tails(doubled: list[int], w_plus_doubled: int) -> tuple[float, float]:
    """Edgeworth-refined normal tails of W+ on the doubled-rank lattice.

    W+ doubled lives on a lattice with spacing gcd(doubled ranks), so the
    continuity correction is half that spacing. The fourth-cumulant term
    (each rank contributes kappa4 = -d^4/8 under random signs) corrects the
    flat-topped shape of the null; without it the plain normal misses exact
    mid-range p values by more than 0.01 even at m = 12.
    """
    mu = sum(doubled) / 2.0
    var = float(sum(r**2 for r in doubled)) / 4.0
    sigma = math.sqrt(var)
    gamma2 = -(float(sum(r**4 for r in doubled)) / 8.0) / (var * var)
    half_step = math.gcd(*doubled, 0) / 2.0
    floor = 0.5 ** len(doubled)  # one sign pattern: no exact tail is smaller

    def tail(z: float) -> float:  # P[Z >= z], refined; never 1 - cdf, which loses it to 0
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        value = 0.5 * math.erfc(z / math.sqrt(2.0)) + gamma2 / 24.0 * (z**3 - 3.0 * z) * phi
        return min(1.0, max(floor, value))

    upper = tail((w_plus_doubled - half_step - mu) / sigma)
    lower = tail((mu - w_plus_doubled - half_step) / sigma)
    return upper, lower


def wilcoxon_signed_rank(sample: PairedSample, mode: str = MODE_AUTO) -> SignedRankResult:
    """Two-sided signed-rank test of paired values.

    Zero differences are discarded (their count is reported). ``auto``
    enumerates exactly up to ``EXACT_LIMIT`` (200) pairs, well past a 50-slide challenge,
    and switches to the normal approximation beyond.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    d = [float(a) - float(b) for a, b in zip(sample.a, sample.b)]
    if not all(map(math.isfinite, d)):
        raise ValidationError("paired sample contains non-finite values")
    zeros_discarded = d.count(0.0)
    d = [x for x in d if x != 0.0]
    m = len(d)
    if m == 0:
        raise NoInformationError("all paired differences are zero; nothing to rank")

    doubled = _doubled_ranks([abs(x) for x in d])
    w_plus_doubled = sum(r for r, x in zip(doubled, d) if x > 0)
    w_doubled = 2 * w_plus_doubled - sum(doubled)

    exact = mode == MODE_EXACT or (mode == MODE_AUTO and m <= EXACT_LIMIT)
    if exact:
        tail = _exact_tail(doubled, w_plus_doubled)
        used = MODE_EXACT
    else:
        tail = min(_approx_tails(doubled, w_plus_doubled))
        used = MODE_APPROX
    p = min(1.0, 2.0 * tail)
    return SignedRankResult(w_doubled / 2.0, p, m, zeros_discarded, used)
