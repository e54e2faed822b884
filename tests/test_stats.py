import numpy as np
import pytest
import scipy.stats

from oracles import wilcoxon_oracle
from slidebench import PairedSample, wilcoxon_signed_rank
from slidebench.errors import NoInformationError, ValidationError
from slidebench.stats import MODE_APPROX, MODE_AUTO, MODE_EXACT, _doubled_ranks


def _sample(a, b):
    labels = tuple(f"s{i}" for i in range(len(a)))
    return PairedSample(labels, tuple(float(x) for x in a), tuple(float(x) for x in b))


def _random_sample(rng, m, sigma=0.4):
    a = rng.random(m)
    b = a + rng.normal(0.0, sigma, m)
    return _sample(a, b)


def test_hand_case_all_positive():
    result = wilcoxon_signed_rank(_sample([1, 2, 3], [0, 0, 0]), mode=MODE_EXACT)
    assert result.w_statistic == 6.0
    assert result.p_two_sided == 0.25
    assert result.n_used == 3
    assert result.zeros_discarded == 0
    assert result.mode == MODE_EXACT


def test_exact_matches_enumeration_oracle(rng):
    for _ in range(20):
        m = int(rng.integers(2, 11))
        s = _random_sample(rng, m)
        result = wilcoxon_signed_rank(s, mode=MODE_EXACT)
        w, p = wilcoxon_oracle(np.array(s.a) - np.array(s.b))
        assert result.w_statistic == w
        assert result.p_two_sided == float(p)


def test_exact_handles_tied_magnitudes():
    # |d| = 2, 2, 3, 3 forces average ranks 1.5 and 3.5
    s = _sample([2, -2, 3, 3], [0, 0, 0, 0])
    result = wilcoxon_signed_rank(s, mode=MODE_EXACT)
    w, p = wilcoxon_oracle([2, -2, 3, 3])
    assert result.w_statistic == w
    assert result.p_two_sided == float(p)


def test_doubled_ranks_on_tie_heavy_samples(rng):
    for _ in range(2000):
        a = rng.integers(0, rng.integers(1, 8), int(rng.integers(1, 200))).astype(np.float64)
        doubled = _doubled_ranks(a)
        assert doubled.dtype == np.int64
        assert np.array_equal(doubled, 2 * scipy.stats.rankdata(a))


def test_exact_matches_enumeration_oracle_on_tie_heavy_samples(rng):
    for _ in range(200):
        m = int(rng.integers(1, 13))
        d = rng.integers(-3, 4, m).astype(np.float64)  # few magnitudes, so mostly ties
        if not d.any():
            continue
        result = wilcoxon_signed_rank(_sample(d, np.zeros(m)), mode=MODE_EXACT)
        w, p = wilcoxon_oracle(d)
        assert result.w_statistic == w
        assert result.p_two_sided == float(p)


def test_exact_matches_scipy_without_ties(rng):
    for _ in range(10):
        m = int(rng.integers(5, 14))
        s = _random_sample(rng, m)
        mine = wilcoxon_signed_rank(s, mode=MODE_EXACT)
        ref = scipy.stats.wilcoxon(
            np.array(s.a) - np.array(s.b), alternative="two-sided", mode="exact"
        )
        assert mine.p_two_sided == pytest.approx(ref.pvalue, abs=1e-12)


def test_zero_differences_discarded():
    s = _sample([1, 2, 3, 5], [1, 0, 0, 0])
    result = wilcoxon_signed_rank(s, mode=MODE_EXACT)
    assert result.zeros_discarded == 1
    assert result.n_used == 3


def test_all_zero_differences_raise():
    with pytest.raises(NoInformationError):
        wilcoxon_signed_rank(_sample([1, 2], [1, 2]))


def test_scale_invariance_of_exact_p(rng):
    s = _random_sample(rng, 8)
    scaled = _sample(np.array(s.a) * 1000, np.array(s.b) * 1000)
    assert (
        wilcoxon_signed_rank(s, mode=MODE_EXACT).p_two_sided
        == wilcoxon_signed_rank(scaled, mode=MODE_EXACT).p_two_sided
    )


def test_p_in_unit_interval(rng):
    for _ in range(20):
        s = _random_sample(rng, int(rng.integers(1, 9)))
        p = wilcoxon_signed_rank(s).p_two_sided
        assert 0.0 < p <= 1.0


def test_approx_close_to_exact_at_m12(rng):
    for _ in range(30):
        s = _random_sample(rng, 12)
        exact = wilcoxon_signed_rank(s, mode=MODE_EXACT)
        approx = wilcoxon_signed_rank(s, mode=MODE_APPROX)
        assert approx.mode == MODE_APPROX
        assert abs(exact.p_two_sided - approx.p_two_sided) <= 0.01


def test_auto_mode_switches_at_limit(rng):
    small = _random_sample(rng, 20)
    big = _random_sample(rng, 21)
    assert wilcoxon_signed_rank(small, mode=MODE_AUTO).mode == MODE_EXACT
    assert wilcoxon_signed_rank(big, mode=MODE_AUTO).mode == MODE_APPROX


def test_validation_errors():
    with pytest.raises(ValidationError):
        wilcoxon_signed_rank(_sample([1.0], [0.0]), mode="bogus")
    with pytest.raises(ValidationError):
        wilcoxon_signed_rank(PairedSample(("a",), (1.0,), (1.0, 2.0)))
    with pytest.raises(ValidationError):
        wilcoxon_signed_rank(_sample([np.nan, 1], [0, 0]))


def test_single_pair():
    result = wilcoxon_signed_rank(_sample([1.0], [0.0]), mode=MODE_EXACT)
    assert result.w_statistic == 1.0
    assert result.p_two_sided == 1.0
