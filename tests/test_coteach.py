import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from oracles import (
    batch_loss,
    coteach_step,
    decision_reference,
    gradient_check,
    logistic_gd_oracle,
    loss_reference,
    select_reference,
    sigmoid_reference,
    run_child,
    step_reference,
)
from slidebench import CoteachConfig, PixelBatch, pixel_features, train, train_single
from slidebench import coteach
from slidebench.cli import main
from slidebench.coteach import (
    FEATURE_DIM,
    FEATURE_NAMES,
    HISTORY_FIELDS,
    _losses,
    _select,
    _sigmoid,
    _step_full,
    clean_accuracy,
    drop_rate,
    make_noise_benchmark,
    parse_config,
    write_history,
)
from slidebench.errors import ConfigError, DivergenceError, GeometryError, ValidationError


def _batch(rng, h=8, w=8, name="b"):
    img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    labels = rng.random((h, w)) < 0.5
    return PixelBatch(name, pixel_features(img), labels)


def _tied_batch(rng, h=8, w=8, distinct=6, name="tied"):
    """A batch of few distinct pixel rows, so equal (row, label) pairs tie on every loss."""
    rows = np.column_stack([np.ones(distinct), rng.random((distinct, FEATURE_DIM - 1))])
    feats = rows[rng.integers(0, distinct, (h, w))]
    return PixelBatch(name, feats, rng.random((h, w)) < 0.5)


def test_pixel_features_shape_and_bias(rng):
    img = rng.integers(0, 256, (6, 7, 3), dtype=np.uint8)
    feats = pixel_features(img)
    assert feats.shape == (6, 7, FEATURE_DIM)
    assert len(FEATURE_NAMES) == FEATURE_DIM
    assert np.all(feats[..., 0] == 1.0)
    assert np.all(feats[..., 1:4] <= 1.0)


def test_pixel_features_flat_image_has_zero_local_std():
    img = np.full((5, 5, 3), 120, dtype=np.uint8)
    feats = pixel_features(img)
    assert np.all(feats[..., 5] < 1e-6)
    assert np.allclose(feats[..., 4], 120 / 255)


def test_pixel_features_rejects_gray():
    with pytest.raises(GeometryError):
        pixel_features(np.zeros((4, 4), dtype=np.uint8))


def test_gradient_check_small(rng):
    batch = _batch(rng)
    w = rng.normal(0, 0.5, FEATURE_DIM)
    assert gradient_check(w, batch) < 1e-6


def test_hand_gradient_step():
    # single pixel, single feature: p = sigma(0) = 0.5, y = 1
    # gradient = (0.5 - 1) * 1 = -0.5; step with eta 1 moves w to 0.5
    feats = np.ones((1, 1, 1))
    batch = PixelBatch("one", feats, np.ones((1, 1), dtype=bool))
    cfg = CoteachConfig(eta=1.0, tau=0.0)
    wf, wg = coteach_step(np.zeros(1), np.zeros(1), batch, 0, cfg)
    assert wf[0] == 0.5
    assert wg[0] == 0.5


def test_drop_rate_ramp():
    cfg = CoteachConfig(tau=0.3, ramp_epochs=10)
    assert drop_rate(cfg, 0) == 0.0
    assert drop_rate(cfg, 5) == pytest.approx(0.15)
    assert drop_rate(cfg, 10) == pytest.approx(0.3)
    assert drop_rate(cfg, 20) == pytest.approx(0.3)
    with pytest.raises(ValidationError):
        drop_rate(cfg, -1)


def test_losses_cross_entropy_identities():
    X = np.array([[0.0], [0.0]])
    y = np.array([0.0, 1.0])
    losses = _losses(X @ np.zeros(1), y)
    assert np.allclose(losses, np.log(2.0))


def test_symmetry_bit_exact_over_steps(rng):
    batches = [_batch(rng, name=f"b{i}") for i in range(4)]
    cfg = CoteachConfig(eta=0.5, tau=0.2, ramp_epochs=5)
    w0 = rng.normal(0, 0.01, FEATURE_DIM)
    wf, wg = w0.copy(), w0.copy()
    for step in range(100):
        wf, wg = coteach_step(wf, wg, batches[step % 4], step // 10, cfg)
        assert np.array_equal(wf, wg)


def test_learners_swap_symmetry(rng):
    # swapping f and g swaps the outputs exactly
    batch = _batch(rng)
    cfg = CoteachConfig(eta=0.5, tau=0.2)
    wa = rng.normal(0, 0.1, FEATURE_DIM)
    wb = rng.normal(0, 0.1, FEATURE_DIM)
    f1, g1 = coteach_step(wa.copy(), wb.copy(), batch, 3, cfg)
    g2, f2 = coteach_step(wb.copy(), wa.copy(), batch, 3, cfg)
    assert np.array_equal(f1, f2)
    assert np.array_equal(g1, g2)


def test_no_drop_no_agreement_equals_plain_logistic(rng):
    batch = _batch(rng, 12, 12)
    X, y = batch.flat()
    w0 = rng.normal(0, 0.01, FEATURE_DIM)
    wf, wg = w0.copy(), w0.copy()
    cfg = CoteachConfig(eta=0.7, tau=0.0)
    for _ in range(100):
        wf, wg = coteach_step(wf, wg, batch, 0, cfg)
    want = logistic_gd_oracle(X, y, w0, 0.7, 100)
    assert np.max(np.abs(wf - want)) <= 1e-12
    assert np.max(np.abs(wg - want)) <= 1e-12


def test_drop_keeps_smallest_peer_losses(rng):
    # with tau just under 1 and full ramp, only the few smallest-loss pixels remain
    batch = _batch(rng, 4, 4)
    X, y = batch.flat()
    wf = rng.normal(0, 0.5, FEATURE_DIM)
    wg = rng.normal(0, 0.5, FEATURE_DIM)
    cfg = CoteachConfig(eta=1e-9, tau=0.75, ramp_epochs=1)
    wf2, _ = coteach_step(wf.copy(), wg.copy(), batch, 1, cfg)
    # reconstruct: f's update should use the 4 smallest peer (g) losses
    losses_g = loss_reference(wg, X, y)
    kept = np.argsort(losses_g, kind="stable")[: 16 - 12]
    grad = X[kept].T @ (1 / (1 + np.exp(-(X[kept] @ wf))) - y[kept]) / len(kept)
    assert np.allclose(wf2, wf - 1e-9 * grad, atol=1e-18)


def test_train_returns_history_rows(rng):
    batches = [_batch(rng, name=f"b{i}") for i in range(3)]
    cfg = CoteachConfig(eta=0.5, t_max=7, n_max=2, tau=0.2, ramp_epochs=3, seed=5)
    _, _, history = train(batches, cfg)
    assert len(history) == 7
    assert [h["epoch"] for h in history] == list(range(1, 8))
    assert history[-1]["drop_rate"] == pytest.approx(0.2)
    assert 0.0 < history[-1]["selected_fraction"] <= 1.0


def test_train_deterministic(rng):
    batches = [_batch(rng, name=f"b{i}") for i in range(2)]
    cfg = CoteachConfig(eta=0.5, t_max=5, n_max=1, seed=9)
    a = train(batches, cfg)
    b = train(batches, cfg)
    assert np.array_equal(a[0], b[0])
    assert a[2] == b[2]


def test_train_single_shares_init_with_f(rng):
    batches = [_batch(rng, name=f"b{i}") for i in range(3)]
    cfg = CoteachConfig(eta=0.5, t_max=5, n_max=3, tau=0.0, seed=3)
    sf, _, _ = train(batches, cfg)
    single = train_single(batches, cfg)
    # same init, same batch order, no selection: f and the single learner take identical steps
    assert sf.tobytes() == single.tobytes()


def test_write_history_format(tmp_path):
    history = [
        {"epoch": 1, "loss_f": 0.5, "loss_g": 0.25, "drop_rate": 0.1, "selected_fraction": 1.0}
    ]
    path = tmp_path / "h.csv"
    write_history(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss_f,loss_g,drop_rate,selected_fraction"
    assert lines[1] == "1,0.50000000,0.25000000,0.10000000,1.00000000"


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("eta = 2.5\nt_max=40  # epochs\n\n# comment line\ntau=0.25\nseed=7\n")
    cfg = parse_config(path)
    assert cfg.eta == 2.5
    assert cfg.t_max == 40
    assert cfg.tau == 0.25
    assert cfg.seed == 7
    assert cfg.n_max == 4  # not in the file: CoteachConfig's default


@pytest.mark.parametrize("body", ["bogus=1\n", "eta\n", "eta=fast\n", "tau=1.5\n"])
def test_parse_config_rejects_bad_input(tmp_path, body):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises((ConfigError, ValidationError)):
        parse_config(path)


def test_parse_config_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"eta=\xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_detected(rng):
    batch = _batch(rng)
    with pytest.raises(DivergenceError):
        coteach_step(
            np.full(FEATURE_DIM, np.inf),
            np.full(FEATURE_DIM, np.inf),
            batch,
            0,
            CoteachConfig(tau=0.0),
        )


def test_noise_benchmark_structure(rng):
    train_set, test_set, clean = make_noise_benchmark(0, n_train=2, n_test=1, tile=16)
    assert len(train_set) == 2
    assert len(test_set) == 1
    assert clean[0].shape == (16, 16)
    # test labels are the clean truth
    assert np.array_equal(test_set[0].labels, clean[0])
    # train labels carry roughly 30% flips, so they differ from any disk
    assert train_set[0].labels.mean() != pytest.approx(clean[0].mean(), abs=0.01)


def test_noise_benchmark_deterministic():
    a = make_noise_benchmark(4, n_train=1, n_test=1, tile=16)
    b = make_noise_benchmark(4, n_train=1, n_test=1, tile=16)
    assert np.array_equal(a[0][0].features, b[0][0].features)
    assert np.array_equal(a[0][0].labels, b[0][0].labels)


def test_clean_accuracy_range(rng):
    _, test_set, clean = make_noise_benchmark(1, n_train=1, n_test=2, tile=16)
    acc = clean_accuracy(rng.normal(0, 0.01, FEATURE_DIM), test_set, clean)
    assert 0.0 <= acc <= 1.0


def test_clean_accuracy_rejects_fewer_labels_than_batches():
    # zip would score only the first batch: 0.4951 where both batches give 0.4839
    _, test_set, clean = make_noise_benchmark(3)
    with pytest.raises(ValidationError, match="2 test batches, 1 clean labels"):
        clean_accuracy(np.zeros(FEATURE_DIM), test_set, clean[:1])


def test_clean_accuracy_rejects_labels_that_only_broadcast():
    # (1, 32) labels broadcast against a 32x32 tile and would score 32.0
    _, test_set, clean = make_noise_benchmark(3)
    with pytest.raises(GeometryError, match=r"batch tile_4: clean labels \(1, 32\)"):
        clean_accuracy(np.zeros(FEATURE_DIM), test_set, [t[:1] for t in clean])


def test_clean_accuracy_rejects_an_empty_test_set():
    with pytest.raises(ValidationError, match="0 test batches, 0 clean labels"):
        clean_accuracy(np.zeros(FEATURE_DIM), [], [])


def _weights_at_the_edges(rng):
    """Weights of every magnitude up to 1e3, weights whose scores are +-0.0 or tiny, and
    weights with an infinite component."""
    for scale in (1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3):
        for _ in range(5):
            yield rng.uniform(-scale, scale, FEATURE_DIM)
    yield np.zeros(FEATURE_DIM)
    yield -np.zeros(FEATURE_DIM)
    for tiny in (5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17):
        yield np.array([tiny, *np.zeros(FEATURE_DIM - 1)])
    for big in (np.inf, -np.inf):
        yield np.array([big, *rng.normal(0.0, 1.0, FEATURE_DIM - 1)])
        yield np.array([0.0, big, *rng.normal(0.0, 1.0, FEATURE_DIM - 2)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_clean_accuracy_matches_the_clipped_probability_rule(rng):
    # the rule's clip to +-35 never moves a decision across 0.5, so dropping it keeps every bit
    _, test_set, clean = make_noise_benchmark(2, n_train=1, n_test=2, tile=16)
    for w in _weights_at_the_edges(rng):
        decisions = [decision_reference(w, batch) for batch in test_set]
        assert clean_accuracy(w, test_set, decisions) == 1.0, w  # pixel by pixel
        want = sum(int(np.count_nonzero(d == t)) for d, t in zip(decisions, clean)) / sum(
            t.size for t in clean)
        assert clean_accuracy(w, test_set, clean) == want, w


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("trainer", [train, train_single])
def test_trainers_raise_on_diverged_weights(rng, trainer):
    with pytest.raises(DivergenceError):
        trainer([_batch(rng)], CoteachConfig(eta=np.inf, t_max=1, tau=0.0))


def test_coteach_beats_single_on_one_seed():
    # one seed of the full benchmark as a smoke test; the acceptance suite
    # runs all ten
    from slidebench import noise_benchmark

    result = noise_benchmark(0)
    assert result["coteach_accuracy"] >= result["single_accuracy"]
    assert result["final_drop_rate"] == pytest.approx(0.3)


def test_batch_loss_decreases_under_training(rng):
    batch = _batch(rng, 16, 16)
    cfg = CoteachConfig(eta=1.0, t_max=20, n_max=1, tau=0.0, seed=0)
    sf, _, history = train([batch], cfg)
    losses = [row["loss_f"] for row in history]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    # each row is the loss before its epoch's step, so the final weights score lower still
    assert batch_loss(sf, batch) < losses[-1]


def test_history_logs_the_pre_update_batch_loss(rng):
    # one batch, one step per epoch: epoch T's row is the loss at the weights of T - 1 epochs
    batch = _batch(rng, 12, 12)
    cfg = CoteachConfig(eta=1.0, t_max=6, n_max=1, tau=0.3, ramp_epochs=3, seed=4)
    _, _, history = train([batch], cfg)
    for epoch in range(2, cfg.t_max + 1):
        sf, sg, _ = train([batch], replace(cfg, t_max=epoch - 1))
        assert history[epoch - 1]["loss_f"] == batch_loss(sf, batch)
        assert history[epoch - 1]["loss_g"] == batch_loss(sg, batch)


# the co-teaching bytes; a change here must be deliberate and declared
_PINNED_COTEACH_SHA256 = "c667508da6378c8c5eee32dc6215c15efc11d5e4d8d07361f3ca85b3d1e7f1ee"


def test_coteach_outputs_digest_is_pinned(tmp_path):
    assert main(["coteach", "--out", str(tmp_path), "--seeds", "3"]) == 0
    h = hashlib.sha256()
    for name in ("summary.json", "history.csv"):
        h.update((tmp_path / name).read_bytes())
    train_set, _, _ = make_noise_benchmark(5)
    _, _, history = train(train_set, CoteachConfig(seed=5))
    h.update(repr(history).encode())
    assert h.hexdigest() == _PINNED_COTEACH_SHA256


def test_sigmoid_matches_reference_bit_for_bit(rng):
    nan = np.float64(np.nan)
    edges = np.array([0.0, -0.0, 35.0, -35.0, 745.0, -745.0, np.inf, -np.inf, nan, -nan])
    for z in (edges, rng.normal(0.0, 20.0, 4096)):
        assert _sigmoid(z).tobytes() == sigmoid_reference(z).tobytes()


@pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 0.9])
def test_select_matches_stable_reference_on_ties(rng, rate):
    batch = _tied_batch(rng)
    X, y = batch.flat()
    for _ in range(20):
        peer = rng.normal(0.0, 2.0, FEATURE_DIM)
        losses = _losses(X @ peer, y)
        assert len(np.unique(losses)) < len(losses)  # ties, so the stable fallback runs
        got = _select(losses, rate)
        want = select_reference(peer, X, y, rate)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:invalid value encountered in logaddexp")
def test_select_orders_nan_losses_as_the_stable_sort(rng):
    X, y = _batch(rng).flat()
    X = X.copy()
    X[[3, 9, 40]] = np.nan
    peer = rng.normal(0.0, 1.0, FEATURE_DIM)
    got = _select(_losses(X @ peer, y), 0.1)
    assert np.array_equal(got, select_reference(peer, X, y, 0.1))


@pytest.mark.parametrize("tau", [0.0, 0.4])
@pytest.mark.parametrize("tied", [False, True])
def test_step_matches_reference_bit_for_bit(rng, tau, tied):
    batches = [_tied_batch(rng, name=f"t{i}") if tied else _batch(rng, name=f"b{i}")
               for i in range(3)]
    cfg = CoteachConfig(eta=2.0, tau=tau, ramp_epochs=4)
    wf = rng.normal(0.0, 0.5, FEATURE_DIM)
    wg = rng.normal(0.0, 0.5, FEATURE_DIM)
    ref_f, ref_g = wf.copy(), wg.copy()
    for step in range(30):
        batch = batches[step % 3]
        X, y = batch.flat()
        wf, wg, info = _step_full(wf, wg, X, y, step // 3, cfg)
        ref_f, ref_g, ref_info = step_reference(ref_f, ref_g, batch, step // 3, cfg)
        assert wf.tobytes() == ref_f.tobytes()
        assert wg.tobytes() == ref_g.tobytes()
        assert info == ref_info


# the two bit-for-bit reference tests above, run by a child under NPY_DISABLE_CPU_FEATURES;
# it prints whether the feature named by its argument is still on
_REFERENCE_CHECKS = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
import test_coteach as t
t.test_sigmoid_matches_reference_bit_for_bit(np.random.default_rng(0))
for tau in (0.0, 0.4):
    for tied in (False, True):
        t.test_step_matches_reference_bit_for_bit(np.random.default_rng(0), tau, tied)
print(__cpu_features__[sys.argv[1]])
"""


@pytest.mark.parametrize("disabled, off", [
    ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V4"),
    ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "X86_V3"),
], ids=["without-avx512", "without-avx2"])
def test_step_matches_reference_bit_for_bit_on_other_simd_dispatches(disabled, off):
    # the sigmoid's np.minimum and np.putmask keep NaN signs and zeros on every SIMD path
    if not __cpu_features__.get(off):
        pytest.skip(f"this CPU has no {off} code path to disable")
    paths = [str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = run_child([sys.executable, "-c", _REFERENCE_CHECKS, off], env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("n_max", [4, 11])  # 11: numpy's pairwise sum unrolls past 8
def test_history_rows_are_np_mean_over_the_epochs_step_infos(rng, monkeypatch, n_max):
    # train sums each row in one reduce; it must keep np.mean's summation order and bits
    infos = []
    real = coteach._step_full

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        infos.append(out[2])
        return out

    monkeypatch.setattr(coteach, "_step_full", recording)
    cfg = CoteachConfig(eta=0.5, t_max=6, n_max=n_max, tau=0.3, ramp_epochs=3, seed=2)
    _, _, history = train([_batch(rng, name=f"b{i}") for i in range(3)], cfg)
    assert len(infos) == cfg.t_max * n_max
    for epoch, row in enumerate(history, 1):
        steps = infos[(epoch - 1) * n_max : epoch * n_max]
        want = {k: float(np.mean([i[k] for i in steps])) for k in HISTORY_FIELDS[1:]}
        want["drop_rate"] = drop_rate(cfg, epoch)
        assert repr(row) == repr({"epoch": epoch, **want})


def test_train_runs_one_step_call_per_step(rng, monkeypatch):
    # the benchmark's tracer times and counts steps by wrapping coteach._step_full
    calls = []
    real = coteach._step_full

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(coteach, "_step_full", counting)
    cfg = CoteachConfig(eta=0.5, t_max=7, n_max=5, tau=0.2, ramp_epochs=3, seed=2)
    train([_batch(rng, name=f"b{i}") for i in range(3)], cfg)
    assert len(calls) == cfg.t_max * cfg.n_max


@pytest.mark.parametrize("trainer", [train, train_single])
def test_trainers_reject_labels_that_do_not_match_features(rng, trainer):
    good = _batch(rng, name="good")
    labels = np.zeros((4, 4), dtype=bool)
    with pytest.raises(GeometryError, match="batch bad"):
        trainer([good, PixelBatch("bad", np.zeros((4, 5, FEATURE_DIM)), labels)],
                CoteachConfig(t_max=1))


@pytest.mark.parametrize("trainer", [train, train_single])
def test_trainers_reject_a_batch_of_another_feature_dim(rng, trainer):
    good = _batch(rng, name="good")
    narrow = PixelBatch("narrow", np.zeros((8, 8, FEATURE_DIM - 1)), np.zeros((8, 8), dtype=bool))
    with pytest.raises(GeometryError, match="batch narrow has feature dim 5"):
        trainer([good, narrow], CoteachConfig(t_max=1))


@pytest.mark.parametrize("trainer", [train, train_single])
def test_trainers_reject_an_empty_dataset(trainer):
    with pytest.raises(ValidationError, match="empty dataset"):
        trainer([], CoteachConfig())
