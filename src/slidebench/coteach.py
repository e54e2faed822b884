"""Pixel-level co-teaching against noisy labels.

Two per-pixel logistic learners, each a float64 weight vector, train side by
side. In each step a learner keeps the ``n - floor(R(T) * n)`` pixels of the
batch on which its peer's loss is smallest, with the ramped drop rate
R(T) = tau * min(1, T / ramp_epochs), and takes an averaged gradient step on
them: the small-loss cross-update of Han et al., "Co-teaching" (NeurIPS 2018).
Both updates read the pre-step weights, so the learners are exchangeable by
construction: identical weights stay bit-identical. With tau = 0 every pixel is
kept and each learner is plain logistic regression.

Selection contract: a learner's update keeps the first ``n - floor(R * n)``
of its batch's ``n`` pixels in ascending order of the peer's loss, ties
broken by pixel index, and sums their gradient terms in that order. Each
learner's scores ``X @ w`` and per-pixel losses are computed once per step:
the scores serve its own gradient, the losses its peer's selection and the
training history, which logs each step's pre-update batch loss. A pixel is
tumor where sigmoid(w . x) > 0.5, the strict threshold of ``ensemble.binarize``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, GeometryError, ValidationError, format_csv, naming
from .errors import read_text, write_text
from .masks import luma

FEATURE_NAMES = ("bias", "red", "green", "blue", "local_mean", "local_std")
FEATURE_DIM = len(FEATURE_NAMES)

HISTORY_FIELDS = ("epoch", "loss_f", "loss_g", "drop_rate", "selected_fraction")


@dataclass(frozen=True)
class CoteachConfig:
    eta: float = 1.0
    t_max: int = 30
    n_max: int = 1
    tau: float = 0.3
    ramp_epochs: int = 10
    seed: int = 0

    def validate(self) -> None:
        if not self.eta > 0:
            raise ValidationError(f"eta must be > 0, got {self.eta}")
        if self.t_max < 1:
            raise ValidationError(f"t_max must be >= 1, got {self.t_max}")
        if self.n_max < 1:
            raise ValidationError(f"n_max must be >= 1, got {self.n_max}")
        if not 0.0 <= self.tau < 1.0:
            raise ValidationError(f"tau must be in [0, 1), got {self.tau}")
        if self.ramp_epochs < 1:
            raise ValidationError(f"ramp_epochs must be >= 1, got {self.ramp_epochs}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    __post_init__ = validate


# settings of the noisy-label benchmark; ``noise_benchmark`` and the CLI copy it per seed
NOISE_BENCHMARK_CONFIG = CoteachConfig(eta=3.0, t_max=150, n_max=4, tau=0.3, ramp_epochs=10)


@dataclass
class PixelBatch:
    """Per-pixel feature rasters and a binary label raster."""

    name: str
    features: np.ndarray  # (h, w, FEATURE_DIM) float64
    labels: np.ndarray  # (h, w) bool

    def validate(self) -> None:
        if self.features.ndim != 3 or self.features.shape[2] < 1:
            raise ValidationError(f"batch {self.name}: features must be (h, w, d)")
        if self.labels.shape != self.features.shape[:2] or self.labels.dtype != np.bool_:
            raise GeometryError(
                f"batch {self.name}: labels {self.labels.shape} ({self.labels.dtype}) "
                f"do not match features {self.features.shape[:2]}"
            )
        if self.labels.size == 0:
            raise ValidationError(f"batch {self.name}: no pixels")

    __post_init__ = validate

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        d = self.features.shape[2]
        return self.features.reshape(-1, d), self.labels.reshape(-1).astype(np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))  # not -|z|, which would flip the sign bit of a NaN
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def _box3_mean(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, 1, mode="edge")
    acc = np.zeros_like(img)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            acc += padded[dy : dy + img.shape[0], dx : dx + img.shape[1]]
    return acc / 9.0


def pixel_features(rgb: np.ndarray) -> np.ndarray:
    """Hand-set per-pixel features: bias, RGB, 3x3 local mean and std of gray."""
    arr = np.asarray(rgb)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise GeometryError(f"pixel_features expects (h, w, 3) RGB, got {arr.shape}")
    h, w = arr.shape[:2]
    rgbf = arr.astype(np.float64) / 255.0
    gray = luma(arr).astype(np.float64) / 255.0
    mean3 = _box3_mean(gray)
    var3 = np.maximum(_box3_mean(gray * gray) - mean3 * mean3, 0.0)
    feats = np.empty((h, w, FEATURE_DIM), dtype=np.float64)
    feats[..., 0] = 1.0
    feats[..., 1:4] = rgbf
    feats[..., 4] = mean3
    feats[..., 5] = np.sqrt(var3)
    return feats


def drop_rate(cfg: CoteachConfig, epoch: int) -> float:
    """R(T) = tau * min(1, T / ramp_epochs)."""
    if epoch < 0:
        raise ValidationError(f"epoch must be >= 0, got {epoch}")
    return cfg.tau * min(1.0, epoch / cfg.ramp_epochs)


def _losses(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-pixel logistic cross-entropy log(1+e^z) - y*z at the scores ``z``."""
    return np.logaddexp(0.0, z) - y * z


def _gradient(X: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean logistic-loss gradient at the scores ``z = X @ w``."""
    return X.T @ (_sigmoid(z) - y) / len(y)


def _select(losses: np.ndarray, rate: float) -> np.ndarray | None:
    """Indices kept for one learner's update, chosen by its peer's per-pixel ``losses``.

    Returns None when the whole batch is kept, which lets the caller take the
    plain full-batch gradient path (bit-identical to ordinary logistic
    regression). At least one pixel is kept, since ``rate <= tau < 1``.
    """
    n_keep = len(losses) - math.floor(rate * len(losses))
    if n_keep == len(losses):
        return None
    order = np.argsort(losses)
    ranked = losses[order]
    # strictly increasing sorted losses have one order, so any sort gives the
    # stable one; ties and NaN fall back to the stable sort
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(losses, kind="stable")
    return order[:n_keep]


def _update(w: np.ndarray, sel: np.ndarray | None, X, z, y, eta: float) -> tuple[np.ndarray, int]:
    if sel is not None:
        X, z, y = X[sel], z[sel], y[sel]
    grad = _gradient(X, z, y)
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite gradient; lower eta or check features")
    return w - eta * grad, len(y)


def _schedule(dataset: list[PixelBatch], cfg: CoteachConfig, caller: str):
    """Check that the batches all have the first one's feature dim, then draw from
    one ``cfg.seed`` stream f's and g's initial weights and, lazily, each epoch's batch
    permutation. Returns ``((wf, wg), epochs)``; ``epochs`` yields ``(epoch, steps)``, the
    flat ``(X, y)`` of the epoch's ``n_max`` steps. ``train`` and ``train_single`` share it."""
    if not dataset:
        raise ValidationError(f"{caller}: empty dataset")
    flat = []
    for batch in dataset:
        X, y = batch.flat()
        if flat and X.shape[1] != flat[0][0].shape[1]:
            raise GeometryError(
                f"{caller}: batch {batch.name} has feature dim {X.shape[1]}, "
                f"the first batch has {flat[0][0].shape[1]}"
            )
        flat.append((X, y))
    rng = np.random.default_rng(cfg.seed)
    d = flat[0][0].shape[1]
    init = rng.normal(0.0, 0.01, d), rng.normal(0.0, 0.01, d)

    def epochs():
        for epoch in range(1, cfg.t_max + 1):
            perm = rng.permutation(len(flat))
            yield epoch, [flat[perm[i % len(flat)]] for i in range(cfg.n_max)]

    return init, epochs()


def coteach_step(
    wf: np.ndarray,
    wg: np.ndarray,
    batch: PixelBatch,
    epoch: int,
    cfg: CoteachConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous co-teaching update of both learners."""
    X, y = batch.flat()
    wf2, wg2, _ = _step_full(wf, wg, X, y, epoch, cfg)
    return wf2, wg2


def _step_full(
    wf: np.ndarray,
    wg: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    epoch: int,
    cfg: CoteachConfig,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """One step on a validated, flattened batch; each learner's scores and losses serve
    both roles. ``info`` holds each learner's pre-update batch loss."""
    rate = drop_rate(cfg, epoch)
    zf = X @ wf
    zg = X @ wg
    lf = _losses(zf, y)
    lg = _losses(zg, y)
    sel_f = _select(lg, rate)  # g picks pixels for f
    sel_g = _select(lf, rate)  # f picks pixels for g
    wf2, n_f = _update(wf, sel_f, X, zf, y, cfg.eta)
    wg2, n_g = _update(wg, sel_g, X, zg, y, cfg.eta)
    if not (np.isfinite(wf2).all() and np.isfinite(wg2).all()):
        raise DivergenceError("learner parameters diverged")
    info = {
        "drop_rate": rate,
        "selected_fraction": n_f / len(y),
        "n_selected_f": n_f,
        "n_selected_g": n_g,
        "loss_f": float(lf.sum() / lf.size),  # the bits of np.mean, without its wrapper
        "loss_g": float(lg.sum() / lg.size),
    }
    return wf2, wg2, info


def train(dataset: list[PixelBatch],
          cfg: CoteachConfig) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Run the full co-teaching loop: shuffled epochs of simultaneous steps.

    Returns both learners' weight vectors and one history row per epoch with the mean
    over its steps of each step's pre-update batch loss (the losses that the
    step's selection ranks), the drop rate, and the mean selected fraction.
    """
    (wf, wg), epochs = _schedule(dataset, cfg, "train")
    history: list[dict] = []
    for epoch, steps in epochs:
        infos = []
        for X, y in steps:
            wf, wg, info = _step_full(wf, wg, X, y, epoch, cfg)
            infos.append(info)
        row = {k: float(np.mean([i[k] for i in infos])) for k in HISTORY_FIELDS[1:]}
        row["drop_rate"] = drop_rate(cfg, epoch)  # every step of the epoch has it: not averaged
        history.append({"epoch": epoch, **row})
    return wf, wg, history


def train_single(dataset: list[PixelBatch], cfg: CoteachConfig) -> np.ndarray:
    """Plain logistic-regression baseline with the same schedule and init as f; returns
    the trained weight vector and keeps no history."""
    (w, _), epochs = _schedule(dataset, cfg, "train_single")
    for _, steps in epochs:
        for X, y in steps:
            w, _ = _update(w, None, X, X @ w, y, cfg.eta)
    if not np.isfinite(w).all():
        raise DivergenceError("learner parameters diverged")
    return w


def write_history(history: list[dict], path: str | Path) -> None:
    """Export per-epoch training history as CSV."""
    rows = ([row["epoch"], *(f"{row[k]:.8f}" for k in HISTORY_FIELDS[1:])] for row in history)
    write_text(path, format_csv(HISTORY_FIELDS, rows))


def parse_config(path: str | Path) -> CoteachConfig:
    """Read a flat key=value config file (# starts a comment)."""
    kwargs: dict = {}
    casts = {f.name: type(f.default) for f in fields(CoteachConfig)}
    lines = read_text(path, "config", error=ConfigError).splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in casts:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        try:
            kwargs[key] = casts[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    with naming(path, ConfigError):
        return CoteachConfig(**kwargs)


def make_noise_benchmark(
    seed: int,
    n_train: int = 4,
    n_test: int = 2,
    tile: int = 32,
) -> tuple[list[PixelBatch], list[PixelBatch], list[np.ndarray]]:
    """Synthetic two-color tile benchmark with symmetric label noise.

    Each tile is a dark lesion disk covering about half the pixels on a
    bimodal background (one mode deliberately close to the lesion color).
    Symmetric flips on the asymmetric clusters pull a plain logistic fit off
    the class margin, which is what the noise-dropping mechanism repairs,
    while the clean geometry stays linearly separable. Training labels are
    flipped independently at rate 0.3; test labels stay clean. Returns
    (train set, test set, clean test labels).
    """
    rng = np.random.default_rng([seed, 0xC0])
    fg = np.array([150.0, 80.0, 150.0])
    bg_far = np.array([225.0, 205.0, 215.0])
    bg_near = np.array([175.0, 110.0, 170.0])

    def make_tile(idx: int, clean: bool) -> tuple[PixelBatch, np.ndarray]:
        yy, xx = np.mgrid[0:tile, 0:tile]
        cy, cx = rng.uniform(tile * 0.45, tile * 0.55, size=2)
        r = rng.uniform(tile * 0.38, tile * 0.42)
        truth = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        near = rng.random((tile, tile)) < 0.3
        bg = np.where(near[..., None], bg_near, bg_far)
        color = np.where(truth[..., None], fg, bg) + rng.normal(0.0, 12.0, (tile, tile, 3))
        img = np.clip(np.rint(color), 0, 255).astype(np.uint8)
        labels = truth.copy() if clean else truth ^ (rng.random((tile, tile)) < 0.3)
        return PixelBatch(f"tile_{idx}", pixel_features(img), labels), truth

    train_set = [make_tile(i, clean=False)[0] for i in range(n_train)]
    tests = [make_tile(n_train + i, clean=True) for i in range(n_test)]
    return train_set, [batch for batch, _ in tests], [truth for _, truth in tests]


def clean_accuracy(w: np.ndarray, test_set: list[PixelBatch],
                   clean_labels: list[np.ndarray]) -> float:
    """Fraction of clean test pixels that the weights ``w`` classify correctly."""
    pairs = list(zip(test_set, clean_labels))
    correct = sum(int(np.count_nonzero((_sigmoid(b.features @ w) > 0.5) == t)) for b, t in pairs)
    return correct / sum(t.size for _, t in pairs)


def noise_benchmark(seed: int, cfg: CoteachConfig | None = None) -> dict:
    """Co-teaching vs a single learner on one seeded noisy benchmark.

    Both share the schedule and f's init; co-teaching drops each step's
    highest-peer-loss pixels at the ramped rate R(T), the single learner keeps
    every pixel, as co-teaching itself does with tau = 0. ``history`` is co-teaching's.
    """
    if cfg is None:
        cfg = replace(NOISE_BENCHMARK_CONFIG, seed=seed)
    train_set, test_set, clean_labels = make_noise_benchmark(seed)
    sf, _, history = train(train_set, cfg)
    single = train_single(train_set, cfg)
    return {
        "seed": seed,
        "coteach_accuracy": clean_accuracy(sf, test_set, clean_labels),
        "single_accuracy": clean_accuracy(single, test_set, clean_labels),
        "final_loss_f": history[-1]["loss_f"],
        "final_drop_rate": history[-1]["drop_rate"],
        "history": history,
    }
