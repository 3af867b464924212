"""Synthetic heterogeneous client datasets.

Clients hold Gaussian-cluster classification data. Heterogeneity has two
knobs: label skew, drawn per client from a Dirichlet prior over classes, and
a per-client feature shift. Features are standardized with global statistics
so all clients share one input scale. Generation is deterministic given the
master seed: every client draws from its own named counter-based stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite

# Cluster geometry: unit noise with means one noise-std apart keeps the
# classification task genuinely hard, so weighting choices show up in
# per-client accuracy instead of saturating at 100%.
_CLASS_SEPARATION = 1.0
_NOISE_STD = 1.0

# Stream labels for the seed tree; see stream().
STREAM_DATA = 0
STREAM_SAMPLING = 1
STREAM_BATCHING = 2


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent named random stream derived from the master seed.

    Streams are keyed by an integer path, e.g. (STREAM_BATCHING, round,
    client). Philox is counter-based, so streams can be created in any order
    on any thread and still produce identical draws.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SyntheticDataSpec:
    """Shape of the synthetic federation.

    samples_per_client_mean/spread give each client a sample count drawn
    uniformly from [mean - spread, mean + spread]. dirichlet_concentration
    controls label skew (small = near one-hot label distributions) and
    feature_shift the magnitude of each client's private input offset.
    """

    input_dim: int = 10
    num_classes: int = 5
    samples_per_client_mean: int = 100
    samples_per_client_spread: int = 0
    dirichlet_concentration: float = 0.5
    feature_shift: float = 0.0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError("data.input_dim", "must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("data.num_classes", "must be >= 2")
        if self.samples_per_client_mean < 1:
            raise ConfigError("data.samples_per_client_mean", "must be >= 1")
        if self.samples_per_client_spread < 0:
            raise ConfigError("data.samples_per_client_spread", "must be >= 0")
        if self.samples_per_client_spread >= self.samples_per_client_mean:
            raise ConfigError("data.samples_per_client_spread", "must be < mean")
        if self.dirichlet_concentration <= 0:
            raise ConfigError("data.dirichlet_concentration", "must be > 0")
        if self.feature_shift < 0:
            raise ConfigError("data.feature_shift", "must be >= 0")
        require_finite(self, "data.")

    @property
    def min_samples(self) -> int:
        return self.samples_per_client_mean - self.samples_per_client_spread


@dataclass
class ClientDataset:
    """One client's local data, already split 80/20 train/test."""

    client_id: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    class_probs: np.ndarray

    @property
    def n_train(self) -> int:
        return self.y_train.size


def _stratified_split(x, y, num_classes, rng, test_fraction=0.2):
    """Per-class 80/20 split; classes with a single sample stay in train."""
    train_idx, test_idx = [], []
    for c in range(num_classes):
        idx = np.nonzero(y == c)[0]
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        n_test = int(np.floor(test_fraction * idx.size)) if idx.size >= 2 else 0
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    train_idx = np.sort(np.asarray(train_idx, dtype=int))
    test_idx = np.sort(np.asarray(test_idx, dtype=int))
    return x[train_idx], y[train_idx], x[test_idx], y[test_idx]


def generate_federation(spec: SyntheticDataSpec, k: int, seed: int, min_batch: int = 1):
    """Generate ``k`` deterministic client datasets.

    ``min_batch`` is the local batch size the training loop will use; client
    sample counts below it are a configuration error.
    """
    if k < 1:
        raise ConfigError("k", "must be >= 1")
    if spec.min_samples < min_batch:
        raise ConfigError(
            "data.samples_per_client_mean",
            f"minimum client sample count {spec.min_samples} is below the batch size {min_batch}",
        )
    shared = stream(seed, STREAM_DATA, 0)
    means = shared.standard_normal((spec.num_classes, spec.input_dim)) * _CLASS_SEPARATION

    raw = []
    for i in range(k):
        g = stream(seed, STREAM_DATA, 1 + i)
        probs = g.dirichlet(np.full(spec.num_classes, spec.dirichlet_concentration))
        lo, hi = spec.min_samples, spec.samples_per_client_mean + spec.samples_per_client_spread
        n = int(g.integers(lo, hi + 1))
        labels = g.choice(spec.num_classes, size=n, p=probs)
        shift = np.zeros(spec.input_dim)
        if spec.feature_shift > 0:
            direction = g.standard_normal(spec.input_dim)
            shift = spec.feature_shift * direction / np.linalg.norm(direction)
        x = means[labels] + shift + _NOISE_STD * g.standard_normal((n, spec.input_dim))
        raw.append((probs, x, labels))

    pooled = np.concatenate([x for _, x, _ in raw])
    mu = pooled.mean(axis=0)
    sigma = pooled.std(axis=0)
    sigma[sigma == 0.0] = 1.0

    clients = []
    for i, (probs, x, labels) in enumerate(raw):
        x = (x - mu) / sigma
        g = stream(seed, STREAM_DATA, 1 + i, 0)
        xtr, ytr, xte, yte = _stratified_split(x, labels, spec.num_classes, g)
        if ytr.size == 0:  # pathological tiny client: keep everything for training
            xtr, ytr, xte, yte = x, labels, x[:0], labels[:0]
        clients.append(ClientDataset(i, xtr, ytr, xte, yte, probs))
    return clients
