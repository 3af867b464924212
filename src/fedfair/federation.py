"""Deterministic federated-learning simulation.

One process plays the server and all clients. Clients train a shared
multinomial logistic model on synthetic heterogeneous data; the server turns
their pre-update losses into bounded responses, updates its mixing
coefficients with the configured strategy, and aggregates the local updates.

Determinism contract: a run is a pure function of (config, seed). Every
source of randomness draws from a named counter-based stream, and client
results are reduced in fixed index order, so every rerun is bit-identical.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import aggregators, decision, simplex
from .datasets import (
    STREAM_BATCHING,
    STREAM_SAMPLING,
    Federation,
    SyntheticDataSpec,
    generate_federation,
    rekey,
    stream,
    stream_keys,
)
from .errors import ConfigError, DegenerateSubsetError, DivergenceError, require_finite
from .transform import CdfSpec, ResponseRange, Setting, default_range, transform_responses

logger = logging.getLogger(__name__)

ADAPTIVE_SILO = "aaggff-s"
ADAPTIVE_DEVICE = "aaggff-d"
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class FederationConfig:
    """Full description of one simulated federation run."""

    k: int
    t_rounds: int
    method: str
    setting: Setting
    c: float = 1.0
    e: int = 1
    b: int = 20
    lr: float = 0.1
    lr_decay: float = 1.0
    lr_decay_step: int = 1
    weight_decay: float = 0.0
    seed: int = 0
    cdf: CdfSpec = field(default_factory=CdfSpec)
    data: SyntheticDataSpec = field(default_factory=SyntheticDataSpec)
    qfedavg_q: float = 1.0
    term_lambda: float = 1.0
    propfair_m: float = 3.0
    afl_q: float = aggregators.DEFAULT_AFL_Q

    def __post_init__(self):
        try:
            object.__setattr__(self, "setting", Setting(self.setting))
        except ValueError:
            raise ConfigError("setting", f"must be one of {[s.value for s in Setting]}") from None
        require_finite(self)
        if self.k < 2:
            raise ConfigError("k", "must be >= 2")
        if self.t_rounds < 1:
            raise ConfigError("t_rounds", "must be >= 1")
        if not (0 < self.c <= 1):
            raise ConfigError("c", "c must be in (0,1]")
        if self.e < 1:
            raise ConfigError("e", "must be >= 1")
        if self.b < 1:
            raise ConfigError("b", "must be >= 1")
        # Standardizing sums each feature's squared deviation from its mean over
        # every row. A deviation is at most twice the shift plus the noise, so
        # these sums stay finite where (4 shift)^2 times the largest possible
        # row count does, whatever the draws; generate_federation still checks
        # the statistics it computes.
        rows = self.k * (self.data.samples_per_client_mean + self.data.samples_per_client_spread)
        reach = 4.0 * self.data.feature_shift
        if reach and 2 * math.log(reach) + math.log(rows) > _LOG_FLOAT_MAX:
            raise ConfigError(
                "data.feature_shift", f"{self.data.feature_shift!r} overflows the standardized features of {rows} rows"
            )
        if self.data.min_samples < self.b:
            raise ConfigError(
                "data.samples_per_client_mean",
                f"minimum client sample count {self.data.min_samples} is below the batch size {self.b}",
            )
        if self.lr <= 0:
            raise ConfigError("lr", "must be > 0")
        if not (0 < self.lr_decay <= 1):
            raise ConfigError("lr_decay", "must be in (0,1]")
        if self.lr_decay_step < 1:
            raise ConfigError("lr_decay_step", "must be >= 1")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay", "must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        if self.method not in aggregators.STRATEGIES:
            raise ConfigError("method", f"must be one of {aggregators.STRATEGIES}")
        if self.method == ADAPTIVE_DEVICE and self.setting is not Setting.CROSS_DEVICE:
            raise ConfigError("method", f"{ADAPTIVE_DEVICE!r} requires setting=cross_device")
        if self.method == ADAPTIVE_SILO and self.setting is not Setting.CROSS_SILO:
            raise ConfigError("method", f"{ADAPTIVE_SILO!r} requires setting=cross_silo")
        if self.setting is Setting.CROSS_SILO and self.c != 1.0:
            raise ConfigError("c", "cross_silo runs use full participation; set c = 1")
        if self.qfedavg_q < 0:
            raise ConfigError("qfedavg_q", "must be >= 0")
        if self.term_lambda <= 0:
            raise ConfigError("term_lambda", "must be > 0")
        if self.propfair_m < 1:
            raise ConfigError("propfair_m", "must be >= 1")
        if self.afl_q < 0:
            raise ConfigError("afl_q", "must be >= 0")

    @property
    def subset_size(self) -> int:
        """Clients sampled per round: max(1, floor(c*k)) for c's decimal value; k in silo mode."""
        if self.setting is Setting.CROSS_SILO:
            return self.k
        return max(1, int(Fraction(repr(float(self.c))) * self.k))

    @property
    def inclusion_probability(self) -> float:
        """Exact per-client inclusion probability subset_size / k.

        Fixed-size sampling makes this the probability the estimators and
        step sizes must use; it differs from the configured c when floor(c*k)
        truncates.
        """
        return self.subset_size / self.k

    @property
    def response_range(self) -> ResponseRange:
        return default_range(self.setting, self.k, self.inclusion_probability)

    @property
    def adaptive(self) -> bool:
        """True for the adaptive learners; a baseline plays its sample-size
        prior every round."""
        return self.method in (ADAPTIVE_SILO, ADAPTIVE_DEVICE)

    @property
    def lipschitz(self) -> float | None:
        """Sup-norm bound on the adaptive learner's gradients (the doubly robust
        one for ``aaggff-d``); None for a baseline."""
        if self.method == ADAPTIVE_SILO:
            return decision.lipschitz_full(self.response_range)
        if self.method == ADAPTIVE_DEVICE:
            return decision.lipschitz_dr(self.response_range, self.inclusion_probability)
        return None

    @property
    def regret_bound(self) -> float | None:
        """The adaptive learner's regret bound after ``t_rounds``; None for a baseline."""
        l_inf = self.lipschitz
        if l_inf is None:
            return None
        return decision.regret_bound(l_inf, self.k, self.t_rounds, second_order=self.method == ADAPTIVE_SILO)

    @classmethod
    def from_dict(cls, raw: dict) -> "FederationConfig":
        """Rebuild (and so validate) a config from its ``dataclasses.asdict`` or JSON form."""
        return cls(**{**raw, "cdf": CdfSpec(**raw["cdf"]), "data": SyntheticDataSpec(**raw["data"])})


@dataclass
class RoundRecord:
    """One round, as ``Learner.step`` returns it: the clients ``sampled``,
    their pre-update ``losses``, the decision ``played``, the sampled
    clients' ``observed`` responses and the (possibly estimated) ``response``
    over all clients, the new ``decision`` and the played decision's
    ``decision_loss``. ``cli.round_series`` rebuilds every field but
    ``duration``, the wall-clock seconds the run sets and keeps out of the
    round log, from that log alone."""

    round: int
    sampled: np.ndarray
    losses: np.ndarray
    played: np.ndarray
    observed: np.ndarray
    response: np.ndarray
    decision: np.ndarray
    decision_loss: float
    duration: float = 0.0


@dataclass
class RunResult:
    """A run's rounds and final model. ``train_sizes`` are the federation's
    training-set sizes, which set a baseline's prior. A diverged run has no
    ``theta``, ``client_accuracy`` or ``runtime``."""

    config: FederationConfig
    records: list
    theta: np.ndarray | None
    client_accuracy: np.ndarray | None
    runtime: float | None
    train_sizes: np.ndarray | None = None


class LogisticModel:
    """Multinomial logistic regression over a flat parameter vector."""

    def __init__(self, input_dim: int, num_classes: int):
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.dim = num_classes * input_dim + num_classes

    def init_params(self) -> np.ndarray:
        return np.zeros(self.dim)

    def _unpack(self, theta):
        w = theta[: self.num_classes * self.input_dim].reshape(self.num_classes, self.input_dim)
        b = theta[self.num_classes * self.input_dim :]
        return w, b

    def predict(self, theta, x) -> np.ndarray:
        w, b = self._unpack(theta)
        return np.argmax(x @ w.T + b, axis=1)


@dataclass(frozen=True)
class Cohort:
    """The training data of the clients ``subset`` of a federation, laid out
    for ``train_clients`` by ``prepare_clients``. Every array is read-only.

    ``x`` holds the clients' training rows in ``subset`` order, each with a
    trailing 1 for the bias, then one zero row (label 0 in ``y``) that
    minibatch padding points at; client j's rows start at ``starts[j]``.
    ``picks`` holds each training row's flat index into the (classes, rows)
    logits of the loss pass: the logit of the row's label.
    The step plan sorts clients by step count, most first (``order``), so the
    clients still training at step s are a prefix, ``active[s]`` of them.
    ``slots`` holds the ``width`` rows of ``x`` that each sorted client's
    minibatch slots read before shuffling: its own rows in order, then the
    zero row. ``counts`` holds each sorted client's minibatch size at every step.
    """

    subset: np.ndarray
    batch_size: int
    sizes: np.ndarray
    starts: np.ndarray
    x: np.ndarray
    y: np.ndarray
    picks: np.ndarray
    order: np.ndarray
    slots: np.ndarray
    counts: np.ndarray
    active: np.ndarray


def prepare_clients(fed: Federation, subset, batch_size: int) -> Cohort:
    """The ``Cohort`` of the clients of ``fed`` in ``subset`` for minibatches
    of ``batch_size``. A silo run prepares it once, for every client; a
    cross-device run prepares one for each round's sample."""
    subset = np.array(subset, dtype=np.intp)
    sizes = fed.train_sizes[subset]
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    gather = np.repeat(np.cumsum(fed.train_sizes)[subset] - sizes - starts, sizes) + np.arange(total)
    x = np.zeros((total + 1, fed.x_train.shape[1] + 1))
    x[:total, :-1] = fed.x_train[gather]
    x[:total, -1] = 1.0
    y = np.zeros(total + 1, dtype=np.intp)
    y[:total] = fed.y_train[gather]

    steps = -(-sizes // batch_size)
    order = np.argsort(-steps, kind="stable")
    n_sorted = sizes[order]
    slot = np.arange(steps[order[0]] * batch_size)
    cohort = Cohort(
        subset=subset,
        batch_size=batch_size,
        sizes=sizes,
        starts=starts,
        x=x,
        y=y,
        picks=y[:total] * total + np.arange(total),
        order=order,
        slots=np.where(slot < n_sorted[:, None], starts[order][:, None] + slot, total),
        counts=np.minimum(n_sorted[:, None] - slot[::batch_size], batch_size),
        active=np.count_nonzero(steps[:, None] > np.arange(steps.max()), axis=0),
    )
    for value in vars(cohort).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return cohort


def _padded(shape) -> int:
    """Elements an array of ``shape`` takes in a scratch buffer: its size
    rounded up to 8 (64 bytes), so every view ``_carve`` makes starts as
    aligned as the buffer."""
    return -(-math.prod(shape) // 8) * 8


def _carve(buffer: np.ndarray, *shapes) -> list[np.ndarray]:
    """Consecutive C-contiguous views of ``buffer`` with the given shapes."""
    views, start = [], 0
    for shape in shapes:
        views.append(buffer[start : start + math.prod(shape)].reshape(shape))
        start += _padded(shape)
    return views


class Workspace:
    """Every per-round array of ``train_clients`` on one ``Cohort`` and
    number of epochs, allocated once.

    A silo run trains its one cohort every round, so it builds one workspace
    next to it, and its rounds allocate only the losses that the round log
    keeps; even the deltas are the workspace's. Freed, the same arrays would
    be trimmed off the top of glibc's brk heap and faulted back in every
    round. The loss pass, the SGD steps and the final
    flattening never need each other's arrays, so the three share one scratch
    buffer. ``train_clients`` writes every buffer before it reads it.
    """

    def __init__(self, model: LogisticModel, cohort: Cohort, epochs: int):
        m, b, classes = cohort.sizes.size, cohort.batch_size, model.num_classes
        total, cols = cohort.x.shape[0] - 1, cohort.x.shape[1]
        # First: a workspace built for one call is freed when it returns, but
        # its deltas are not, and above the rest they would pin that memory
        # below the top of the heap.
        self.deltas = np.empty((m, model.dim))
        self.params = np.empty((m, classes, cols))
        self.rows = np.empty((epochs,) + cohort.slots.shape, dtype=np.intp)
        # Each sorted client's real slots of every epoch: what its shuffles permute.
        self.shuffles = [list(self.rows[:, j, :n]) for j, n in enumerate(cohort.sizes[cohort.order].tolist())]
        self.batch = np.empty((m, b), dtype=np.intp)
        self.batch_picks = np.empty((m, b), dtype=np.intp)
        loss = [(classes, total), (total,), (total,)]
        sgd = [(m, b, cols), (m, classes, b), (m, b), (m, classes, cols), (m, classes, cols)]
        final = [(m, model.dim)]
        scratch = np.empty(max(sum(map(_padded, phase)) for phase in (loss, sgd, final)))
        self.logits, self.reduced, self.picked = _carve(scratch, *loss)
        self.x, self.probs, self.batch_reduced, self.grad, self.decay = _carve(scratch, *sgd)
        (self.flat,) = _carve(scratch, *final)
        # The weights of flat as (m, classes, input_dim): a view, since each
        # row's weights are contiguous.
        self.flat_weights = self.flat[:, : classes * (cols - 1)].reshape(m, classes, cols - 1)
        # Slot j of client i's minibatch as a flat index into probs, less its
        # label's offset. Read-only: it is the same every call.
        self.pick_base = (np.arange(m)[:, None] * (classes * b) + np.arange(b)).astype(np.intp)
        self.pick_base.flags.writeable = False


def train_clients(
    model: LogisticModel,
    theta: np.ndarray,
    cohort: Cohort,
    keys,
    epochs: int,
    lr: float,
    weight_decay: float = 0.0,
    round_index: int | None = None,
    rng: np.random.Generator | None = None,
    workspace: Workspace | None = None,
):
    """Evaluate then locally train the received model on every client at once.

    Returns (losses, deltas) with one row per client of ``cohort.subset``
    (all of them in a silo round): the full-dataset mean loss at the received
    parameters, computed before any step, and received-minus-trained
    parameters after ``epochs`` passes of minibatch SGD. Client ``subset[j]``
    shuffles its rows with one permutation per epoch from the stream with
    Philox key ``keys[j]`` (a row of ``datasets.stream_keys``), drawn through
    ``rng`` rekeyed (a new Generator if None), and takes ceil(n_j / batch_size)
    steps per epoch, the last one on the remainder. Step s of every client
    that still has a minibatch s is one vectorized update. Weight decay enters
    the update only; the reported loss is the plain data loss.

    Every other array of the call lives in ``workspace``, built for
    ``cohort`` and ``epochs`` (a new one if None), so a call that is given
    one allocates only ``losses``. The ``deltas`` are the workspace's own:
    the next call on it overwrites them.

    A non-finite loss or trained parameter raises DivergenceError naming the
    first such client in ``subset`` order.
    """
    sizes, x, y, order, batch_size = cohort.sizes, cohort.x, cohort.y, cohort.order, cohort.batch_size
    losses = np.empty(sizes.size)  # the round log keeps them
    ws = Workspace(model, cohort, epochs) if workspace is None else workspace
    deltas = ws.deltas
    total = x.shape[0] - 1

    # Every client starts from theta: each class's weights, then its bias.
    params = ws.params
    w, bias = model._unpack(theta)
    params[:, :, :-1] = w
    params[:, :, -1] = bias
    logits = np.matmul(params[0], x[:total].T, out=ws.logits)
    logits -= np.max(logits, axis=0, out=ws.reduced)
    picked = np.take(logits, cohort.picks, out=ws.picked, mode="clip")
    log_sum = np.log(np.sum(np.exp(logits, out=logits), axis=0, out=ws.reduced), out=ws.reduced)
    picked -= log_sum
    np.divide(np.add.reduceat(picked, cohort.starts), -sizes, out=losses)

    # Every epoch's shuffles of every client, in training order: shuffling a
    # client's rows in place makes the draws of rng.permutation. Streams are
    # independent, so drawing a client's epochs together changes no draw.
    # The rows of params are all theta, so they need no reordering.
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=0))
    rows = ws.rows
    rows[...] = cohort.slots
    for key, shuffles in zip(np.asarray(keys)[order].tolist(), ws.shuffles):
        rekey(rng, key)
        for shuffle in shuffles:
            rng.shuffle(shuffle)

    for epoch_rows in rows:
        for s, a in enumerate(cohort.active.tolist()):
            # Contiguous, so np.take makes no copy of the indices.
            batch = ws.batch[:a]
            np.copyto(batch, epoch_rows[:a, s * batch_size : (s + 1) * batch_size])
            _sgd_step(ws, params[:a], x, y, batch, cohort.counts[:a, s], lr, weight_decay)

    # Back to the flat layout of theta: every class's weights, then the biases.
    flat = ws.flat
    ws.flat_weights[...] = params[:, :, :-1]
    flat[:, w.size :] = params[:, :, -1]
    deltas[order] = np.subtract(theta, flat, out=flat)
    bad = ~np.isfinite(losses) | ~np.isfinite(deltas).all(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        what = "local training diverged" if np.isfinite(losses[j]) else "non-finite local loss"
        client = int(cohort.subset[j])
        raise DivergenceError(f"{what} for client {client}", round_index=round_index, client_id=client)
    return losses, deltas


def _sgd_step(ws: Workspace, params, x, y, batch, counts, lr: float, weight_decay: float) -> None:
    """One minibatch SGD step of the first ``a`` sorted clients, in place on
    their ``params`` (a, classes, input_dim + 1). ``batch`` (a, b) holds the
    rows of ``x`` and ``y`` in each client's minibatch, padding rows pointing
    at the zero row, and ``counts`` (a,) each client's number of real rows."""
    a = batch.shape[0]
    xb = np.take(x, batch, axis=0, out=ws.x[:a], mode="clip")
    probs = np.matmul(params, xb.transpose(0, 2, 1), out=ws.probs[:a])
    reduced = ws.batch_reduced[:a, None, :]
    probs -= np.max(probs, axis=1, keepdims=True, out=reduced)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=1, keepdims=True, out=reduced)
    # probs[i, y_ij, j] -= 1 through its flat index, y_ij * b + pick_base[i, j].
    picks = np.take(y, batch, out=ws.batch_picks[:a], mode="clip")
    picks *= batch.shape[1]
    picks += ws.pick_base[:a]
    label_probs = np.take(probs, picks, out=ws.batch_reduced[:a], mode="clip")
    label_probs -= 1.0
    np.put(probs, picks, label_probs, mode="clip")
    g = np.matmul(probs, xb, out=ws.grad[:a])
    g /= counts[:, None, None]
    if weight_decay:
        g += np.multiply(weight_decay, params, out=ws.decay[:a])
    g *= lr
    params -= g


def client_update(
    model: LogisticModel,
    theta: np.ndarray,
    fed: Federation,
    client: int,
    epochs: int,
    batch_size: int,
    lr: float,
    key,
    weight_decay: float = 0.0,
    round_index: int | None = None,
):
    """``train_clients`` for client ``client`` of ``fed`` alone, shuffling
    from the stream with Philox ``key``: returns (loss_before, delta)."""
    losses, deltas = train_clients(
        model, theta, prepare_clients(fed, [client], batch_size), [key], epochs, lr, weight_decay, round_index
    )
    return float(losses[0]), deltas[0]


def sample_clients(k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of ``m`` of the ``k`` clients without replacement.

    Returned sorted so downstream reductions run in fixed index order.
    """
    return np.sort(rng.choice(k, size=m, replace=False))


def round_responses(cfg: FederationConfig, losses, subset) -> tuple[np.ndarray, np.ndarray]:
    """(observed, response) of one round: the sampled clients' ``losses``
    through the configured transform, and the response the decision is scored
    on: the observed one (cross-silo) or its doubly robust estimate (cross-device)."""
    observed = transform_responses(losses, cfg.response_range, cfg.cdf)
    if cfg.setting is Setting.CROSS_SILO:
        return observed, observed
    return observed, decision.dr_estimate(observed, subset, cfg.inclusion_probability, cfg.k)


def subset_weights(p: np.ndarray, subset, round_index: int) -> np.ndarray:
    """Aggregation weights of the sampled clients: ``p`` renormalized over
    ``subset``, or uniform (logged) when the subset carries no decision mass."""
    try:
        return simplex.normalize_subset(p, subset)
    except DegenerateSubsetError:
        logger.warning("round %d: zero decision mass on the sampled set; using uniform", round_index)
        return simplex.uniform(len(subset))


class Learner:
    """The server's decision rule, from the config and the clients' training
    sample sizes (only a baseline uses them, for its prior).

    ``played`` is the decision in effect for the coming round. ``step``
    observes round ``round_index``'s ``losses`` of the clients in ``subset``
    and returns the round's ``RoundRecord``; its new decision sets the
    aggregation weights. The adaptive learners then play it: Online Newton
    Step from uniform for ``aaggff-s``, entropic FTRL on the linearized doubly
    robust gradient for ``aaggff-d``. A baseline plays its sample-size prior
    every round; its decision is one exponentiated-gradient step from the
    prior renormalized over ``subset``, and zero elsewhere.

    The run and ``cli.round_series``, the replay of its round log, both step
    a Learner, so the replay reproduces every round record bit for bit.
    """

    def __init__(self, cfg: FederationConfig, train_sizes=None):
        self.cfg = cfg
        if cfg.method == ADAPTIVE_SILO:
            self._state = aggregators.OnsState.init(cfg.k, cfg.lipschitz)
            self.played = self._state.decision
        elif cfg.method == ADAPTIVE_DEVICE:
            self._state = aggregators.FtrlState.init(cfg.k, cfg.lipschitz)
            self.played = simplex.uniform(cfg.k)
        else:
            self._state = aggregators.baseline_params_for(
                cfg.method, np.asarray(train_sizes, dtype=float), q=cfg.qfedavg_q, tilt=cfg.term_lambda,
                propfair_m=cfg.propfair_m, afl_q=cfg.afl_q,
            )
            self.played = self._state.prior

    def step(self, round_index: int, losses: np.ndarray, subset: np.ndarray) -> RoundRecord:
        cfg, state, played = self.cfg, self._state, self.played
        observed, response = round_responses(cfg, losses, subset)
        if cfg.method == ADAPTIVE_SILO:
            self._state, p = aggregators.ons_step(state, decision.decision_gradient(played, response))
        elif cfg.method == ADAPTIVE_DEVICE:
            g = decision.linearized_gradient(played, response, np.full(cfg.k, observed.mean()))
            self._state, p = aggregators.ftrl_eg_step(state, g)
        else:
            prior = state.sample_sizes[subset]
            p = np.zeros(cfg.k)
            p[subset] = aggregators.eg_step(
                prior / prior.sum(), aggregators.baseline_response(state, losses), state.step_size
            )
        if cfg.adaptive:
            self.played = p
        return RoundRecord(
            round_index, subset, losses, played, observed, response, p, decision.decision_loss(played, response)
        )


def evaluate_clients(model: LogisticModel, theta: np.ndarray, fed: Federation) -> np.ndarray:
    """Per-client held-out accuracy of the final global model, in [0, 1], from
    one prediction over every test row. Clients whose split produced no test
    samples are scored on their training set instead (logged)."""
    k = fed.test_sizes.size
    ids = np.arange(k)
    hits = np.bincount(np.repeat(ids, fed.test_sizes), model.predict(theta, fed.x_test) == fed.y_test, minlength=k)
    empty = fed.test_sizes == 0
    for i in np.flatnonzero(empty).tolist():
        logger.warning("client %d has no held-out samples; evaluating on training data", i)
    owner = np.repeat(ids, fed.train_sizes)
    rows = empty[owner]
    # Not in place: np.bincount of no rows is int64 even when given weights.
    hits = hits + np.bincount(owner[rows], model.predict(theta, fed.x_train[rows]) == fed.y_train[rows], minlength=k)
    return hits / np.where(empty, fed.train_sizes, fed.test_sizes)


def run_federation(cfg: FederationConfig, fed: Federation | None = None) -> RunResult:
    """Simulate one federation run of ``cfg``.

    Cross-silo runs use full participation: every client trains every round.
    Cross-device runs sample a client subset each round, fill in the
    unobserved response entries with the doubly robust estimate, update the
    full decision from the linearized gradient, and aggregate only over the
    sampled clients with subset-renormalized coefficients.

    ``fed`` injects a pre-built ``Federation`` of k clients in place of the
    generated one; the baselines' sample sizes are its ``train_sizes``."""
    start_time = time.perf_counter()
    if fed is None:
        fed = generate_federation(cfg.data, cfg.k, cfg.seed, min_batch=cfg.b)
    elif fed.train_sizes.size != cfg.k:
        raise ConfigError("k", f"{fed.train_sizes.size} client datasets supplied for k={cfg.k}")
    model = LogisticModel(cfg.data.input_dim, cfg.data.num_classes)
    theta = model.init_params()

    batching = np.random.Generator(np.random.Philox(key=0))
    learner = Learner(cfg, fed.train_sizes)

    # Every client trains every silo round, so the silo cohort and its
    # training workspace are built once.
    silo = cfg.setting is Setting.CROSS_SILO
    if silo:
        cohort = prepare_clients(fed, np.arange(cfg.k), cfg.b)
        workspace = Workspace(model, cohort, cfg.e)
    records = []
    lr = cfg.lr
    try:
        for t in range(1, cfg.t_rounds + 1):
            tic = time.perf_counter()
            if not silo:
                sampled = sample_clients(cfg.k, cfg.subset_size, stream(cfg.seed, STREAM_SAMPLING, t))
                cohort, workspace = prepare_clients(fed, sampled, cfg.b), None
            subset = cohort.subset
            losses, deltas = train_clients(
                model,
                theta,
                cohort,
                stream_keys(cfg.seed, STREAM_BATCHING, t, subset),
                cfg.e,
                lr,
                cfg.weight_decay,
                round_index=t,
                rng=batching,
                workspace=workspace,
            )

            rec = learner.step(t, losses, subset)
            theta = theta - subset_weights(rec.decision, subset, t) @ deltas
            rec.duration = time.perf_counter() - tic
            records.append(rec)
            if t % cfg.lr_decay_step == 0:
                lr *= cfg.lr_decay
    except DivergenceError as err:
        err.partial = RunResult(
            cfg, records, theta=None, client_accuracy=None, runtime=None, train_sizes=fed.train_sizes
        )
        raise

    accuracy = evaluate_clients(model, theta, fed)
    return RunResult(cfg, records, theta, accuracy, time.perf_counter() - start_time, fed.train_sizes)
