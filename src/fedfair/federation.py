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

import functools
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import aggregators, decision, simplex
from .datasets import (
    MAX_PATH_ENTRY,
    STREAM_BATCHING,
    STREAM_SAMPLING,
    Federation,
    SyntheticDataSpec,
    generate_federation,
    rekey,
    shuffler,
    stream,  # noqa: F401 - no run calls it; bench/spans.py rebinds federation.stream
    stream_keys,
    streams,
)
from .errors import POSITIVE, STEP_SIZE, UNIT_FRACTION, at_least, require_valid, within
from .errors import ConfigError, DegenerateSubsetError, DivergenceError
from .transform import CdfSpec, ResponseRange, Setting, default_range, transform_responses

logger = logging.getLogger(__name__)

ADAPTIVE_SILO = "aaggff-s"
ADAPTIVE_DEVICE = "aaggff-d"
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class FederationConfig:
    """Full description of one simulated federation run."""

    # Client ids 1..k and round indices 1..t_rounds key random streams.
    k: int = field(metadata={"bound": within(2, MAX_PATH_ENTRY)})
    t_rounds: int = field(metadata={"bound": within(1, MAX_PATH_ENTRY)})
    method: str
    setting: Setting
    c: float = field(default=1.0, metadata={"bound": UNIT_FRACTION})
    e: int = field(default=1, metadata={"bound": at_least(1)})
    b: int = field(default=20, metadata={"bound": at_least(1)})
    lr: float = field(default=0.1, metadata={"bound": POSITIVE})
    lr_decay: float = field(default=1.0, metadata={"bound": UNIT_FRACTION})
    lr_decay_step: int = field(default=1, metadata={"bound": at_least(1)})
    weight_decay: float = field(default=0.0, metadata={"bound": at_least(0)})
    seed: int = field(default=0, metadata={"bound": at_least(0)})
    cdf: CdfSpec = field(default_factory=CdfSpec)
    data: SyntheticDataSpec = field(default_factory=SyntheticDataSpec)
    qfedavg_q: float = field(default=1.0, metadata={"bound": at_least(0)})
    term_lambda: float = field(default=1.0, metadata={"bound": STEP_SIZE})
    propfair_m: float = field(default=3.0, metadata={"bound": at_least(1)})
    afl_q: float = field(default=aggregators.DEFAULT_AFL_Q, metadata={"bound": at_least(0)})

    def __post_init__(self):
        try:
            object.__setattr__(self, "setting", Setting(self.setting))
        except ValueError:
            raise ConfigError("setting", f"must be one of {[s.value for s in Setting]}") from None
        require_valid(self)
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
        if self.method not in aggregators.STRATEGIES:
            raise ConfigError("method", f"must be one of {aggregators.STRATEGIES}")
        if self.method == ADAPTIVE_DEVICE and self.setting is not Setting.CROSS_DEVICE:
            raise ConfigError("method", f"{ADAPTIVE_DEVICE!r} requires setting=cross_device")
        if self.method == ADAPTIVE_SILO and self.setting is not Setting.CROSS_SILO:
            raise ConfigError("method", f"{ADAPTIVE_SILO!r} requires setting=cross_silo")
        if self.setting is Setting.CROSS_SILO and self.c != 1.0:
            raise ConfigError("c", "cross_silo runs use full participation; set c = 1")

    # The three below are computed once per config: a cross-device round
    # reads each of them.
    @functools.cached_property
    def subset_size(self) -> int:
        """Clients sampled per round: max(1, floor(c*k)) for c's decimal value; k in silo mode."""
        if self.setting is Setting.CROSS_SILO:
            return self.k
        return max(1, int(Fraction(repr(float(self.c))) * self.k))

    @functools.cached_property
    def inclusion_probability(self) -> float:
        """Exact per-client inclusion probability subset_size / k.

        Fixed-size sampling makes this the probability the estimators and
        step sizes must use; it differs from the configured c when floor(c*k)
        truncates.
        """
        return self.subset_size / self.k

    @functools.cached_property
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
    their pre-update ``losses``, their entries ``played_sampled`` of the
    decision played, their ``observed`` responses, the new ``decision`` (the
    record's one length-k array) and the played decision's ``decision_loss``
    on the round's ``scored_response``. ``cli.round_series`` rebuilds the
    run's records from its round log alone, every field but ``duration``,
    the wall-clock seconds the run sets and keeps out of the log."""

    round: int
    sampled: np.ndarray
    losses: np.ndarray
    played_sampled: np.ndarray
    observed: np.ndarray
    decision: np.ndarray
    decision_loss: float
    duration: float = 0.0


@dataclass
class RunResult:
    """A run's rounds and final model, from which ``cli`` writes every file
    of the run. ``train_sizes`` are the federation's training-set sizes,
    which set a baseline's prior. A diverged run has no ``theta``,
    ``client_accuracy`` or ``runtime``; one that ``cli.round_series`` replays
    from a round log has no ``theta`` or ``runtime``."""

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


class Cohort:
    """Clients of a federation, ``len(subset)`` at a time, ready for
    ``train_clients`` to train ``model`` on them in minibatches of
    ``batch_size`` for ``epochs`` passes: their data and step plan, and
    every array a round writes. The cohort is built filled with ``subset``,
    and ``fill`` swaps in another sample of as many clients. A run builds
    one: a silo run trains it on every client every round, and a
    cross-device run fills it with each round's sample.

    The plan is read-only outside ``fill``. ``x`` holds the clients'
    training rows in ``subset`` order, each with a trailing 1 for the bias,
    then one zero row that minibatch padding points at; client j's rows
    start at ``starts[j]``. ``y`` holds the rows' labels and ``onehot`` the
    same labels as a (classes, rows + 1) table of booleans, class-major like
    the logits, so its column for row r is True at r's label only, and the
    zero row's column is all False. ``picks``
    holds each training row's flat index into the (classes, rows) logits of
    the loss pass: the logit of the row's label. The step plan sorts clients
    by step count, most first (``order``), so the clients still training at
    step s are a prefix, ``active[s]`` of them. ``slots`` holds the rows of
    ``x`` that each sorted client's minibatch slots read before shuffling:
    its own rows in order, then the zero row. ``counts`` holds each sorted
    client's minibatch size at every step.

    Every other array is a buffer that ``train_clients`` writes before it
    reads, so a round allocates only the losses that the round log keeps;
    even the deltas are the cohort's. It allocates once, for the
    ``len(subset)`` clients with the most training rows; an array shaped by
    the sample's rows or steps is a view of the leading part of flat storage
    kept out of its attributes, laid out as in a cohort built for the
    sample alone. Allocated anew each round, the arrays would be trimmed
    off the top of glibc's brk heap and faulted back in. ``rng`` is the
    generator that a run samples with and ``train_clients`` rekeys per
    client, and ``shuffle_rows`` its ``datasets.shuffler``, built once with
    the cohort.
    """

    _PLAN = ("subset", "sizes", "starts", "x", "y", "onehot", "picks", "order", "slots", "counts", "active")

    def __init__(self, model: LogisticModel, fed: Federation, subset, batch_size: int, epochs: int):
        self.model, self.batch_size, self.epochs, self._fed = model, batch_size, epochs, fed
        m, train_sizes = len(subset), fed.train_sizes
        rows = int(np.sort(train_sizes)[train_sizes.size - m :].sum())
        slots = m * batch_size * -(-int(train_sizes.max()) // batch_size)
        classes, cols = model.num_classes, fed.x_train.shape[1] + 1
        self._storage = {
            "offsets": np.cumsum(train_sizes) - train_sizes,
            **{name: np.empty(m, dtype=np.intp) for name in ("subset", "sizes", "starts", "order")},
            "x": np.empty((rows + 1) * cols),
            "y": np.empty(rows + 1, dtype=np.intp),
            "onehot": np.empty(classes * (rows + 1), dtype=bool),
            "picks": np.empty(rows, dtype=np.intp),
            "slots": np.empty(slots, dtype=np.intp),
            "counts": np.empty(slots // batch_size, dtype=np.intp),
            "active": np.empty(slots // batch_size // m, dtype=np.intp),
            "rows": np.empty(epochs * slots, dtype=np.intp),
            "logits": np.empty(classes * rows),
            "reduced": np.empty(rows),
            "picked": np.empty(rows),
        }
        self.deltas = np.empty((m, model.dim))
        self.params = np.empty((m, classes, cols))
        self.batch = np.empty((m, batch_size), dtype=np.intp)
        self.batch_x = np.empty((m, batch_size, cols))
        # Flat: a step of the first a clients views the leading part as
        # (classes, a, b), class-major like the loss pass's logits.
        self.batch_onehot = np.empty(classes * m * batch_size, dtype=bool)
        self.probs = np.empty(classes * m * batch_size)
        self.batch_reduced = np.empty((m, batch_size))
        self.grad = np.empty((m, classes, cols))
        self.decay = np.empty((m, classes, cols))
        self.flat = np.empty((m, model.dim))
        # The weights of flat as (m, classes, input_dim): a view, since each
        # row's weights are contiguous.
        self.flat_weights = self.flat[:, : classes * (cols - 1)].reshape(m, classes, cols - 1)
        self.rng = np.random.Generator(np.random.Philox(key=0))
        self.shuffle_rows = shuffler(self.rng)
        self.fill(subset)

    def fill(self, subset) -> None:
        """Make the plan that of the clients ``subset``, as many as the
        cohort was built for, in place of the last one."""
        storage, fed, b = self._storage, self._fed, self.batch_size

        def lead(name, *shape):  # the leading part of a storage array, in this shape
            return storage[name][: math.prod(shape)].reshape(shape)

        m = storage["subset"].size
        if len(subset) != m:
            raise ValueError(f"a cohort of {m} clients cannot hold {len(subset)}")
        self.subset = lead("subset", m)
        self.subset[...] = subset
        self.sizes = sizes = lead("sizes", m)
        sizes[...] = fed.train_sizes[self.subset]
        self.starts = starts = np.cumsum(sizes, out=lead("starts", m))
        starts -= sizes
        total = int(starts[-1] + sizes[-1])
        index = np.arange(total)
        gather = np.repeat(storage["offsets"][self.subset] - starts, sizes)
        gather += index
        self.x = x = lead("x", total + 1, fed.x_train.shape[1] + 1)
        x[:total, :-1] = np.take(fed.x_train, gather, axis=0)  # faster than indexing
        x[:total, -1] = 1.0
        x[total] = 0.0
        self.y = y = lead("y", total + 1)
        y[:total] = fed.y_train[gather]
        y[total] = 0
        self.onehot = onehot = lead("onehot", self.model.num_classes, total + 1)
        onehot.fill(False)
        onehot[y[:total], index] = True
        self.picks = picks = np.multiply(y[:total], total, out=lead("picks", total))
        picks += index

        steps = -(-sizes // b)
        self.order = order = lead("order", m)
        order[...] = np.argsort(-steps, kind="stable")
        n_sorted = sizes[order]
        n_steps = int(steps[order[0]])
        slot = np.arange(n_steps * b)
        self.slots = slots = lead("slots", m, slot.size)
        np.add(starts[order][:, None], slot, out=slots)
        np.copyto(slots, total, where=slot >= n_sorted[:, None])
        self.counts = np.minimum(n_sorted[:, None] - slot[::b], b, out=lead("counts", m, n_steps))
        self.active = np.sum(steps[:, None] > np.arange(n_steps), axis=0, out=lead("active", n_steps))
        for name in self._PLAN:
            getattr(self, name).flags.writeable = False

        self.rows = lead("rows", self.epochs, m, slot.size)
        # Each sorted client's real slots of every epoch: what its shuffles permute.
        self.shuffles = list(zip(*([row[:n] for row, n in zip(epoch, n_sorted.tolist())] for epoch in self.rows)))
        self.logits = lead("logits", self.model.num_classes, total)
        self.reduced = lead("reduced", total)
        self.picked = lead("picked", total)


def train_clients(
    theta: np.ndarray,
    cohort: Cohort,
    keys,
    lr: float,
    weight_decay: float = 0.0,
    round_index: int | None = None,
):
    """Evaluate then locally train the received model on every client of
    ``cohort`` at once.

    Returns (losses, deltas) with one row per client of ``cohort.subset``
    (all of them in a silo round): the full-dataset mean loss at the received
    parameters, computed before any step, and received-minus-trained
    parameters after the cohort's epochs of minibatch SGD. Client
    ``subset[j]`` shuffles its rows with one permutation per epoch from the
    stream with Philox key ``keys[j]`` (a row of ``datasets.stream_keys``),
    drawn through the cohort's ``rng`` rekeyed, by its ``shuffle_rows``,
    whose draws are ``rng.shuffle``'s, and takes
    ceil(n_j / batch_size) steps per epoch, the last one on the remainder.
    Step s of every client that still has a minibatch s is one vectorized
    update, whose gradient subtracts the minibatch's rows of the cohort's
    ``onehot`` labels from the predicted probabilities; a padding slot's
    row there is all False and its features are zero, so it adds nothing.
    Weight decay enters the update only; the reported loss is the plain
    data loss.

    Every array but ``losses`` is the cohort's, so the ``deltas`` are valid
    until the next call on the same cohort overwrites them.

    A non-finite loss or trained parameter raises DivergenceError naming the
    first such client in ``subset`` order.
    """
    sizes, x, order, batch_size = cohort.sizes, cohort.x, cohort.order, cohort.batch_size
    losses = np.empty(sizes.size)  # the round log keeps them
    deltas = cohort.deltas
    total = x.shape[0] - 1

    # Every client starts from theta: each class's weights, then its bias.
    params = cohort.params
    w, bias = cohort.model._unpack(theta)
    params[:, :, :-1] = w
    params[:, :, -1] = bias
    logits = np.matmul(params[0], x[:total].T, out=cohort.logits)
    logits -= np.max(logits, axis=0, out=cohort.reduced)
    picked = np.take(logits, cohort.picks, out=cohort.picked, mode="clip")
    log_sum = np.log(np.sum(np.exp(logits, out=logits), axis=0, out=cohort.reduced), out=cohort.reduced)
    picked -= log_sum
    np.divide(np.add.reduceat(picked, cohort.starts), -sizes, out=losses)

    # Every epoch's shuffles of every client, in training order: shuffling a
    # client's rows in place makes the draws of rng.permutation. Streams are
    # independent, so drawing a client's epochs together changes no draw.
    # The rows of params are all theta, so they need no reordering.
    shuffle = cohort.shuffle_rows
    rows = cohort.rows
    rows[...] = cohort.slots
    for _, shuffles in zip(streams(cohort.rng, np.asarray(keys)[order].tolist()), cohort.shuffles):
        for rows_of_epoch in shuffles:
            shuffle(rows_of_epoch)

    for epoch_rows in rows:
        for s, a in enumerate(cohort.active.tolist()):
            # Contiguous, so np.take makes no copy of the indices.
            batch = cohort.batch[:a]
            np.copyto(batch, epoch_rows[:a, s * batch_size : (s + 1) * batch_size])
            _sgd_step(cohort, params[:a], batch, cohort.counts[:a, s], lr, weight_decay)

    # Back to the flat layout of theta: every class's weights, then the biases.
    flat = cohort.flat
    cohort.flat_weights[...] = params[:, :, :-1]
    flat[:, w.size :] = params[:, :, -1]
    deltas[order] = np.subtract(theta, flat, out=flat)
    bad = ~np.isfinite(losses) | ~np.isfinite(deltas).all(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        what = "local training diverged" if np.isfinite(losses[j]) else "non-finite local loss"
        client = int(cohort.subset[j])
        raise DivergenceError(f"{what} for client {client}", round_index=round_index, client_id=client)
    return losses, deltas


def _sgd_step(cohort: Cohort, params, batch, counts, lr: float, weight_decay: float) -> None:
    """One minibatch SGD step of the first ``a`` sorted clients of
    ``cohort``, in place on their ``params`` (a, classes, input_dim + 1).
    ``batch`` (a, b) holds the rows of the cohort's ``x`` (and columns of
    its ``onehot``) in each client's minibatch, padding slots pointing at
    the zero row, and ``counts`` (a,) each client's number of real rows.

    The probabilities and the gathered labels are class-major, (classes, a,
    b) views of the leading part of the cohort's flat buffers, so the
    softmax's max and sum run over whole contiguous (a, b) slabs, one class
    after another. Both matmuls see each client's (classes, b) block
    through a transposed view, so they make the same BLAS calls on the same
    values as a batch-major (a, classes, b) layout, whose sum over classes
    numpy also takes in order at b >= 2 (at b = 1 it sums 8 or more
    contiguous classes pairwise)."""
    a, b = batch.shape
    shape = (params.shape[1], a, b)
    size = math.prod(shape)
    xb = np.take(cohort.x, batch, axis=0, out=cohort.batch_x[:a], mode="clip")
    probs = cohort.probs[:size].reshape(shape)
    np.matmul(params, xb.transpose(0, 2, 1), out=probs.transpose(1, 0, 2))
    reduced = cohort.batch_reduced[:a]
    probs -= np.maximum.reduce(probs, axis=0, out=reduced)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0, out=reduced)
    onehot = cohort.batch_onehot[:size].reshape(shape)
    probs -= np.take(cohort.onehot, batch, axis=1, out=onehot, mode="clip")
    g = np.matmul(probs.transpose(1, 0, 2), xb, out=cohort.grad[:a])
    g /= counts[:, None, None]
    if weight_decay:
        g += np.multiply(weight_decay, params, out=cohort.decay[:a])
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
    from the stream with Philox ``key``: returns (loss_before, delta). No
    run calls it: the tests train single clients with it, and the bench's
    tracer (``bench/spans.py``) rebinds it by name."""
    cohort = Cohort(model, fed, [client], batch_size, epochs)
    losses, deltas = train_clients(theta, cohort, [key], lr, weight_decay, round_index)
    return float(losses[0]), deltas[0]


def sample_clients(k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of ``m`` of the ``k`` clients without replacement.

    Returned sorted so downstream reductions run in fixed index order.
    """
    return np.sort(rng.choice(k, size=m, replace=False))


def scored_response(cfg: FederationConfig, observed, subset) -> np.ndarray:
    """The response a round's decision is scored on, from the ``observed``
    responses of the clients ``subset``: the observed one (cross-silo) or
    its doubly robust estimate over all clients (cross-device)."""
    if cfg.setting is Setting.CROSS_SILO:
        return observed
    return decision.dr_estimate(observed, subset, cfg.inclusion_probability, cfg.k)


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
    a Learner, so the replayed ``RunResult`` holds every round record of the
    run bit for bit.
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
        observed = transform_responses(losses, cfg.response_range, cfg.cdf)
        response = scored_response(cfg, observed, subset)
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
            round_index, subset, losses, played[subset], observed, p, decision.decision_loss(played, response)
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
    sampled clients with subset-renormalized coefficients. A run builds one
    ``Cohort``: a silo run trains it on every client every round, and a
    cross-device run fills it with each round's sample. The sampling keys of
    every round come from one ``stream_keys`` call, and each round rekeys the
    cohort's generator with its own before training rekeys it per client.

    ``fed`` injects a pre-built ``Federation`` of k clients in place of the
    generated one; the baselines' sample sizes are its ``train_sizes``."""
    start_time = time.perf_counter()
    if fed is None:
        fed = generate_federation(cfg.data, cfg.k, cfg.seed, min_batch=cfg.b)
    elif fed.train_sizes.size != cfg.k:
        raise ConfigError("k", f"{fed.train_sizes.size} client datasets supplied for k={cfg.k}")
    model = LogisticModel(cfg.data.input_dim, cfg.data.num_classes)
    theta = model.init_params()

    learner = Learner(cfg, fed.train_sizes)

    # Every client of a silo run; a cross-device round refills it with its sample.
    silo, m = cfg.setting is Setting.CROSS_SILO, cfg.subset_size
    cohort = Cohort(model, fed, np.arange(m), cfg.b, cfg.e)
    subset = cohort.subset
    if not silo:
        sampling = stream_keys(cfg.seed, STREAM_SAMPLING, np.arange(1, cfg.t_rounds + 1))
    records = []
    lr = cfg.lr
    try:
        for t in range(1, cfg.t_rounds + 1):
            tic = time.perf_counter()
            if not silo:
                subset = sample_clients(cfg.k, m, rekey(cohort.rng, sampling[t - 1]))
                cohort.fill(subset)
            keys = stream_keys(cfg.seed, STREAM_BATCHING, t, subset)
            losses, deltas = train_clients(theta, cohort, keys, lr, cfg.weight_decay, round_index=t)

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
