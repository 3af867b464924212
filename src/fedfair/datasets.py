"""Synthetic heterogeneous client datasets, and the run's named random streams.

Clients hold Gaussian-cluster classification data. Heterogeneity has two
knobs: label skew, drawn per client from a Dirichlet prior over classes, and
a per-client feature shift. Features are standardized with global statistics
so all clients share one input scale. Generation is deterministic given the
master seed: every client draws from its own named counter-based stream.

Every random draw of a run comes from a named stream: a Philox generator
whose key is exactly the one ``np.random.SeedSequence(seed,
spawn_key=path).generate_state(2, np.uint64)`` gives. ``stream_keys``
takes the seed's hashed pool from numpy's ``SeedSequence(seed)`` and mixes
many paths into it in one vectorized pass. ``streams`` points one existing
Philox at the start of each of a sequence of them in turn, reusing one
state dict, and ``rekey`` at the start of one, so a run pays for neither a
SeedSequence nor a new bit generator per (round, client) stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import POSITIVE, ConfigError, at_least, require_valid

# Cluster geometry: unit noise with means one noise-std apart keeps the
# classification task genuinely hard, so weighting choices show up in
# per-client accuracy instead of saturating at 100%.
_CLASS_SEPARATION = 1.0
_NOISE_STD = 1.0
_TEST_FRACTION = 0.2

# numpy's Dirichlet normalizes one gamma draw per class (a sequential sum,
# then a multiply by its reciprocal) when the largest concentration is at
# least this; below it, it breaks sticks with beta draws.
_GAMMA_DIRICHLET = 0.1

# Rows per block of generate_federation's row-wise passes: enough to amortize
# each numpy call, few enough that a block's temporaries stay in cache.
ROW_BLOCK = 4096

# Stream labels for the seed tree; see stream().
STREAM_DATA = 0
STREAM_SAMPLING = 1
STREAM_BATCHING = 2
# The largest stream path entry; see stream_keys().
MAX_PATH_ENTRY = 2**32 - 1

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on a pool of
# four uint32 words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MIX_MULT_L, _MIX_MULT_R = np.uint32(_MIX_L), np.uint32(_MIX_R)


def _hash_const(i: int) -> int:
    """The entropy hash constant after ``i`` hashmix calls."""
    return _INIT_A * pow(_MULT_A, i, 1 << 32) & _MASK32


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """numpy's ``SeedSequence(seed).pool`` as ints, and the number of
    hashmix calls that made it: one per pool word, one per ordered pair of
    distinct pool words, and one per pool word for each seed word past the
    pool size. (With a spawn key numpy zero-pads the seed's words to the
    pool size, and hashing those zeros is what fills a short seed's pool
    anyway.)"""
    pool = np.random.SeedSequence(seed).pool  # raises for seed < 0
    words = -(-max(seed.bit_length(), 1) // 32)
    return tuple(pool.tolist()), _POOL_SIZE * (_POOL_SIZE + max(words - _POOL_SIZE, 0))


@functools.lru_cache(maxsize=64)
def _path_consts(calls: int, length: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The constants of the hashmix calls that mix ``length`` path words
    into the pool after ``calls``: as ints, where lane j of word i is
    xor-ed with entry 4 i + j and multiplied by entry 4 i + j + 1, and as
    those (xor, multiply) arrays, each (length, pool size)."""
    ints = tuple(_hash_const(calls + i) for i in range(length * _POOL_SIZE + 1))
    consts = np.array(ints, dtype=np.uint32)
    consts.flags.writeable = False  # cached: shared by every caller
    return ints, consts[:-1].reshape(length, _POOL_SIZE), consts[1:].reshape(length, _POOL_SIZE)


# generate_state(2, np.uint64) hashes the four pool words with these
# constants: word i is xor-ed with _OUT[i] and multiplied by _OUT[i + 1].
_OUT = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(5)], dtype=np.uint32)


def stream_keys(seed: int, *path) -> np.ndarray:
    """Philox keys of the named streams ``(seed, *path)``, as uint64 pairs.

    Each path entry is an integer or an integer array; the entries broadcast
    together, and the result has the broadcast shape plus a trailing 2, so
    ``stream_keys(seed, STREAM_BATCHING, t, clients)`` keys every client's
    stream of round t at once. Each key equals
    ``np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``.
    Entries must lie in [0, 2**32): numpy would spread a larger one over
    several words, which this emulation does not.
    """
    pool, calls = _seed_pool(int(seed))
    # The leading Python ints (a stream label, a round) are mixed into the
    # four pool lanes as Python ints, which costs less than numpy's per-call
    # overhead on four lanes; numpy mixes the rest. A bool is not of type int.
    lead = 0
    for w in path:
        if type(w) is not int:
            break
        if not 0 <= w <= MAX_PATH_ENTRY:
            raise ValueError("stream path entries must be integers in [0, 2**32)")
        lead += 1
    words = [np.asarray(p) for p in path[lead:]]
    for w in words:
        if w.dtype.kind not in "iu" or (w.size and (w.min() < 0 or w.max() > MAX_PATH_ENTRY)):
            raise ValueError("stream path entries must be integers in [0, 2**32)")
    ints, xor, mul = _path_consts(calls, len(path))
    lanes = list(pool)
    for i, w in enumerate(path[:lead]):
        for j in range(_POOL_SIZE):
            hashed = (w ^ ints[4 * i + j]) * ints[4 * i + j + 1] & _MASK32
            hashed = (hashed ^ hashed >> 16) * _MIX_R & _MASK32
            lane = lanes[j] * _MIX_L - hashed & _MASK32
            lanes[j] = lane ^ lane >> 16
    # Each array word is mixed in at its own shape: the pool takes an array
    # word's shape only when that word is mixed in, so a scalar word costs
    # four lanes, and words that do not broadcast together raise there.
    mixer = np.array(lanes, dtype=np.uint32)
    for w, x, m in zip(words, xor[lead:], mul[lead:]):
        hashed = w.astype(np.uint32)[..., None] ^ x
        hashed *= m
        hashed ^= hashed >> 16
        hashed *= _MIX_MULT_R
        mixer = mixer * _MIX_MULT_L - hashed
        mixer ^= mixer >> 16
    mixer ^= _OUT[:-1]
    mixer *= _OUT[1:]
    mixer ^= mixer >> 16
    keys = mixer[..., 1::2].astype(np.uint64) << np.uint64(32)
    keys |= mixer[..., 0::2]
    return keys


_FRESH = [0, 0, 0, 0]


def streams(rng: np.random.Generator, keys):
    """Yield ``rng`` once per Philox key of ``keys`` (rows of ``stream_keys``,
    best as lists of ints), each time pointed at the start of that key's
    stream.

    The counter, the output buffer and the buffered 32-bit half are all
    reset, so the draws made before the next yield equal those of a fresh
    ``Generator(Philox(key=key))`` whatever was drawn before. One state dict
    serves every key: only its key changes, and the Philox setter copies it.
    A run keeps its own generator: one rekeyed Generator is one live stream
    at a time.
    """
    philox = {"counter": _FRESH, "key": None}
    state = {
        "bit_generator": "Philox",
        "state": philox,
        "buffer": _FRESH,
        "buffer_pos": 4,  # the buffer's size: nothing buffered
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator = rng.bit_generator
    for key in keys:
        philox["key"] = key
        bit_generator.state = state
        yield rng


def shuffler(rng: np.random.Generator):
    """``rng.shuffle`` of a 1-d array, draw for draw, without its per-call
    overhead: the legacy ``RandomState.shuffle`` on ``rng``'s own bit
    generator. Both run numpy's ``random_interval`` Fisher-Yates on that
    bit generator, and leave it in the same state; the legacy one skips
    ``Generator.shuffle``'s axis handling, and NEP 19 freezes its stream.
    It shares the bit generator, so ``streams`` and ``rekey`` of ``rng``
    rekey it too. Building one costs about a microsecond: build it once
    per loop of streams, not once per stream."""
    return np.random.RandomState(rng.bit_generator).shuffle


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """Point ``rng``'s Philox at the start of the stream with Philox ``key``
    and return it: ``streams`` of one key."""
    return next(streams(rng, (key,)))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent named random stream derived from the master seed.

    Streams are keyed by an integer path, e.g. (STREAM_BATCHING, round,
    client), exactly as ``SeedSequence(seed, spawn_key=path)`` would key
    them (see ``stream_keys``). Philox is counter-based, so streams can be
    created in any order on any thread and still produce identical draws.
    """
    return np.random.Generator(np.random.Philox(key=stream_keys(seed, *path)))


@dataclass(frozen=True)
class SyntheticDataSpec:
    """Shape of the synthetic federation.

    samples_per_client_mean/spread give each client a sample count drawn
    uniformly from [mean - spread, mean + spread]. dirichlet_concentration
    controls label skew (small = near one-hot label distributions) and
    feature_shift the magnitude of each client's private input offset.
    """

    input_dim: int = field(default=10, metadata={"bound": at_least(1)})
    num_classes: int = field(default=5, metadata={"bound": at_least(2)})
    samples_per_client_mean: int = field(default=100, metadata={"bound": at_least(1)})
    samples_per_client_spread: int = field(default=0, metadata={"bound": at_least(0)})
    dirichlet_concentration: float = field(default=0.5, metadata={"bound": POSITIVE})
    feature_shift: float = field(default=0.0, metadata={"bound": at_least(0)})

    def __post_init__(self):
        require_valid(self, "data.")
        if self.samples_per_client_spread >= self.samples_per_client_mean:
            raise ConfigError("data.samples_per_client_spread", "must be < mean")

    @property
    def min_samples(self) -> int:
        return self.samples_per_client_mean - self.samples_per_client_spread


def column_std(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``x.std(axis=0)`` bit for bit, for a C-ordered (rows, columns) ``x``
    and its ``mu = x.mean(axis=0)``, without numpy's temporary of ``x - mu``
    the size of ``x``.

    numpy adds the squared deviations of several columns one row after
    another. Here they are squared ``ROW_BLOCK`` rows at a time into one
    scratch buffer whose first row carries the running sum, so each block's
    ``np.add.reduce`` continues that same row-after-row sum.
    """
    total, dim = x.shape
    if dim == 1:
        # numpy sums a single column as one vector, pairwise rather than row
        # after row, so only its own pass gives its bits; its temporary is
        # one column.
        return x.std(axis=0)
    scratch = np.zeros((min(ROW_BLOCK, total) + 1, dim))
    for start in range(0, total, ROW_BLOCK):
        block = x[start : start + ROW_BLOCK]
        squares = np.subtract(block, mu, out=scratch[1 : 1 + len(block)])
        squares *= squares
        scratch[0] = np.add.reduce(scratch[: 1 + len(block)], axis=0)
    return np.sqrt(scratch[0] / total)


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's ``rows[i].dot(rows[i])`` of a 2-d ``rows``, bit for bit,
    in one call: numpy multiplies each (1, dim) by (dim, 1) pair of a stacked
    matmul with the same ``cblas_ddot`` call. ``np.einsum`` and
    ``(rows * rows).sum(axis=1)`` add the squares in other orders."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).ravel()


@dataclass(frozen=True)
class Federation:
    """Every client's data as whole arrays: the training rows of client 0,
    then of client 1, and so on, and the test rows in the same client order.
    Client i has ``train_sizes[i]``/``test_sizes[i]`` of them and label mix
    ``class_probs[i]``."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    train_sizes: np.ndarray
    test_sizes: np.ndarray
    class_probs: np.ndarray


def generate_federation(spec: SyntheticDataSpec, k: int, seed: int, min_batch: int = 1) -> Federation:
    """Generate a deterministic ``Federation`` of ``k`` clients.

    ``min_batch`` is the local batch size the training loop will use; client
    sample counts below it are a configuration error.

    Client i draws, from stream (STREAM_DATA, 1 + i), its label mix (the
    bits of ``rng.dirichlet``), sample count, labels, shift direction and
    noise; the class means come from
    (STREAM_DATA, 0). The labels equal ``rng.choice(num_classes, size=n,
    p=label_mix)``: the client draws the n ``rng.random`` values that
    ``choice`` would, and ``choice``'s inverse-CDF lookup maps every row's
    value to a label after the draw loop, counted one class at a time. The
    shift directions' norms are taken after the loop, in one call
    (``squared_norms``). Features are standardized over all clients, with
    statistics swept ``ROW_BLOCK`` rows at a time (``column_std``), so no
    temporary as large as the rows is made. Each (client, class) group of
    size s >= 2 puts floor(0.2 s) of its rows in the test set: the rows that
    ``rng.permutation(s)``, drawn from (STREAM_DATA, 1 + i, 0), ranks first,
    found by shuffling the group's row indices in place with the same draws
    (``shuffler``). Every other row trains, so each client has at least one
    training row. Rows keep their drawn order within each client's train
    and test sets.

    The rows are drawn into one buffer and split in place, so ``x_train``
    and ``x_test`` are its leading and trailing rows (and ``y_train`` and
    ``y_test`` those of one label buffer). The label, offset and partition
    passes work ``ROW_BLOCK`` rows at a time.
    """
    if k < 1:
        raise ConfigError("k", "must be >= 1")
    if spec.min_samples < min_batch:
        raise ConfigError(
            "data.samples_per_client_mean",
            f"minimum client sample count {spec.min_samples} is below the batch size {min_batch}",
        )
    classes, dim = spec.num_classes, spec.input_dim
    rng = stream(seed, STREAM_DATA, 0)
    means = rng.standard_normal((classes, dim)) * _CLASS_SEPARATION

    ids = 1 + np.arange(k)
    lo, hi = spec.min_samples, spec.samples_per_client_mean + spec.samples_per_client_spread
    concentration = spec.dirichlet_concentration
    gamma_mix = concentration >= _GAMMA_DIRICHLET
    alpha = np.full(classes, concentration)
    probs = np.empty((k, classes))
    sizes = np.empty(k, dtype=np.intp)
    directions = np.zeros((k, dim))
    uniforms = np.empty(k * hi)
    x = np.empty((k * hi, dim))
    shifted = spec.feature_shift > 0
    dirichlet, standard_gamma, integers = rng.dirichlet, rng.standard_gamma, rng.integers
    uniform, standard_normal = rng.random, rng.standard_normal
    total = 0
    for i, _ in enumerate(streams(rng, stream_keys(seed, STREAM_DATA, ids).tolist())):
        if gamma_mix:
            standard_gamma(concentration, out=probs[i])  # normalized after the loop
        else:
            probs[i] = dirichlet(alpha)
        n = int(integers(lo, hi + 1))
        sizes[i] = n
        uniform(out=uniforms[total : total + n])
        if shifted:
            standard_normal(out=directions[i])
        standard_normal(out=x[total : total + n])
        total += n
    if gamma_mix:
        probs *= 1.0 / probs.cumsum(axis=1)[:, -1:]
    # Give back the rows no client drew; nothing else refers to the buffer.
    x.resize((total, dim), refcheck=False)
    uniforms.resize(total, refcheck=False)
    owner = np.repeat(np.arange(k), sizes)
    sq_norms = squared_norms(directions) if shifted else np.ones(k)

    # A row's label is how many of its client's normalized cumulative label
    # probabilities are at or below its uniform draw: choice's
    # cdf.searchsorted(u, side="right"). It is counted one class at a time;
    # the last class's cumulative probability, 1 (or NaN), is never at or
    # below a uniform in [0, 1), so it counts nothing. The features are
    # noise plus (class mean + client shift), standardized over all clients.
    # Finite statistics leave every standardized feature finite; a feature
    # shift near the float range overflows them.
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    below_by_class = cdf.T[:-1].copy()  # one contiguous row per class
    labels = np.zeros(total, dtype=np.int64)
    width = min(ROW_BLOCK, total)
    column, below = np.empty(width), np.empty(width, dtype=bool)
    offsets, client_shifts = np.empty((width, dim)), np.empty((width, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        shifts = spec.feature_shift * directions / np.sqrt(sq_norms)[:, None]
        for start in range(0, total, ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            block_owner, block_labels = owner[rows], labels[rows]
            n = block_owner.size
            for cumulative in below_by_class:
                np.take(cumulative, block_owner, out=column[:n], mode="clip")
                block_labels += np.less_equal(column[:n], uniforms[rows], out=below[:n])
            block = x[rows]
            block *= _NOISE_STD
            offset = np.take(means, block_labels, axis=0, out=offsets[:n], mode="clip")
            offset += np.take(shifts, block_owner, axis=0, out=client_shifts[:n], mode="clip")
            block += offset
        del uniforms, block_owner  # a view: it would keep all of owner alive
        del column, below, offsets, client_shifts, offset
        mu = x.mean(axis=0)
        sigma = column_std(x, mu)
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ConfigError("data.feature_shift", f"{spec.feature_shift!r} overflows the standardized features")
    sigma[sigma == 0.0] = 1.0
    x -= mu
    x /= sigma

    # Stratified split: rows grouped by (client, class), drawn order kept
    # within a group. Shuffling a group's row indices in place makes
    # rng.permutation's draws, so it puts them in the order of the group's
    # permutation, and the first floor(0.2 s) of them go to test.
    group = owner * classes + labels
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=k * classes)
    del owner, group
    ends = np.cumsum(counts)
    starts = ends - counts
    shuffled = np.flatnonzero(counts > 1)  # shuffling one row draws nothing
    client = shuffled // classes
    first = np.ones(shuffled.size, dtype=bool)  # a client's first shuffled group
    np.not_equal(client[1:], client[:-1], out=first[1:])
    keyed = streams(rng, stream_keys(seed, STREAM_DATA, 1 + client[first], 0).tolist())
    shuffle = shuffler(rng)
    for start, end, rekeyed in zip(starts[shuffled].tolist(), ends[shuffled].tolist(), first.tolist()):
        if rekeyed:
            next(keyed)
        shuffle(order[start:end])
    # Each group's test rows sit at its first n_test positions of order.
    n_test = np.floor(_TEST_FRACTION * counts).astype(np.intp)
    test_ends = np.cumsum(n_test)
    positions = np.repeat(starts - (test_ends - n_test), n_test)
    positions += np.arange(positions.size)
    is_test = np.zeros(total, dtype=bool)
    is_test[np.take(order, positions)] = True
    del order, positions
    test_sizes = n_test.reshape(k, classes).sum(axis=1)

    # Partition in place: train rows move forward, each to a position at or
    # before its own, so a block never overwrites a row still to be read;
    # then the test rows, copied out, go after them.
    x_test, y_test = np.compress(is_test, x, axis=0), np.compress(is_test, labels)
    n_train = 0
    for start in range(0, total, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        train = ~is_test[rows]
        kept = np.compress(train, x[rows], axis=0)  # a copy: boolean indexing is twice as slow
        n = kept.shape[0]
        x[n_train : n_train + n] = kept
        labels[n_train : n_train + n] = np.compress(train, labels[rows])
        n_train += n
    del is_test, kept, train
    x[n_train:] = x_test
    labels[n_train:] = y_test
    return Federation(x[:n_train], labels[:n_train], x[n_train:], labels[n_train:], sizes - test_sizes, test_sizes, probs)
