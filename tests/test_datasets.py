import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedfair import datasets
from fedfair.datasets import (
    STREAM_DATA,
    SyntheticDataSpec,
    generate_federation,
    rekey,
    shuffler,
    stream,
    stream_keys,
    streams,
)
from fedfair.errors import ConfigError
from packing import unpack


def seed_sequence_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(2, np.uint64)


def seed_sequence_stream(seed, *path):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def reference_generate_federation(spec, k, seed):
    """The per-client generator that ``generate_federation`` vectorizes: one
    SeedSequence-keyed stream per client, standardization over the pooled
    rows, then a per-class 80/20 split of each client. Returns one
    (x_train, y_train, x_test, y_test, class_probs) tuple per client."""
    means = seed_sequence_stream(seed, STREAM_DATA, 0).standard_normal((spec.num_classes, spec.input_dim))
    raw = []
    for i in range(k):
        g = seed_sequence_stream(seed, STREAM_DATA, 1 + i)
        probs = g.dirichlet(np.full(spec.num_classes, spec.dirichlet_concentration))
        lo, hi = spec.min_samples, spec.samples_per_client_mean + spec.samples_per_client_spread
        n = int(g.integers(lo, hi + 1))
        labels = g.choice(spec.num_classes, size=n, p=probs)
        shift = np.zeros(spec.input_dim)
        if spec.feature_shift > 0:
            direction = g.standard_normal(spec.input_dim)
            shift = spec.feature_shift * direction / np.linalg.norm(direction)
        x = means[labels] + shift + 1.0 * g.standard_normal((n, spec.input_dim))
        raw.append((probs, x, labels))

    pooled = np.concatenate([x for _, x, _ in raw])
    mu = pooled.mean(axis=0)
    sigma = pooled.std(axis=0)
    sigma[sigma == 0.0] = 1.0

    clients = []
    for i, (probs, x, y) in enumerate(raw):
        x = (x - mu) / sigma
        g = seed_sequence_stream(seed, STREAM_DATA, 1 + i, 0)
        train_idx, test_idx = [], []
        for c in range(spec.num_classes):
            idx = np.nonzero(y == c)[0]
            if idx.size == 0:
                continue
            idx = idx[g.permutation(idx.size)]
            n_test = int(np.floor(0.2 * idx.size)) if idx.size >= 2 else 0
            test_idx.extend(idx[:n_test])
            train_idx.extend(idx[n_test:])
        train_idx = np.sort(np.asarray(train_idx, dtype=int))
        test_idx = np.sort(np.asarray(test_idx, dtype=int))
        clients.append((x[train_idx], y[train_idx], x[test_idx], y[test_idx], probs))
    return clients


seeds = st.integers(0, 2**130 - 1)
path_entries = st.integers(0, 2**32 - 1)
paths = st.lists(path_entries, min_size=1, max_size=3)


@st.composite
def mixed_paths(draw):
    """Up to four path entries in any order, each a Python int, a numpy
    integer scalar, a 0-d array or an array of shape (n,), (m, 1) or (m, n),
    so that the arrays broadcast together."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    path = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["int", "scalar", "0-d", "array"]))
        dtype = draw(st.sampled_from([np.uint32, np.int64, np.uint64]))
        if kind == "array":
            shape = draw(st.sampled_from([(n,), (m, 1), (m, n)]))
            values = draw(st.lists(path_entries, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
            path.append(np.array(values, dtype=dtype).reshape(shape))
        else:
            value = draw(path_entries)
            path.append({"int": value, "scalar": dtype(value), "0-d": np.array(value, dtype=dtype)}[kind])
    return path


class TestStreamKeys:
    @settings(max_examples=300, deadline=None)
    @given(seeds, paths)
    @example(0, [0])
    @example(2**32 - 1, [2**32 - 1])
    @example(2**32, [0, 2**32 - 1])
    @example(2**128, [2, 2**32 - 1, 0])
    @example(2**130 - 1, [1, 2, 3])
    @example(2**200 + 1, [4, 0])
    def test_equal_seed_sequence_keys(self, seed, path):
        np.testing.assert_array_equal(stream_keys(seed, *path), seed_sequence_key(seed, path))

    @settings(max_examples=50, deadline=None)
    @given(seeds, st.lists(path_entries, min_size=1, max_size=20), st.sampled_from(["first", "middle", "last"]))
    def test_array_entry_keys_every_path(self, seed, ids, where):
        prefix, suffix = {"first": ((), (7, 0)), "middle": ((2,), (0,)), "last": ((2, 9), ())}[where]
        keys = stream_keys(seed, *prefix, np.array(ids, dtype=np.int64), *suffix)
        assert keys.shape == (len(ids), 2) and keys.dtype == np.uint64
        for key, i in zip(keys, ids):
            np.testing.assert_array_equal(key, seed_sequence_key(seed, (*prefix, i, *suffix)))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**130 - 1])
    def test_empty_path_keys_the_seed(self, seed):
        np.testing.assert_array_equal(stream_keys(seed), seed_sequence_key(seed, ()))

    def test_array_entries_broadcast_together(self):
        # Scalar words before, between and after array words of two shapes.
        rows, cols = np.arange(3)[:, None], np.array([5, 2**32 - 1])
        keys = stream_keys(9, 1, rows, 4, cols, 0)
        assert keys.shape == (3, 2, 2)
        for i in range(3):
            for j, c in enumerate(cols.tolist()):
                np.testing.assert_array_equal(keys[i, j], seed_sequence_key(9, (1, i, 4, c, 0)))
        with pytest.raises(ValueError):
            stream_keys(9, np.arange(3), 1, np.arange(2))

    @settings(max_examples=200, deadline=None)
    @given(seeds, mixed_paths())
    def test_entries_of_every_integer_kind_key_each_broadcast_path(self, seed, path):
        shape = np.broadcast_shapes(*(np.shape(w) for w in path))
        keys = stream_keys(seed, *path)
        assert keys.shape == (*shape, 2) and keys.dtype == np.uint64
        for index in np.ndindex(shape):
            words = [int(np.broadcast_to(w, shape)[index]) for w in path]
            np.testing.assert_array_equal(keys[index], seed_sequence_key(seed, words))

    @pytest.mark.parametrize(
        "entry",
        [True, np.bool_(True), np.array([True, False]), 1.0, np.float64(1.0), np.array([0.5]),
         -1, np.int64(-1), np.array([3, -1]), 2**32, 2**64, np.uint64(2**32), np.array([0, 2**32])],
        ids=["bool", "numpy-bool", "bool-array", "float", "numpy-float", "float-array",
             "negative", "numpy-negative", "negative-array", "2**32", "2**64", "numpy-2**32", "2**32-array"],
    )
    @pytest.mark.parametrize("prefix", [(), (2,), (2, np.arange(3))], ids=["first", "after-an-int", "after-an-array"])
    def test_entry_neither_an_integer_nor_in_one_word_raises(self, entry, prefix):
        # A bool is a Python int, but not a path entry.
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream_keys(0, *prefix, entry)

    @pytest.mark.parametrize("entry", [2**32, 2**64, -1])
    def test_entry_outside_one_word_raises(self, entry):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream_keys(0, 1, entry)
        with pytest.raises(ValueError):
            stream_keys(0, np.array([0, entry], dtype=object if entry >= 2**63 else np.int64))


class TestRekey:
    @staticmethod
    def draws(rng):
        return (rng.integers(0, 2**31, size=3, dtype=np.int32), rng.standard_normal(5), rng.permutation(9),
                rng.random(2))

    @staticmethod
    def assert_fresh(rng, seed, path):
        """The draws of ``rng`` equal those of the SeedSequence-keyed stream ``path``."""
        for a, b in zip(TestRekey.draws(rng), TestRekey.draws(seed_sequence_stream(seed, *path)), strict=True):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=50, deadline=None)
    @given(seeds, paths, paths, st.booleans())
    def test_rekeyed_draws_equal_a_fresh_generator(self, seed, previous, path, as_list):
        rng = stream(seed, *previous)
        # One 32-bit draw leaves the other half of a 64-bit output buffered.
        rng.integers(0, 100, dtype=np.int32)
        rng.standard_normal(3)
        key = stream_keys(seed, *path)
        # rekey is streams of one key, as an array or as a list of ints.
        assert rekey(rng, key.tolist() if as_list else key) is rng
        self.assert_fresh(rng, seed, path)

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.lists(paths, min_size=1, max_size=6), st.data())
    def test_streams_draw_as_fresh_generators_even_when_stopped_early(self, seed, path_list, data):
        # Paths of one length, so that one stream_keys call keys them all.
        path_list = [(path + [0, 0, 0])[:3] for path in path_list]
        keys = stream_keys(seed, *np.array(path_list).T).tolist()
        rng = stream(seed, 9)
        rng.integers(0, 100, dtype=np.int32)  # leaves a 32-bit half buffered
        stop = data.draw(st.integers(1, len(keys)))
        for j, got in enumerate(streams(rng, keys)):
            assert got is rng
            self.assert_fresh(rng, seed, path_list[j])
            if data.draw(st.booleans()):  # leaves a 32-bit half buffered for the next stream
                rng.integers(0, 100, dtype=np.int32)
            if j + 1 == stop:
                break
        # A loop stopped early leaves nothing behind for the next one.
        for got, path in zip(streams(rng, keys), path_list, strict=True):
            self.assert_fresh(got, seed, path)

    @settings(max_examples=30, deadline=None)
    @given(seeds, paths)
    def test_stream_equals_seed_sequence_stream(self, seed, path):
        for a, b in zip(self.draws(stream(seed, *path)), self.draws(seed_sequence_stream(seed, *path))):
            np.testing.assert_array_equal(a, b)


def philox_state(rng):
    """Every field of ``rng``'s Philox state, as plain values."""
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(), state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


# Fisher-Yates draws one bounded integer per position, below a power of two
# or just past one: the rejection masks and 32-bit halves change there.
shuffle_sizes = st.sampled_from([1, 2] + [2**j + d for j in range(2, 12) for d in (0, 1)])


class TestShuffler:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2), st.lists(shuffle_sizes, min_size=1, max_size=3),
           st.integers(0, 2**40))
    def test_draws_and_leaves_the_state_of_generator_shuffle(self, key, sizes, offset):
        rng = np.random.Generator(np.random.Philox(key=0))
        shuffle = shuffler(rng)  # built before the rekey, as a loop of streams does
        rekey(rng, key)
        expected = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))  # a list goes through float
        for n in sizes:
            got, want = offset + np.arange(n), offset + np.arange(n)
            shuffle(got)
            expected.shuffle(want)
            np.testing.assert_array_equal(got, want)
        assert philox_state(rng) == philox_state(expected)


# Small federations: few classes and rows, so spreads down to a mean minus
# spread of 1 give clients and classes with a single row.
specs = st.builds(
    lambda dim, classes, low, spread, alpha, shift: SyntheticDataSpec(
        input_dim=dim,
        num_classes=classes,
        samples_per_client_mean=low + spread,
        samples_per_client_spread=spread,
        dirichlet_concentration=alpha,
        feature_shift=shift,
    ),
    st.integers(1, 4),
    st.integers(2, 5),
    st.integers(1, 6),
    st.integers(0, 12),
    st.sampled_from([0.05, 0.5, 5.0]),
    st.sampled_from([0.0, 0.7, 3.0]),
)


# The data of the device-wide bench workload.
DEVICE_WIDE_DATA = SyntheticDataSpec(input_dim=10, num_classes=5, samples_per_client_mean=30,
                                     samples_per_client_spread=10, dirichlet_concentration=0.1, feature_shift=1.0)


class TestGenerateFederation:
    @settings(max_examples=80, deadline=None)
    @given(specs, st.integers(1, 30), st.integers(0, 2**40))
    def test_equals_per_client_reference(self, spec, k, seed):
        fed = generate_federation(spec, k, seed)
        got = unpack(fed)
        expected = reference_generate_federation(spec, k, seed)
        assert fed.train_sizes.size == fed.test_sizes.size == len(got) == len(expected) == k
        for client, (a, b) in enumerate(zip(got, expected)):
            for name, u, v in zip(("x_train", "y_train", "x_test", "y_test", "class_probs"), a, b):
                assert u.dtype == v.dtype and u.shape == v.shape, (client, name)
                assert u.tobytes() == v.tobytes(), (client, name)

    # numpy's Dirichlet normalizes gamma draws from a concentration of 0.1 up
    # and breaks sticks with beta draws below it; generate_federation draws
    # the gammas itself on the one side and calls rng.dirichlet on the other.
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 64),
        st.one_of(st.floats(1e-3, 0.1, exclude_max=True), st.floats(0.1, 1e5), st.sampled_from([0.1, 0.0999999])),
        st.integers(1, 6),
        st.integers(0, 2**32),
    )
    def test_label_mixes_equal_numpy_dirichlet(self, classes, concentration, k, seed):
        spec = SyntheticDataSpec(input_dim=1, num_classes=classes, samples_per_client_mean=4,
                                 samples_per_client_spread=3, dirichlet_concentration=concentration)
        fed = generate_federation(spec, k, seed)
        for i in range(k):
            rng = stream(seed, STREAM_DATA, 1 + i)
            assert fed.class_probs[i].tobytes() == rng.dirichlet(np.full(classes, concentration)).tobytes()
            # The draw after the label mix, the client's sample count, follows
            # from the same point of the stream.
            assert fed.train_sizes[i] + fed.test_sizes[i] == rng.integers(1, 8)

    @staticmethod
    def assert_equals_reference(fed, spec, k, seed):
        expected = reference_generate_federation(spec, k, seed)
        for a, b in zip(unpack(fed), expected, strict=True):
            for u, v in zip(a, b):
                assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()

    # One feature is the case where numpy's column statistics sum the rows
    # pairwise rather than one row after another. Labels are counted one
    # class at a time, and an unshifted federation skips the directions.
    @pytest.mark.parametrize("input_dim", [1, 2, 3, 10])
    @pytest.mark.parametrize("row_block", [1, 7, 64])
    def test_row_blocks_equal_the_reference(self, monkeypatch, input_dim, row_block):
        monkeypatch.setattr(datasets, "ROW_BLOCK", row_block)
        for classes, shift in itertools.product([2, 3, 12], [0.0, 0.7]):
            spec = SyntheticDataSpec(input_dim=input_dim, num_classes=classes, samples_per_client_mean=12,
                                     samples_per_client_spread=6, dirichlet_concentration=0.3, feature_shift=shift)
            self.assert_equals_reference(generate_federation(spec, 25, 11), spec, 25, 11)

    # Rows of magnitudes from 1e-150 to 1e150, and zero rows: a sum of the
    # squares in any order other than cblas_ddot's rounds differently.
    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 64])
    def test_squared_norms_equal_each_rows_dot(self, dim):
        rows = np.random.default_rng(dim).standard_normal((300, dim)) * np.logspace(-150, 150, 300)[:, None]
        rows[::50] = 0.0
        expected = np.array([row.dot(row) for row in rows])
        assert datasets.squared_norms(rows).tobytes() == expected.tobytes()

    # Columns of magnitudes from 1e-150 to 1e150, each ten of its standard
    # deviations from zero, so that a sum in any other order rounds
    # differently; a constant column has the standard deviation 0 that
    # standardization replaces by 1.
    @pytest.mark.parametrize("rows", [1, datasets.ROW_BLOCK, datasets.ROW_BLOCK + 1, 3 * datasets.ROW_BLOCK + 5])
    @pytest.mark.parametrize("dim", [1, 2, 7])
    @pytest.mark.parametrize("constant", [False, True])
    def test_column_std_equals_numpy_std(self, rows, dim, constant):
        rng = np.random.default_rng([rows, dim])
        x = (rng.standard_normal((rows, dim)) + 10.0) * np.logspace(-150, 150, dim)
        if constant:
            x = np.column_stack([x, np.full(rows, -2.5)])
        std = datasets.column_std(x, x.mean(axis=0))
        assert std.dtype == np.float64 and std.tobytes() == x.std(axis=0).tobytes()
        if constant:
            assert std[-1] == 0.0

    @pytest.mark.parametrize("input_dim", [1, 10])
    def test_federation_of_several_row_blocks_equals_the_reference(self, input_dim):
        spec = dataclasses.replace(DEVICE_WIDE_DATA, input_dim=input_dim)
        fed = generate_federation(spec, 400, 5)
        assert fed.train_sizes.sum() + fed.test_sizes.sum() > 2 * datasets.ROW_BLOCK
        self.assert_equals_reference(fed, spec, 400, 5)

    def test_generation_peak_stays_near_twice_the_federation(self):
        # The device-wide bench's data at k = 2,000. The peak holds the drawn
        # rows, the test rows copied out by the split and one row block,
        # about 1.7 times the federation. A temporary as large as the drawn
        # rows, such as the x - mean that x.std makes, takes it past 1.8 times.
        tracemalloc.start()
        try:
            fed = generate_federation(DEVICE_WIDE_DATA, 2000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in (fed.x_train, fed.y_train, fed.x_test, fed.y_test))
        assert peak < 1.8 * size

    @pytest.mark.parametrize("spread", [0, 1, 4])
    def test_every_client_trains_on_at_least_one_row(self, spread):
        spec = SyntheticDataSpec(
            input_dim=2, num_classes=4, samples_per_client_mean=1 + spread, samples_per_client_spread=spread
        )
        fed = generate_federation(spec, 200, seed=3)
        assert fed.train_sizes.min() >= 1
        if spread == 0:
            assert np.all(fed.train_sizes == 1) and np.all(fed.test_sizes == 0)

    @pytest.mark.parametrize("shift", [1e155, 1e308])
    def test_overflowing_feature_shift_is_a_config_error(self, shift):
        # Every feature would be NaN, and training would fail much later on a
        # "non-finite local loss".
        with pytest.raises(ConfigError, match="overflows the standardized features") as err:
            generate_federation(SyntheticDataSpec(feature_shift=shift), 4, 0)
        assert err.value.field == "data.feature_shift"

    def test_large_finite_feature_shift_still_generates(self):
        fed = generate_federation(SyntheticDataSpec(feature_shift=1e150), 4, 0)
        assert np.isfinite(fed.x_train).all() and np.isfinite(fed.x_test).all()
