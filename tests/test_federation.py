import dataclasses
import math
import platform
import resource
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from fedfair import aggregators, decision, federation, simplex
from fedfair.aggregators import FtrlState, ftrl_eg_step
from fedfair.datasets import (
    MAX_ENTRIES,
    STREAM_BATCHING,
    STREAM_SAMPLING,
    SyntheticDataSpec,
    generate_federation,
    rekey,
    stream,
    stream_keys,
)
from fedfair.errors import ConfigError, DivergenceError, InvalidInputError
from fedfair.federation import (
    Cohort,
    FederationConfig,
    Learner,
    LogisticModel,
    client_update,
    evaluate_clients,
    run_federation,
    sample_clients,
    subset_weights,
    train_clients,
)
from fedfair.transform import CdfSpec, transform_responses
from packing import pack, unpack

SMALL_DATA = SyntheticDataSpec(
    input_dim=4, num_classes=3, samples_per_client_mean=40, dirichlet_concentration=0.5
)


def small_config(**overrides):
    base = dict(
        k=4,
        t_rounds=5,
        method="fedavg",
        setting="cross_silo",
        b=10,
        lr=0.2,
        seed=11,
        data=SMALL_DATA,
    )
    base.update(overrides)
    return FederationConfig(**base)


def identical_clients(k, seed=3):
    """A federation of ``k`` copies of one generated client, and that
    client's training rows."""
    template = unpack(generate_federation(SMALL_DATA, 1, seed))
    return pack(template * k), template[0][0], template[0][1]


def records_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for f in ("sampled", "losses", "decision"):
            if not np.array_equal(getattr(ra, f), getattr(rb, f)):
                return False
        if ra.decision_loss != rb.decision_loss or ra.round != rb.round:
            return False
    return True


class TestGenerateFederation:
    def test_same_seed_bit_identical(self):
        a = generate_federation(SMALL_DATA, 5, 123)
        b = generate_federation(SMALL_DATA, 5, 123)
        for name in ("x_train", "y_train", "x_test", "y_test", "train_sizes", "test_sizes", "class_probs"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seeds_differ(self):
        a = generate_federation(SMALL_DATA, 3, 1)
        b = generate_federation(SMALL_DATA, 3, 2)
        assert not np.array_equal(unpack(a)[0][0], unpack(b)[0][0])

    def test_huge_concentration_near_uniform_labels(self):
        spec = dataclasses.replace(SMALL_DATA, dirichlet_concentration=1e6)
        for seed in range(10):
            for probs in generate_federation(spec, 8, seed).class_probs:
                tv = 0.5 * np.abs(probs - 1.0 / spec.num_classes).sum()
                assert tv <= 0.05

    def test_tiny_concentration_label_skew(self):
        # Thresholds frozen from a 100-seed Monte Carlo of this generator:
        # every seed had >= 6 of 10 clients dominated by one label at 80%
        # mass, and at least 90% of seeds had >= 8 such clients.
        spec = dataclasses.replace(SMALL_DATA, num_classes=5, dirichlet_concentration=0.01)
        dominated = []
        for seed in range(100):
            probs = generate_federation(spec, 10, seed).class_probs
            dominated.append(int(np.sum(probs.max(axis=1) >= 0.8)))
        dominated = np.array(dominated)
        assert dominated.min() >= 6
        assert np.mean(dominated >= 8) >= 0.9

    def test_split_is_80_20ish_and_disjoint(self):
        fed = generate_federation(SMALL_DATA, 4, 9)
        for n_train, n_test in zip(fed.train_sizes, fed.test_sizes):
            n = n_train + n_test
            assert n_test >= 1
            assert n_train >= 0.7 * n

    def test_sample_count_below_batch_rejected(self):
        with pytest.raises(ConfigError):
            generate_federation(SMALL_DATA, 3, 0, min_batch=100)

    def test_feature_shift_separates_clients(self):
        spec = dataclasses.replace(SMALL_DATA, feature_shift=5.0)
        centers = [x.mean(axis=0) for x, *_ in unpack(generate_federation(spec, 3, 7))]
        assert np.linalg.norm(centers[0] - centers[1]) > 0.5


def _log_probs(model, theta, x):
    w, b = model._unpack(theta)
    logits = x @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def reference_loss(model, theta, x, y) -> float:
    """Mean cross-entropy of ``model`` at ``theta`` over (x, y)."""
    return -float(_log_probs(model, theta, x)[np.arange(y.size), y].mean())


def reference_grad(model, theta, x, y, weight_decay=0.0) -> np.ndarray:
    """Gradient of ``reference_loss`` plus the weight-decay term, in the flat layout."""
    probs = np.exp(_log_probs(model, theta, x))
    probs[np.arange(y.size), y] -= 1.0
    g = np.concatenate([(probs.T @ x / y.size).ravel(), probs.mean(axis=0)])
    if weight_decay:
        g += weight_decay * theta
    return g


class TestClientUpdate:
    def setup_method(self):
        self.fed = generate_federation(SMALL_DATA, 2, 21)
        self.clients = unpack(self.fed)
        self.model = LogisticModel(SMALL_DATA.input_dim, SMALL_DATA.num_classes)

    def test_zero_lr_no_movement(self):
        x, y, *_ = self.clients[0]
        theta = self.model.init_params() + 0.1
        loss, delta = client_update(self.model, theta, self.fed, 0, 1, 10, 0.0, stream_keys(0, 2, 1, 0))
        assert loss == pytest.approx(reference_loss(self.model, theta, x, y))
        np.testing.assert_array_equal(delta, np.zeros_like(theta))

    def test_full_batch_step_matches_analytic_gradient(self):
        # e=1 and batch covering the dataset: delta must equal lr * gradient
        # of the mean cross-entropy, reproduced here from its closed form.
        x, y, *_ = self.clients[0]
        theta = np.linspace(-0.2, 0.3, self.model.dim)
        lr = 0.37
        _, delta = client_update(self.model, theta, self.fed, 0, 1, y.size, lr, stream_keys(0, 2, 1, 0))

        w = theta[: 3 * 4].reshape(3, 4)
        b = theta[3 * 4 :]
        logits = x @ w.T + b
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        probs[np.arange(y.size), y] -= 1.0
        grad = np.concatenate([(probs.T @ x / y.size).ravel(), probs.mean(axis=0)])
        np.testing.assert_allclose(delta, lr * grad, atol=1e-9)

    def test_stationary_at_regularized_optimum(self):
        x, y, *_ = self.clients[1]
        wd = 0.05

        def objective(theta):
            return reference_loss(self.model, theta, x, y) + 0.5 * wd * theta @ theta

        def gradient(theta):
            return reference_grad(self.model, theta, x, y, weight_decay=wd)

        res = minimize(objective, self.model.init_params(), jac=gradient, method="BFGS",
                       options={"gtol": 1e-10, "maxiter": 500})
        assert np.linalg.norm(gradient(res.x)) <= 1e-6
        lr = 0.5
        _, delta = client_update(
            self.model, res.x, self.fed, 1, 1, y.size, lr, stream_keys(0, 2, 1, 0), weight_decay=wd
        )
        assert np.linalg.norm(delta) <= lr * 1e-6

    def test_multiple_epochs_take_more_steps(self):
        theta = self.model.init_params()
        _, d1 = client_update(self.model, theta, self.fed, 0, 1, 10, 0.1, stream_keys(0, 2, 1, 0))
        _, d4 = client_update(self.model, theta, self.fed, 0, 4, 10, 0.1, stream_keys(0, 2, 1, 0))
        assert np.linalg.norm(d4) > np.linalg.norm(d1)


def reference_update(model, theta, x, y, client, epochs, batch_size, lr, rng, weight_decay=0.0):
    """Evaluate-then-train of client ``client``, whose training rows are
    (x, y), as a plain per-client SGD loop."""
    loss_before = reference_loss(model, theta, x, y)
    if not np.isfinite(loss_before):
        raise DivergenceError(f"non-finite local loss for client {client}", client_id=client)
    th = theta.copy()
    for _ in range(epochs):
        order = rng.permutation(y.size)
        for start in range(0, y.size, batch_size):
            idx = order[start : start + batch_size]
            th -= lr * reference_grad(model, th, x[idx], y[idx], weight_decay)
    if not np.all(np.isfinite(th)):
        raise DivergenceError(f"local training diverged for client {client}", client_id=client)
    return loss_before, theta - th


def ragged_clients(data_seed, sizes, scales=None):
    """A federation with the given training sizes; ``scales`` multiplies features."""
    g = np.random.default_rng(data_seed)
    clients = []
    for i, n in enumerate(sizes):
        x = g.standard_normal((n, SMALL_DATA.input_dim)) * (1.0 if scales is None else scales[i])
        y = g.integers(0, SMALL_DATA.num_classes, size=n)
        clients.append((x, y, x[:0], y[:0], np.full(3, 1 / 3)))
    return pack(clients)


# A training round: ragged client sizes, a batch size that need not divide
# them, 1-3 epochs, weight decay on or off, and a subset in any order.
round_cases = st.tuples(
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
    st.integers(1, 12),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([0.0, 0.05]),
    st.integers(0, 2**16),
    st.randoms(use_true_random=False),
)


class TestTrainClients:
    model = LogisticModel(SMALL_DATA.input_dim, SMALL_DATA.num_classes)

    def subset_and_theta(self, sizes, seed, shuffle):
        subset = list(range(len(sizes)))
        shuffle.shuffle(subset)
        subset = subset[: shuffle.randint(1, len(subset))]
        theta = 0.1 * np.random.default_rng(seed).standard_normal(self.model.dim)
        return subset, theta

    @settings(max_examples=60, deadline=None)
    @given(round_cases)
    def test_batched_matches_per_client_calls(self, case):
        sizes, b, e, wd, seed, shuffle = case
        fed = ragged_clients(seed, sizes)
        clients = unpack(fed)
        subset, theta = self.subset_and_theta(sizes, seed, shuffle)
        lr = 0.3

        cohort = Cohort(self.model, fed, subset, b, e)
        losses, deltas = train_clients(theta, cohort, stream_keys(seed, 2, 1, subset), lr, wd)
        assert losses.shape == (len(subset),) and deltas.shape == (len(subset), self.model.dim)
        for row, i in enumerate(subset):
            loss, delta = client_update(self.model, theta, fed, i, e, b, lr, stream_keys(seed, 2, 1, i), wd)
            x, y, *_ = clients[i]
            ref_loss, ref_delta = reference_update(self.model, theta, x, y, i, e, b, lr, stream(seed, 2, 1, i), wd)
            np.testing.assert_allclose(losses[row], loss, rtol=0, atol=1e-12)
            np.testing.assert_allclose(deltas[row], delta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(loss, ref_loss, rtol=0, atol=1e-12)
            np.testing.assert_allclose(delta, ref_delta, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(round_cases, st.data())
    def test_divergence_names_first_client_in_subset_order(self, case, data):
        # A NaN feature makes the pre-update loss non-finite; huge features
        # keep it finite but overflow the parameters once a client takes a
        # second step.
        sizes, b, e, wd, seed, shuffle = case
        scales = data.draw(st.lists(st.sampled_from([1.0, np.nan, 1e200]),
                                    min_size=len(sizes), max_size=len(sizes)))
        fed = ragged_clients(seed, sizes, scales)
        clients = unpack(fed)
        subset, theta = self.subset_and_theta(sizes, seed, shuffle)

        keys = stream_keys(seed, 2, 1, subset)

        with np.errstate(all="ignore"):
            expected = None
            for i in subset:
                x, y, *_ = clients[i]
                try:
                    reference_update(self.model, theta, x, y, i, e, b, 0.3, stream(seed, 2, 1, i), wd)
                except DivergenceError as err:
                    expected = err
                    break
            if expected is None:
                train_clients(theta, Cohort(self.model, fed, subset, b, e), keys, 0.3, wd)
                return
            with pytest.raises(DivergenceError) as got:
                train_clients(theta, Cohort(self.model, fed, subset, b, e), keys, 0.3, wd, round_index=7)
        assert got.value.client_id == expected.client_id
        assert str(got.value) == str(expected)
        assert got.value.round_index == 7

    def test_shuffling_rows_in_place_draws_as_permutation(self):
        # train_clients shuffles offset + arange(n) in place, through the
        # cohort's shuffler, where the per-client loop took offset +
        # rng.permutation(n); numpy's permutation shuffles an arange, so the
        # two agree draw for draw, epoch after epoch from one stream.
        offsets = np.random.default_rng(1).integers(0, 10**6, size=71)
        keys = stream_keys(3, 2, 1, np.arange(71)).tolist()
        cohort = Cohort(self.model, generate_federation(SMALL_DATA, 2, 0), [0], 4, 1)
        permuted = np.random.Generator(np.random.Philox(key=0))
        for n, (offset, key) in enumerate(zip(offsets.tolist(), keys)):
            rekey(cohort.rng, key)
            rekey(permuted, key)
            for _ in range(3):
                rows = offset + np.arange(n)
                cohort.shuffle_rows(rows)
                assert np.array_equal(rows, offset + permuted.permutation(n)), n


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the pages glibc trims off its brk heap and faults back in",
)
class TestTrainingPageFaults:
    def test_silo_training_rounds_fault_no_pages_back_in(self):
        # The silo-wide bench shape: K = 500 clients of 25 +- 5 samples, most of
        # them one minibatch of 20 a round. Per-round arrays of 0.1-0.9 MB, freed
        # at the top of the brk heap, were trimmed off it and faulted back in:
        # about 780 minor faults a call. A call on a cohort frees none.
        spec = SyntheticDataSpec(
            input_dim=10, num_classes=5, samples_per_client_mean=25, samples_per_client_spread=5,
            dirichlet_concentration=0.1, feature_shift=1.0,
        )
        model = LogisticModel(spec.input_dim, spec.num_classes)
        cohort = Cohort(model, generate_federation(spec, 500, 0, min_batch=20), np.arange(500), 20, 1)
        theta, faults = model.init_params(), []
        for t in range(1, 6):
            keys = stream_keys(0, STREAM_BATCHING, t, cohort.subset)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            losses, deltas = train_clients(theta, cohort, keys, 0.3)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            theta = theta - deltas.mean(axis=0)
        assert max(faults[1:]) <= 32, faults

    def test_device_training_rounds_fault_no_pages_back_in(self):
        # The device-wide bench shape: 50 of K = 10,000 clients of 30 +- 10
        # samples a round. A run refills one cohort with each round's sample,
        # so a round frees nothing for glibc to trim off the heap.
        spec = SyntheticDataSpec(
            input_dim=10, num_classes=5, samples_per_client_mean=30, samples_per_client_spread=10,
            dirichlet_concentration=0.1, feature_shift=1.0,
        )
        model = LogisticModel(spec.input_dim, spec.num_classes)
        cohort = Cohort(model, generate_federation(spec, 10_000, 0, min_batch=20), np.arange(50), 20, 1)
        theta, faults = model.init_params(), []
        for t in range(1, 7):
            sample = sample_clients(10_000, 50, rekey(cohort.rng, stream_keys(0, STREAM_SAMPLING, t)))
            keys = stream_keys(0, STREAM_BATCHING, t, sample)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cohort.fill(sample)
            losses, deltas = train_clients(theta, cohort, keys, 0.3)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            theta = theta - deltas.mean(axis=0)
        assert max(faults[1:]) <= 32, faults


def batch_major_step(x, onehot_rows, params, batch, counts, lr, weight_decay):
    """One minibatch step as a batch-major layout takes it, in place on
    ``params``: probabilities (a, classes, b), softmax reductions over the
    middle axis, and labels gathered as (a, b, classes) from ``onehot_rows``,
    one row of booleans per row of ``x``."""
    xb = np.take(x, batch, axis=0, mode="clip")
    probs = np.matmul(params, xb.transpose(0, 2, 1))
    probs -= np.max(probs, axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=1, keepdims=True)
    probs -= np.take(onehot_rows, batch, axis=0, mode="clip").transpose(0, 2, 1)
    g = np.matmul(probs, xb)
    g /= counts[:, None, None]
    if weight_decay:
        g += weight_decay * params
    g *= lr
    params -= g


class TestSgdStep:
    # b >= 2: with one slot per minibatch the batch-major probabilities
    # have their classes contiguous, and numpy sums 8 or more contiguous
    # values pairwise; the class-major step sums one class after another,
    # in the order the batch-major one takes at every b >= 2.
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(1, 10),
        st.lists(st.integers(1, 30), min_size=1, max_size=6),
        st.integers(2, 12),
        st.sampled_from([0.0, 0.05]),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_class_major_step_equals_batch_major_bit_for_bit(self, classes, dim, sizes, b, wd, seed, data):
        g = np.random.default_rng(seed)
        clients = []
        for n in sizes:
            x, y = g.standard_normal((n, dim)), g.integers(0, classes, size=n)
            clients.append((x, y, x[:0], y[:0], np.full(classes, 1 / classes)))
        model = LogisticModel(dim, classes)
        cohort = Cohort(model, pack(clients), range(len(sizes)), b, 1)
        # A step s of the active prefix, or of fewer clients still; a ragged
        # client's last minibatch has padding slots.
        s = data.draw(st.integers(0, cohort.active.size - 1))
        a = data.draw(st.integers(1, int(cohort.active[s])))
        batch = np.array(cohort.slots[:a, s * b : (s + 1) * b])
        for row in batch:
            g.shuffle(row)
        counts = cohort.counts[:a, s]
        params = g.standard_normal((a, classes, dim + 1))
        expected = params.copy()
        federation._sgd_step(cohort, params, batch, counts, 0.3, wd)
        batch_major_step(cohort.x, np.ascontiguousarray(cohort.onehot.T), expected, batch, counts, 0.3, wd)
        np.testing.assert_array_equal(params, expected)


# The read-only arrays of a cohort: the clients' data and step plan.
PLAN = {"subset", "sizes", "starts", "x", "picks", "order", "slots", "counts", "active", "onehot"}


def spoil(cohort):
    """Check that every plan array of ``cohort`` is read-only, then overwrite
    every other array: NaN in the float ones, -1 (a valid index once
    clipped) in the integer ones."""
    arrays = {name: value for name, value in vars(cohort).items() if isinstance(value, np.ndarray)}
    assert PLAN <= set(arrays)
    for name, value in arrays.items():
        assert value.flags.writeable == (name not in PLAN), name
        if value.flags.writeable:
            value.fill(np.nan if value.dtype.kind == "f" else -1)


class TestPrepareClients:
    """Clients prepared for training: a ``Cohort``."""

    model = LogisticModel(SMALL_DATA.input_dim, SMALL_DATA.num_classes)
    fed = generate_federation(SMALL_DATA, 6, 4, min_batch=10)

    @settings(max_examples=40, deadline=None)
    @given(round_cases)
    def test_rounds_read_nothing_a_previous_round_left(self, case):
        # One cohort trains its sample twice, then is refilled with samples
        # of as many clients whose rows go up to the most it can hold and
        # back down. spoil() checks the plan is read-only after each fill,
        # and each round must match a fresh cohort of its sample.
        sizes, b, e, wd, seed, shuffle = case
        fed = ragged_clients(seed, sizes)
        subset, theta = TestTrainClients.subset_and_theta(self, sizes, seed, shuffle)
        by_rows = sorted(range(len(sizes)), key=sizes.__getitem__)
        fewest, most = by_rows[: len(subset)], by_rows[len(sizes) - len(subset) :]
        reused = Cohort(self.model, fed, subset, b, e)
        for t, sample in enumerate([subset, subset, most, subset, fewest], start=1):
            if t > 1:
                reused.fill(sample)
            spoil(reused)
            fresh = Cohort(self.model, fed, sample, b, e)
            for name in PLAN:
                assert np.array_equal(getattr(reused, name), getattr(fresh, name)), name
            keys = stream_keys(seed, 2, t, sample)
            (la, da), (lb, db) = (
                train_clients(theta, cohort, keys, 0.3, wd, round_index=t) for cohort in (reused, fresh)
            )
            assert la.tobytes() == lb.tobytes() and da.tobytes() == db.tobytes()
            theta = theta - da.mean(axis=0)

    def test_reused_cohort_trains_as_a_fresh_one_each_round(self):
        subset = np.arange(6)
        reused = Cohort(self.model, self.fed, subset, 10, 2)
        thetas = [self.model.init_params()] * 2
        for t in range(1, 4):
            keys = stream_keys(4, 2, t, subset)
            cohorts = [reused, Cohort(self.model, self.fed, subset, 10, 2)]
            (la, da), (lb, db) = (
                train_clients(theta, cohort, keys, 0.3, 0.01, round_index=t)
                for theta, cohort in zip(thetas, cohorts)
            )
            assert np.array_equal(la, lb) and np.array_equal(da, db)
            thetas = [theta - d.mean(axis=0) for theta, d in zip(thetas, (da, db))]

    def test_every_plan_array_is_read_only(self):
        subset = np.array([3, 0, 5])
        cohort = Cohort(self.model, self.fed, subset, 10, 1)
        for name in PLAN:
            with pytest.raises(ValueError):
                getattr(cohort, name)[...] = 0
        assert subset.flags.writeable

    def test_fill_takes_a_sample_of_the_cohort_size(self):
        cohort = Cohort(self.model, self.fed, [3, 0, 5], 10, 1)
        with pytest.raises(ValueError, match="cohort of 3 clients"):
            cohort.fill([1])

    @pytest.mark.parametrize(
        "overrides",
        [dict(method="aaggff-s"), dict(method="aaggff-d", setting="cross_device", c=0.5)],
        ids=["silo-once", "device-once"],
    )
    def test_run_prepares_a_silo_cohort_once(self, monkeypatch, overrides):
        built = []

        class Counted(Cohort):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(federation, "Cohort", Counted)
        run_federation(small_config(**overrides))
        assert len(built) == 1


class TestSampleClients:
    def test_full_participation(self):
        got = sample_clients(6, 6, stream(0, 1, 1))
        np.testing.assert_array_equal(got, np.arange(6))

    # The cohort size is the config's subset_size, max(1, floor(c*k)).
    def test_reference_cohort_size(self):
        cfg = FederationConfig(k=817, t_rounds=1, method="aaggff-d", setting="cross_device", c=0.00612)
        assert cfg.subset_size == 5
        assert sample_clients(cfg.k, cfg.subset_size, stream(0, 1, 1)).size == 5

    # Floored on the decimal c: in binary floating point c * k lands just
    # below the integer in each of these cases.
    @pytest.mark.parametrize("c, k, m", [(0.29, 100, 29), (0.57, 100, 57), (0.58, 50, 29), (0.145, 200, 29)])
    def test_cohort_size_floors_the_decimal_product(self, c, k, m):
        cfg = FederationConfig(k=k, t_rounds=1, method="aaggff-d", setting="cross_device", c=c)
        assert cfg.subset_size == m
        assert cfg.inclusion_probability == m / k

    def test_floor_clamps_to_one(self):
        cfg = FederationConfig(k=10, t_rounds=1, method="aaggff-d", setting="cross_device", c=0.05)
        assert cfg.subset_size == 1
        assert sample_clients(cfg.k, cfg.subset_size, stream(0, 1, 1)).size == 1

    def test_without_replacement_and_sorted(self):
        got = sample_clients(20, 10, stream(0, 1, 1))
        assert got.size == 10
        assert np.unique(got).size == 10
        assert np.all(np.diff(got) > 0)

    def test_deterministic_per_stream(self):
        a = sample_clients(50, 10, stream(7, 1, 3))
        b = sample_clients(50, 10, stream(7, 1, 3))
        np.testing.assert_array_equal(a, b)


class TestEvaluateClients:
    def test_clients_without_test_rows_score_on_training_rows(self, caplog):
        # Clients of 1-9 rows over two classes: a class group needs 5 rows
        # before one goes to test, so some clients hold test rows and some
        # are scored on their training rows.
        spec = SyntheticDataSpec(input_dim=3, num_classes=2, samples_per_client_mean=5,
                                 samples_per_client_spread=4, dirichlet_concentration=0.3)
        fed = generate_federation(spec, 40, seed=8)
        empty = np.flatnonzero(fed.test_sizes == 0)
        assert 0 < empty.size < 40
        model = LogisticModel(spec.input_dim, spec.num_classes)
        theta = np.random.default_rng(0).standard_normal(model.dim)
        with caplog.at_level("WARNING", logger="fedfair.federation"):
            got = evaluate_clients(model, theta, fed)

        expected = []
        for x_train, y_train, x_test, y_test, _ in unpack(fed):
            x, y = (x_test, y_test) if y_test.size else (x_train, y_train)
            expected.append(np.mean(model.predict(theta, x) == y))
        assert np.array_equal(got, np.array(expected))
        for i in empty:
            assert f"client {i} has no held-out samples" in caplog.text

    def test_federation_without_test_rows_scores_every_client_on_training_rows(self):
        # Four rows a client: no class group reaches the five rows that send
        # one to test, so the federation holds no test rows at all.
        spec = SyntheticDataSpec(input_dim=3, num_classes=2, samples_per_client_mean=4)
        fed = generate_federation(spec, 3, seed=0)
        assert fed.x_test.shape == (0, 3) and not fed.test_sizes.any()
        model = LogisticModel(spec.input_dim, spec.num_classes)
        theta = np.random.default_rng(1).standard_normal(model.dim)
        got = evaluate_clients(model, theta, fed)

        expected = [np.mean(model.predict(theta, x) == y) for x, y, *_ in unpack(fed)]
        assert np.array_equal(got, np.array(expected))


class TestSubsetWeights:
    def test_zero_mass_subset_falls_back_to_uniform(self, caplog):
        with caplog.at_level("WARNING", logger="fedfair.federation"):
            got = subset_weights(np.array([0.5, 0.5, 0.0, 0.0, 0.0]), np.array([2, 3, 4]), round_index=7)
        np.testing.assert_array_equal(got, np.full(3, 1 / 3))
        assert "round 7: zero decision mass on the sampled set; using uniform" in caplog.text


# Losses at the edges of the float range, and mixes of them.
EXTREME_LOSSES = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7976931348623157e308])


@st.composite
def learner_runs(draw):
    """A config of any method and setting it allows, k from 2 to 8, the
    clients' training sizes, and three rounds of (subset, losses)."""
    method = draw(st.sampled_from(aggregators.STRATEGIES))
    setting = {"aaggff-s": "cross_silo", "aaggff-d": "cross_device"}.get(method)
    setting = setting or draw(st.sampled_from(["cross_silo", "cross_device"]))
    k = draw(st.integers(2, 8))
    c = 1.0 if setting == "cross_silo" else draw(st.integers(1, k)) / k
    cfg = FederationConfig(k=k, t_rounds=3, method=method, setting=setting, c=c)
    rounds = []
    for _ in range(3):
        subset = np.sort(draw(st.permutations(range(k)))[: cfg.subset_size])
        losses = draw(st.lists(EXTREME_LOSSES, min_size=subset.size, max_size=subset.size))
        rounds.append((subset, np.array(losses)))
    return cfg, np.array(draw(st.lists(st.integers(1, 100), min_size=k, max_size=k))), rounds


class TestLearner:
    @settings(max_examples=300, deadline=None)
    @given(learner_runs())
    @example((
        FederationConfig(k=4, t_rounds=3, method="aaggff-s", setting="cross_silo"), np.full(4, 10),
        [(np.arange(4), np.array([1.7e308, 1.7e308, 1.0, 1.0]))] * 3,
    ))
    def test_every_step_decides_on_the_simplex_or_raises_a_named_error(self, run):
        # A step either plays a finite decision on the simplex, zero off the
        # subset for a baseline, with a finite decision loss, or rejects its
        # input with InvalidInputError. The largest loss maps above the
        # range's floor, so the responses are not flattened.
        cfg, train_sizes, rounds = run
        learner = Learner(cfg, train_sizes)
        for t, (subset, losses) in enumerate(rounds, start=1):
            played = learner.played
            try:
                rec = learner.step(t, losses, subset)
            except InvalidInputError:
                return
            assert np.array_equal(rec.played_sampled, played[subset])
            for p in (played, rec.decision):
                assert np.isfinite(p).all() and (p >= 0).all() and math.isclose(p.sum(), 1.0, rel_tol=1e-9), p
            if not cfg.adaptive:
                assert not np.delete(rec.decision, subset).any()
            assert math.isfinite(rec.decision_loss)
            assert losses.max() == 0 or rec.observed.max() > cfg.response_range.c1

    @pytest.mark.parametrize(
        "method, closed_form",
        [
            ("fedavg", lambda losses: np.ones_like(losses)),
            ("afl", lambda losses: losses**7.0),
            ("qfedavg", lambda losses: losses**2.0),
            ("term", lambda losses: np.exp(0.5 * losses)),
            ("propfair", lambda losses: 1.0 / (4.0 - losses)),
        ],
    )
    def test_baseline_step_is_its_closed_form_with_its_own_hyperparameter(self, method, closed_form):
        # Every hyperparameter is off its default and differs from the
        # others, so a learner that read another field would miss.
        cfg = FederationConfig(
            k=6, t_rounds=1, method=method, setting="cross_device", c=0.5,
            qfedavg_q=2.0, afl_q=7.0, term_lambda=0.5, propfair_m=4.0,
        )
        sizes = np.array([10, 25, 40, 15, 30, 60])
        subset = np.array([0, 2, 5])
        losses = np.array([0.3, 1.7, 0.9])
        rec = Learner(cfg, sizes).step(1, losses, subset)
        expected = sizes[subset] * closed_form(losses)
        np.testing.assert_allclose(rec.decision[subset], expected / expected.sum(), rtol=1e-12)
        assert not np.delete(rec.decision, subset).any()

    def test_term_step_overflowing_its_step_size_raises(self):
        # term_lambda = 1e300 is a valid config, but its step size 1e-300
        # turns a loss of 1e9 into an infinite exponent.
        cfg = FederationConfig(k=2, t_rounds=1, method="term", setting="cross_silo", term_lambda=1e300)
        learner = Learner(cfg, np.array([10, 20]))
        with pytest.raises(InvalidInputError, match="overflows"):
            learner.step(1, np.array([1e9, 1.0]), np.arange(2))


class TestConfigValidation:
    def test_minimal_valid(self):
        cfg = FederationConfig(k=2, t_rounds=1, method="fedavg", setting="cross_silo")
        assert cfg.subset_size == 2

    def test_feature_shift_bound_keeps_generated_features_finite(self):
        # The largest shift parsing admits for small_config's 4 clients of 40
        # rows: (4 shift)^2 * 160 at the float maximum.
        limit = math.sqrt(sys.float_info.max / 160) / 4
        with pytest.raises(ConfigError, match="^data.feature_shift: .* overflows the standardized features of 160 rows"):
            small_config(data=dataclasses.replace(SMALL_DATA, feature_shift=limit * 1.01))
        cfg = small_config(data=dataclasses.replace(SMALL_DATA, feature_shift=limit * 0.99))
        fed = generate_federation(cfg.data, cfg.k, cfg.seed, min_batch=cfg.b)
        assert np.isfinite(fed.x_train).all() and np.isfinite(fed.x_test).all()

    @staticmethod
    def sized(e=1, **data):
        """A 3-client silo config of 10-row clients, batch size 5, with ``data`` set."""
        spec = SyntheticDataSpec(**{"samples_per_client_mean": 10, **data})
        return FederationConfig(k=3, t_rounds=1, method="fedavg", setting="cross_silo", b=5, e=e, data=spec)

    @pytest.mark.parametrize(
        "kwargs, field, array",
        [
            (
                {"input_dim": 1, "num_classes": 2, "samples_per_client_mean": MAX_ENTRIES // 6 + 1},
                "data.samples_per_client_mean",
                "row buffer",
            ),
            ({"samples_per_client_mean": MAX_ENTRIES // 33}, "data.samples_per_client_mean", "row buffer"),
            ({"input_dim": MAX_ENTRIES // 31}, "data.input_dim", "row buffer"),
            ({"num_classes": MAX_ENTRIES // 31 + 1}, "data.num_classes", "logits table"),
            ({"num_classes": MAX_ENTRIES // 32}, "data.num_classes", "client parameters"),
            ({"e": MAX_ENTRIES // 30 + 1}, "e", "epoch row order"),
        ],
    )
    def test_an_array_past_max_entries_names_its_field(self, kwargs, field, array):
        # 31 rows (30 and the padding row) of input_dim + 1 columns, 3
        # clients' (classes, input_dim + 1) parameters, 30 minibatch slots
        # an epoch. The field bounds pass: only the product is too large,
        # and the error names the field of its larger factor.
        with pytest.raises(ConfigError, match=f"^{field}: sizes the {array} at "):
            self.sized(**kwargs)

    def test_arrays_at_max_entries_validate(self):
        self.sized(input_dim=MAX_ENTRIES // 31 - 1)
        self.sized(e=MAX_ENTRIES // 30)

    def test_method_setting_mismatch(self):
        with pytest.raises(ConfigError, match="cross_device"):
            FederationConfig(k=2, t_rounds=1, method="aaggff-d", setting="cross_silo")
        with pytest.raises(ConfigError, match="cross_silo"):
            FederationConfig(k=2, t_rounds=1, method="aaggff-s", setting="cross_device", c=0.5)

    def test_unknown_setting_is_config_error(self):
        with pytest.raises(ConfigError, match="setting"):
            FederationConfig(k=2, t_rounds=1, method="fedavg", setting="cross_planet")

    def test_c_bounds(self):
        with pytest.raises(ConfigError, match=r"\(0,1\]"):
            FederationConfig(k=2, t_rounds=1, method="fedavg", setting="cross_device", c=0.0)

    def test_silo_requires_full_participation(self):
        with pytest.raises(ConfigError):
            FederationConfig(k=4, t_rounds=1, method="fedavg", setting="cross_silo", c=0.5)

    def test_inclusion_probability_uses_actual_subset(self):
        cfg = FederationConfig(k=10, t_rounds=1, method="fedavg", setting="cross_device", c=0.05)
        assert cfg.subset_size == 1
        assert cfg.inclusion_probability == 0.1

    @pytest.mark.parametrize(
        "method, setting",
        [(m, "cross_silo") for m in aggregators.STRATEGIES if m != "aaggff-d"]
        + [(m, "cross_device") for m in aggregators.STRATEGIES if m != "aaggff-s"],
    )
    def test_from_dict_inverts_asdict(self, method, setting):
        c = 1.0 if setting == "cross_silo" else 0.3
        cfg = small_config(method=method, setting=setting, c=c, cdf=CdfSpec(kind="gumbel", scale=0.5))
        assert FederationConfig.from_dict(dataclasses.asdict(cfg)) == cfg


class TestRunSilo:
    def test_static_weights_descend_on_identical_clients(self):
        k = 3
        fed, x, y = identical_clients(k)
        cfg = small_config(k=k, t_rounds=10, method="fedavg", b=y.size, lr=0.5)
        result = run_federation(cfg, fed)
        losses = [rec.losses.mean() for rec in result.records]
        assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(losses, losses[1:]))

        # Full-batch steps on identical clients must match plain gradient
        # descent on one copy of the data.
        model = LogisticModel(SMALL_DATA.input_dim, SMALL_DATA.num_classes)
        theta = model.init_params()
        expected = []
        for _ in range(10):
            expected.append(reference_loss(model, theta, x, y))
            theta = theta - 0.5 * reference_grad(model, theta, x, y)
        np.testing.assert_allclose(losses, expected, atol=1e-10)

    def test_adaptive_silo_identical_clients_stays_uniform(self):
        k = 2
        fed, _, y = identical_clients(k)
        cfg = small_config(k=k, t_rounds=8, method="aaggff-s", b=y.size, lr=0.3)
        result = run_federation(cfg, fed)
        for rec in result.records:
            np.testing.assert_allclose(rec.decision, 0.5, atol=1e-9)

    def test_rerun_bit_identical(self):
        cfg = small_config(method="aaggff-s", t_rounds=6)
        a = run_federation(cfg)
        b = run_federation(cfg)
        assert records_equal(a.records, b.records)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.client_accuracy, b.client_accuracy)

    def test_lr_decay_applied_every_step_rounds(self):
        # With decay 0.5 every 2 rounds, deltas shrink in jumps; verify via
        # identical clients and full batches where delta = lr * grad.
        k = 2
        fed, x, y = identical_clients(k)
        cfg = small_config(k=k, t_rounds=4, method="fedavg", b=y.size, lr=0.4,
                           lr_decay=0.5, lr_decay_step=2)
        result = run_federation(cfg, fed)
        model = LogisticModel(SMALL_DATA.input_dim, SMALL_DATA.num_classes)
        theta = model.init_params()
        for lr in (0.4, 0.4, 0.2, 0.2):
            theta = theta - lr * reference_grad(model, theta, x, y)
        np.testing.assert_allclose(result.theta, theta, atol=1e-10)


def assert_matches_manual_ftrl_replay(k, c):
    """Every decision and decision loss of an ``aaggff-d`` run equals, bit for
    bit, a replay through the dense composition: the doubly robust estimate
    of each round's sampled responses, the linearized gradient at the
    observed-mean reference, and the public ``ftrl_eg_step``."""
    cfg = small_config(k=k, t_rounds=6, method="aaggff-d", setting="cross_device", c=c, lr=0.3)
    result = run_federation(cfg)

    state = FtrlState.init(cfg.k, decision.lipschitz_dr(cfg.response_range, cfg.inclusion_probability))
    p = np.full(cfg.k, 1.0 / cfg.k)
    for rec in result.records:
        observed = transform_responses(rec.losses, cfg.response_range, cfg.cdf)
        response = decision.dr_estimate(observed, rec.sampled, cfg.inclusion_probability, cfg.k)
        g = decision.linearized_gradient(p, response, np.full(cfg.k, observed.mean()))
        state, p_next = ftrl_eg_step(state, g)
        np.testing.assert_array_equal(rec.decision, p_next)
        assert rec.decision_loss == decision.decision_loss(p, response)
        p = p_next


class TestRunDevice:
    def test_full_participation_matches_manual_ftrl_replay(self):
        # At c = 1 the estimate is the observed response itself.
        assert_matches_manual_ftrl_replay(4, 1.0)

    # At k = 8, c = 0.3 samples floor(2.4) = 2 clients: inclusion probability 0.25.
    @pytest.mark.parametrize("c", [0.5, 0.3, 0.125])
    def test_sampled_rounds_match_manual_ftrl_replay(self, c):
        assert_matches_manual_ftrl_replay(8, c)

    def test_identical_clients_uniform_subset_weights(self):
        k = 100
        fed, _, _ = identical_clients(k)
        cfg = small_config(
            k=k, t_rounds=4, method="aaggff-d", setting="cross_device", c=0.1, lr=0.3, b=20
        )
        result = run_federation(cfg, fed)
        for rec in result.records:
            weights = simplex.normalize_subset(rec.decision, rec.sampled)
            np.testing.assert_allclose(weights, 1.0 / rec.sampled.size, atol=1e-9)

    def test_rerun_bit_identical(self):
        cfg = small_config(k=8, t_rounds=5, method="aaggff-d", setting="cross_device", c=0.4)
        a = run_federation(cfg)
        b = run_federation(cfg)
        assert records_equal(a.records, b.records)

    def test_subset_and_decision_sizes(self):
        cfg = small_config(k=9, t_rounds=4, method="qfedavg", setting="cross_device", c=0.4)
        result = run_federation(cfg)
        for rec in result.records:
            assert rec.sampled.size == 3
            assert rec.decision.size == 9
            assert rec.losses.size == 3


class TestCrossStrategyInvariants:
    def test_first_round_losses_strategy_independent(self):
        recs = {}
        for method in ("fedavg", "term", "propfair", "aaggff-s"):
            cfg = small_config(method=method, t_rounds=1)
            recs[method] = run_federation(cfg).records[0]
        base = recs["fedavg"].losses
        for method, rec in recs.items():
            np.testing.assert_array_equal(rec.losses, base)

    def test_equal_deltas_conserved_regardless_of_strategy(self):
        # Identical clients with full batches produce identical deltas; the
        # aggregated update must equal that common delta for every strategy.
        k = 3
        fed, x, y = identical_clients(k)
        model = LogisticModel(SMALL_DATA.input_dim, SMALL_DATA.num_classes)
        common_grad = reference_grad(model, model.init_params(), x, y)
        for method in ("fedavg", "qfedavg", "term", "propfair", "afl", "aaggff-s"):
            cfg = small_config(k=k, t_rounds=1, method=method, b=y.size, lr=0.25)
            result = run_federation(cfg, fed)
            np.testing.assert_allclose(result.theta, -0.25 * common_grad, atol=1e-12)

    def test_decision_is_simplex_every_round(self):
        for method in ("fedavg", "afl", "qfedavg", "term", "propfair", "aaggff-s"):
            cfg = small_config(method=method, t_rounds=3)
            for rec in run_federation(cfg).records:
                total = rec.decision.sum()
                assert rec.decision.min() >= -1e-12
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_client_count_rejected(self):
        cfg = small_config(k=4)
        with pytest.raises(ConfigError):
            run_federation(cfg, identical_clients(3)[0])
