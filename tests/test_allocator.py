import os
import platform
import resource
import sys

import numpy as np
import pytest

import fedfair  # noqa: F401 - importing the package pins the threshold
from fedfair import _allocator, cli
from fedfair.datasets import STREAM_BATCHING, STREAM_SAMPLING, SyntheticDataSpec, generate_federation, rekey, stream_keys
from fedfair.federation import Cohort, LogisticModel, sample_clients, train_clients
from test_cli import SMALL_RUN, write_config

on_glibc = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the mmap threshold is a glibc setting",
)


def heap_range():
    with open("/proc/self/maps") as fh:
        for line in fh:
            if line.rstrip().endswith("[heap]"):
                lo, hi = line.split()[0].split("-")
                return int(lo, 16), int(hi, 16)
    return None


@on_glibc
def test_large_arrays_stay_out_of_the_heap():
    # Unpinned, freeing the 8 MiB block raises glibc's threshold past 4 MiB
    # and the next 4 MiB array comes from the brk heap.
    big = np.ones(1 << 20)
    del big
    arr = np.ones(1 << 19)
    heap = heap_range()
    assert heap is None or not heap[0] <= arr.ctypes.data < heap[1]


@on_glibc
def test_large_arrays_stay_out_of_the_heap_in_a_suite_worker(tmp_path, monkeypatch):
    # A --jobs worker is forked from this process and keeps its pinned threshold.
    parent, run_federation = os.getpid(), cli.run_federation

    def checked(cfg):
        assert os.getpid() != parent
        test_large_arrays_stay_out_of_the_heap()
        return run_federation(cfg)

    monkeypatch.setattr(cli, "run_federation", checked)
    suite = cli.parse_config(write_config(tmp_path, SMALL_RUN), out_dir=tmp_path / "out", seeds=[1, 2])
    assert cli.run_suite(suite, jobs=2) == 0


@on_glibc
def test_silo_training_rounds_fault_no_pages_back_in():
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


@on_glibc
def test_device_training_rounds_fault_no_pages_back_in():
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


@on_glibc
def test_pin_reports_success_on_glibc():
    assert _allocator.pin_mmap_threshold() is True


def test_pin_is_a_no_op_off_linux(monkeypatch):
    monkeypatch.setattr(_allocator.sys, "platform", "darwin")
    assert _allocator.pin_mmap_threshold() is False
