"""errors.require_valid over the config dataclasses: every numeric field's
range is a ``bound`` in its field metadata, checked after finiteness, in
field order."""

import dataclasses
import math
import re
import sys
import typing

import pytest

from fedfair.aggregators import BaselineParams
from fedfair.datasets import SyntheticDataSpec
from fedfair.errors import POSITIVE, STEP_SIZE, UNIT_FRACTION, ConfigError, InvalidInputError
from fedfair.federation import FederationConfig
from fedfair.transform import CdfSpec

# (class, keyword arguments of a valid instance, name prefix of its errors,
# exception a bad value raises, the fields that carry a bound)
CASES = [
    (
        FederationConfig,
        {"k": 4, "t_rounds": 2, "method": "fedavg", "setting": "cross_device", "c": 0.5},
        "",
        ConfigError,
        {"k", "t_rounds", "c", "e", "b", "lr", "lr_decay", "lr_decay_step", "weight_decay", "seed",
         "qfedavg_q", "term_lambda", "propfair_m", "afl_q"},
    ),
    (
        SyntheticDataSpec,
        {},
        "data.",
        ConfigError,
        {"input_dim", "num_classes", "samples_per_client_mean", "samples_per_client_spread",
         "dirichlet_concentration", "feature_shift"},
    ),
    (CdfSpec, {}, "cdf.", ConfigError, {"scale", "shape"}),
    (BaselineParams, {"method": "fedavg", "sample_sizes": [1.0, 2.0]}, "", InvalidInputError, {"q", "tilt", "m"}),
]
IDS = [case[0].__name__ for case in CASES]
TINY = math.nextafter(0.0, 1.0)


def bounded_fields(cls):
    return [f for f in dataclasses.fields(cls) if "bound" in f.metadata]


def edges(cls, f):
    """(values just outside the field's bound, values on or just inside it)."""
    text = f.metadata["bound"][1]
    at_least = re.fullmatch(r"must be >= (\d+)", text)
    if at_least:
        n = int(at_least.group(1))
        below = n - 1 if typing.get_type_hints(cls)[f.name] is int else math.nextafter(n, -math.inf)
        return [below], [n]
    if f.metadata["bound"] is POSITIVE:
        return [0.0, -1.0], [TINY]
    if f.metadata["bound"] is UNIT_FRACTION:
        return [0.0, math.nextafter(1.0, 2.0)], [1.0, TINY]
    if f.metadata["bound"] is STEP_SIZE:
        # 1e-310 is subnormal: > 0, but 1/1e-310 overflows.
        return [0.0, 1e-310], [sys.float_info.min]
    raise AssertionError(f"{cls.__name__}.{f.name}: bound {text!r} is not one of the four helpers")


def named(err, exc_type):
    """The field a raised error names."""
    if exc_type is ConfigError:
        return err.field
    return str(err).split(": ", 1)[0]


@pytest.mark.parametrize("cls, valid, prefix, exc_type, expected", CASES, ids=IDS)
def test_the_declared_fields_are_the_bounded_ones(cls, valid, prefix, exc_type, expected):
    cls(**valid)
    assert {f.name for f in bounded_fields(cls)} == expected


@pytest.mark.parametrize("cls, valid, prefix, exc_type, expected", CASES, ids=IDS)
def test_every_bound_rejects_outside_accepts_its_edge_and_requires_finite(cls, valid, prefix, exc_type, expected):
    for f in bounded_fields(cls):
        outside, inside = edges(cls, f)
        for value in outside:
            with pytest.raises(exc_type) as exc:
                cls(**{**valid, f.name: value})
            assert named(exc.value, exc_type) == prefix + f.name, value
            assert str(exc.value) == f"{prefix}{f.name}: {f.metadata['bound'][1]}"
        for value in inside:
            assert getattr(cls(**{**valid, f.name: value}), f.name) == value
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(exc_type) as exc:
                cls(**{**valid, f.name: value})
            assert str(exc.value) == f"{prefix}{f.name}: must be finite"


@pytest.mark.parametrize("cls, valid, prefix, exc_type, expected", CASES, ids=IDS)
def test_an_integer_beyond_the_float_range_is_named_not_an_overflow(cls, valid, prefix, exc_type, expected):
    """math.isfinite overflows on such an int; every bounded field, of
    either type, names it instead."""
    for f in bounded_fields(cls):
        with pytest.raises(exc_type) as exc:
            cls(**{**valid, f.name: 10**400})
        assert str(exc.value) == f"{prefix}{f.name}: must be within the float range"


@pytest.mark.parametrize("cls, valid, prefix, exc_type, expected", CASES, ids=IDS)
def test_the_first_bad_field_in_field_order_is_named(cls, valid, prefix, exc_type, expected):
    """With every bounded field out of range, the error names them one by
    one in field order as each is mended."""
    fields = bounded_fields(cls)
    kwargs = {**valid, **{f.name: edges(cls, f)[0][0] for f in fields}}
    for f in fields:
        with pytest.raises(exc_type) as exc:
            cls(**kwargs)
        assert named(exc.value, exc_type) == prefix + f.name
        kwargs[f.name] = edges(cls, f)[1][0]
    cls(**kwargs)


def test_a_none_shape_has_no_bound_and_takes_its_kind_default():
    assert CdfSpec(kind="weibull").shape == 2.0
    assert CdfSpec(kind="gumbel", shape=None).shape == 1.0


def test_a_non_finite_value_reads_finite_before_any_range():
    """-inf is out of every range; finiteness is checked first."""
    with pytest.raises(ConfigError, match=r"^lr: must be finite$"):
        FederationConfig(k=4, t_rounds=2, method="fedavg", setting="cross_silo", lr=-math.inf)
