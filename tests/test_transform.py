import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfair import transform
from fedfair.errors import ConfigError, InvalidInputError
from fedfair.transform import CdfKind, CdfSpec, ResponseRange, Setting

ALL_KINDS = list(CdfKind)


class TestCdfSpec:
    def test_defaults(self):
        assert CdfSpec().kind is CdfKind.WEIBULL
        assert CdfSpec().shape == 2.0
        assert CdfSpec(kind="normal").shape == 1.0
        assert CdfSpec(kind="frechet").scale == 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            CdfSpec(scale=0.0)
        with pytest.raises(ConfigError):
            CdfSpec(shape=-1.0)
        with pytest.raises(ConfigError, match=r"cdf.kind: must be one of \['weibull'"):
            CdfSpec(kind="bogus")

    def test_string_kinds_accepted(self):
        for kind in ("weibull", "frechet", "gumbel", "exponential", "logistic", "normal"):
            assert CdfSpec(kind=kind).kind.value == kind


class TestCdfEval:
    def test_weibull_reference_value(self):
        assert round(transform.cdf_eval(CdfSpec(kind="weibull"), 2.31), 2) == 1.00

    def test_frechet_reference_value(self):
        assert round(transform.cdf_eval(CdfSpec(kind="frechet"), 2.31), 2) == 0.65

    def test_normal_median_at_location(self):
        assert transform.cdf_eval(CdfSpec(kind="normal"), 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_exponential_at_zero(self):
        assert transform.cdf_eval(CdfSpec(kind="exponential"), 0.0) == 0.0

    def test_frechet_zero_limit(self):
        assert transform.cdf_eval(CdfSpec(kind="frechet"), 0.0) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            transform.cdf_eval(CdfSpec(), np.nan)

    def test_rejects_negative_for_nonnegative_supports(self):
        for kind in ("weibull", "frechet", "exponential"):
            with pytest.raises(InvalidInputError):
                transform.cdf_eval(CdfSpec(kind=kind), -0.5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_monotone_on_random_pairs(self, kind, rng):
        spec = CdfSpec(kind=kind, scale=rng.uniform(0.5, 2.0), shape=rng.uniform(0.5, 3.0))
        x = rng.uniform(0, 50, size=10_000)
        y = x + rng.uniform(0, 50, size=10_000)
        assert np.all(transform.cdf_eval(spec, x) <= transform.cdf_eval(spec, y) + 1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(x=st.floats(0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_range_is_unit_interval(self, kind, x):
        val = transform.cdf_eval(CdfSpec(kind=kind), x)
        assert 0.0 <= val <= 1.0


class TestResponseRange:
    def test_invariant(self):
        with pytest.raises(ConfigError):
            ResponseRange(0.5, 0.5)
        with pytest.raises(ConfigError):
            ResponseRange(-0.1, 1.0)
        assert ResponseRange(0.0, 1.0).width == 1.0


class TestTransformResponses:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bits_equal_the_checked_cdf_of_the_ratios(self, kind, rng):
        # The transform skips cdf_eval's input checks, which its ratios pass.
        spec, rr = CdfSpec(kind=kind), ResponseRange(0.0, 0.005)
        for losses in (rng.uniform(0, 3, size=50), np.array([0.0, 0.0, 2.0]), np.array([1e300, 3e300])):
            with np.errstate(over="ignore"):
                scaled = losses if np.isfinite(losses.mean()) else losses / losses.max()
            want = rr.c1 + rr.width * transform.cdf_eval(spec, scaled / scaled.mean())
            assert transform.transform_responses(losses, rr, spec).tobytes() == want.tobytes()

    def test_reference_weibull_example(self):
        got = transform.transform_responses(
            np.array([0.01, 0.10, 0.02]), ResponseRange(0, 1), CdfSpec(kind="weibull")
        )
        np.testing.assert_array_equal(np.round(got, 2), [0.05, 1.00, 0.19])

    def test_equal_losses_map_to_cdf_of_one(self):
        for kind in ALL_KINDS:
            spec = CdfSpec(kind=kind)
            got = transform.transform_responses(np.full(4, 0.37), ResponseRange(0, 1), spec)
            np.testing.assert_allclose(got, transform.cdf_eval(spec, 1.0), atol=1e-12)

    def test_affine_range_rescale(self):
        losses = np.array([0.01, 0.10, 0.02])
        unit = transform.transform_responses(losses, ResponseRange(0, 1), CdfSpec())
        third = transform.transform_responses(losses, ResponseRange(0, 1 / 3), CdfSpec())
        np.testing.assert_allclose(third, unit / 3.0, atol=1e-15)
        # direct evaluation of the definition
        ratios = losses / losses.mean()
        np.testing.assert_allclose(third, (1 / 3) * transform.cdf_eval(CdfSpec(), ratios), atol=1e-15)

    def test_all_zero_losses_degenerate(self, caplog):
        spec = CdfSpec(kind="exponential")
        with caplog.at_level("WARNING"):
            got = transform.transform_responses(np.zeros(3), ResponseRange(0, 0.5), spec)
        level = 0.5 * transform.cdf_eval(spec, 1.0)
        np.testing.assert_allclose(got, level, atol=1e-15)
        assert any("degenerate" in r.message for r in caplog.records)

    def test_losses_whose_mean_overflows_keep_their_ratios(self, recwarn):
        losses = np.array([1.7e308, 1.7e308, 1.0, 1.0])
        rng_range, spec = ResponseRange(0, 0.5), CdfSpec()
        got = transform.transform_responses(losses, rng_range, spec)
        assert not recwarn.list
        np.testing.assert_array_equal(got, transform.transform_responses(losses / 1.7e308, rng_range, spec))
        np.testing.assert_allclose(got, 0.5 * transform.cdf_eval(spec, np.array([2.0, 2.0, 0.0, 0.0])), atol=1e-15)

    def test_bounded_over_ten_orders_of_magnitude(self, rng):
        rng_range = ResponseRange(0.1, 0.9)
        for kind in ALL_KINDS:
            losses = 10.0 ** rng.uniform(-5, 5, size=200)
            got = transform.transform_responses(losses, rng_range, CdfSpec(kind=kind))
            assert np.all(got >= 0.1 - 1e-12) and np.all(got <= 0.9 + 1e-12)

    def test_rank_preservation(self, rng):
        for kind in ALL_KINDS:
            losses = rng.uniform(0, 10, size=30)
            got = transform.transform_responses(losses, ResponseRange(0, 1), CdfSpec(kind=kind))
            order = np.argsort(losses, kind="stable")
            assert np.all(np.diff(got[order]) >= -1e-15)

    def test_centering_mean_is_one(self, rng):
        for _ in range(50):
            losses = rng.uniform(0.01, 100, size=int(rng.integers(1, 40)))
            ratios = losses / losses.mean()
            assert abs(ratios.mean() - 1.0) <= 1e-12

    def test_rejects_bad_losses(self):
        with pytest.raises(InvalidInputError):
            transform.transform_responses(np.array([]), ResponseRange(0, 1), CdfSpec())
        with pytest.raises(InvalidInputError):
            transform.transform_responses(np.array([-0.1, 0.2]), ResponseRange(0, 1), CdfSpec())
        with pytest.raises(InvalidInputError):
            transform.transform_responses(np.array([np.inf]), ResponseRange(0, 1), CdfSpec())


class TestDefaultRange:
    def test_cross_silo(self):
        got = transform.default_range(Setting.CROSS_SILO, 7, 1.0)
        assert got == ResponseRange(0.0, 1.0 / 7.0)

    def test_cross_device(self):
        assert transform.default_range(Setting.CROSS_DEVICE, 100, 0.05) == ResponseRange(0.0, 0.05)

    def test_full_participation_limit(self):
        assert transform.default_range(Setting.CROSS_DEVICE, 5, 1.0) == ResponseRange(0.0, 1.0)

    def test_rejects_bad_sampling_probability(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                transform.default_range(Setting.CROSS_DEVICE, 10, bad)
