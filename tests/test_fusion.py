"""Tests for normalization, the fused statistic, KDE thresholding, and detection."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

from packdiag.errors import ConfigError
from packdiag.fusion import (
    DetectorParams,
    detect,
    fit_kde,
    MAXLOG,
    multiscale_statistic,
    ndtr,
    NDTR_ONE,
    SQRT1_2,
    THRESHOLD_TOL,
    threshold_from_kde,
)
from paper_oracles import bisect_threshold, kde_pdf, scalar_newton_threshold


CALIBRATED = dict(max_hd=1.0, max_hs=1.0, max_ht=1.0, h_r=0.5)


def _rejected(match=None, **fields):
    """The fields are rejected on construction and through replace."""
    with pytest.raises(ConfigError, match=match):
        DetectorParams(**fields)
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(DetectorParams(), **fields)


class TestParams:
    def test_defaults_valid(self):
        p = DetectorParams()
        assert p.window == 27
        assert abs(sum(p.alpha) - 1.0) < 1e-9
        assert p.beta == 0.99

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DetectorParams().window = 3

    def test_weights_must_sum_to_one(self):
        _rejected(alpha=(0.5, 0.2, 0.2))

    def test_weights_in_unit_interval(self):
        _rejected(alpha=(1.2, -0.1, -0.1))

    @pytest.mark.parametrize("calibrated", [False, True],
                             ids=["uncalibrated", "calibrated"])
    def test_nan_weight_rejected(self, calibrated):
        # NaN fails no `< 0` or `> 1` test, and NaN's sum is never off by
        # more than a tolerance
        extra = CALIBRATED if calibrated else {}
        _rejected(r"alpha entries must lie in \[0, 1\]",
                  alpha=(math.nan, 0.5, 0.5), **extra)

    def test_window_at_least_one(self):
        _rejected(window=0)

    def test_window_floor_is_the_temporal_streams(self):
        # order-2 fuzzy matching needs two delay vectors of dimension 3
        _rejected("at least 4", window=3)
        DetectorParams(window=4)

    def test_beta_open_interval(self):
        _rejected(beta=1.0)

    @pytest.mark.parametrize("train_len", [0, -5])
    def test_train_len_positive(self, train_len):
        # with no training prefix there is nothing to calibrate on
        _rejected(f"train_len must be positive, got {train_len}",
                  train_len=train_len)

    @pytest.mark.parametrize("name, value", [
        ("train_len", 60.5), ("train_len", True), ("window", 27.0),
        ("window", True)])
    def test_integer_fields_must_be_integers(self, name, value):
        # write_params would save a train_len of 60.5 as 60, and True
        # would be a one-second prefix
        _rejected(f"{name} must be an integer", **{name: value})
        DetectorParams(window=np.int64(27), train_len=np.int64(600))

    def test_calibrated_needs_positive_normalizers(self):
        _rejected(**dict(CALIBRATED, max_hs=0.0))

    @pytest.mark.parametrize("calibrated", [False, True],
                             ids=["uncalibrated", "calibrated"])
    @pytest.mark.parametrize("name, value, why", [
        ("max_hd", math.nan, "finite"), ("max_hd", math.inf, "finite"),
        ("h_r", math.nan, "finite"), ("max_hs", 0.0, "positive")],
        ids=["max_hd-nan", "max_hd-inf", "h_r-nan", "max_hs-zero"])
    def test_present_calibration_values_checked(self, name, value, why,
                                                calibrated):
        # NaN passes a `v <= 0` check, and a NaN normalizer makes every H
        # NaN, so nothing could alarm; the rule holds whether or not the
        # other calibration values are present
        extra = CALIBRATED if calibrated else {}
        _rejected(f"{name} must be {why}", **dict(extra, **{name: value}))


class TestMultiscaleStatistic:
    def _params(self):
        return DetectorParams(alpha=(0.2, 0.3, 0.5), max_hd=1.0, max_hs=2.0,
                              max_ht=4.0, h_r=1.0)

    def test_weighted_sum(self):
        p = self._params()
        got = multiscale_statistic(1.0, 2.0, 4.0, p)
        # normalized components are 1, 1, 1
        assert abs(got - 1.0) < 1e-12
        got = multiscale_statistic(0.5, 1.0, 1.0, p)
        assert abs(got - (0.2 * 0.5 + 0.3 * 0.5 + 0.5 * 0.25)) < 1e-12

    def test_vectorized_with_nan_warmup(self):
        p = self._params()
        h = multiscale_statistic(np.array([np.nan, 1.0]), np.array([np.nan, 2.0]),
                                 np.array([np.nan, 4.0]), p)
        assert np.isnan(h[0])
        assert abs(h[1] - 1.0) < 1e-12


class TestKde:
    def test_bandwidth_rule(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0.4, 0.1, 600)
        model = fit_kde(samples)
        want = 1.06 * samples.std(ddof=1) * 600 ** (-0.2)
        assert abs(model.bandwidth - want) < 1e-12

    def test_bandwidth_documented_case(self):
        # sigma 0.1 over 600 samples gives roughly 0.0295
        b = 1.06 * 0.1 * 600 ** (-0.2)
        assert abs(b - 0.02949) < 5e-6

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(0.3, 0.05, 400)
        model = fit_kde(samples)
        lo = samples.min() - 8 * model.bandwidth
        hi = samples.max() + 8 * model.bandwidth
        xs = np.linspace(lo, hi, 20001)
        area = np.trapezoid(kde_pdf(model, xs), xs)
        assert abs(area - 1.0) < 1e-3

    def test_cdf_matches_direct_mixture(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(0.0, 1.0, 50)
        model = fit_kde(samples)
        for x in [-2.0, -0.3, 0.0, 0.7, 2.5]:
            want = scipy_ndtr((x - samples) / model.bandwidth).mean()
            assert abs(model.cdf(x) - want) < 1e-12

    def test_cdf_monotone(self):
        rng = np.random.default_rng(3)
        model = fit_kde(rng.normal(0, 1, 100))
        xs = np.linspace(-4, 4, 200)
        cdf = np.array([model.cdf(x) for x in xs])
        assert (np.diff(cdf) >= 0).all()

    def test_needs_spread_and_count(self):
        with pytest.raises(ValueError):
            fit_kde(np.array([0.5]))
        with pytest.raises(ValueError):
            fit_kde(np.full(10, 0.5))


class TestThreshold:
    def test_median_of_symmetric_mixture(self):
        model = fit_kde(np.array([-1.0, 1.0, -1.0, 1.0]))
        h = threshold_from_kde(model, 0.5)
        assert abs(h) < 1e-8

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(4)
        model = fit_kde(rng.normal(0.4, 0.1, 300))
        hs = [threshold_from_kde(model, b) for b in (0.5, 0.9, 0.99, 0.999)]
        assert all(a <= b + 1e-12 for a, b in zip(hs, hs[1:]))

    def test_cdf_at_threshold(self):
        rng = np.random.default_rng(5)
        model = fit_kde(rng.normal(0.4, 0.1, 300))
        h = threshold_from_kde(model, 0.99)
        assert model.cdf(h) >= 0.99
        assert model.cdf(h - 1e-6) < 0.99 + 1e-6

    def test_beta_to_one_clears_training_max(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(0.4, 0.1, 300)
        model = fit_kde(samples)
        h = threshold_from_kde(model, 0.999999)
        assert h >= samples.max() - 3 * model.bandwidth

    def test_training_coverage(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(0.4, 0.1, 600)
        model = fit_kde(samples)
        h = threshold_from_kde(model, 0.99)
        frac = (samples < h).mean()
        assert 0.97 <= frac <= 1.0

    def test_beta_bounds(self):
        model = fit_kde(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            threshold_from_kde(model, 0.0)
        with pytest.raises(ValueError):
            threshold_from_kde(model, 1.0)



class TestNewtonThreshold:
    @pytest.mark.parametrize("shape", ["normal", "skewed"])
    def test_matches_bisection_oracle(self, shape):
        # 120 seeded models per shape: the Newton search and plain bisection
        # both return a point within THRESHOLD_TOL above the root
        rng = np.random.default_rng(20 if shape == "normal" else 21)
        for _ in range(120):
            size = int(rng.integers(300, 1801))
            if shape == "normal":
                samples = rng.normal(rng.uniform(-1.0, 1.0),
                                     rng.uniform(0.01, 0.5), size)
            else:
                samples = rng.lognormal(0.0, rng.uniform(0.2, 1.2), size)
            beta = float(rng.choice([0.5, 0.9, 0.95, 0.99, 0.999, 0.9999]))
            model = fit_kde(samples)
            h = threshold_from_kde(model, beta)
            assert model.cdf(h) >= beta
            assert abs(h - bisect_threshold(model, beta)) <= THRESHOLD_TOL


    def test_ndtr_is_exactly_one_above_the_skip_point(self):
        # the search takes every offset above NDTR_ONE as CDF 1.0 without
        # calling ndtr; that is exact only if ndtr itself returns 1.0 there.
        # It first does at 8.292362 on a 1e-6 grid, as scipy's does
        grid = np.linspace(NDTR_ONE, 40.0, 3_000_001)
        assert (ndtr(grid) == 1.0).all()
        assert (ndtr(np.array([np.nextafter(NDTR_ONE, np.inf), 1e300,
                               np.inf])) == 1.0).all()
        assert ndtr(8.292362) == 1.0
        assert ndtr(8.292361) < 1.0


class TestNdtr:
    """fusion.ndtr against scipy.special.ndtr, which runs the same Cephes
    code with the C library's exp."""

    # Cephes' branch points as offsets a = sqrt(2) x: |x| = 1/sqrt(2), 1 and
    # 8, x^2 = MAXLOG (erfc is 0 past it) and the search's NDTR_ONE
    EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
             math.sqrt(2.0 * MAXLOG), NDTR_ONE)
    # largest relative difference allowed on a result that is a normal
    # double: numpy's exp and the C library's may round apart by an ulp,
    # which moves a result by about 2 ulps (1.1e-16 each); 5.6e-16 is the
    # largest difference measured on these points
    REL = 2e-15
    # a subnormal result carries fewer bits: allow four of its steps
    SUBNORMAL = 4 * 5e-324

    @classmethod
    def _chunks(cls):
        """10,020,011 offsets over [-40, 40], about a million at a time:
        uniform draws, an even grid, and around each branch point on
        either side 100,000 draws within 1e-6 and 2,001 points one ulp
        apart."""
        rng = np.random.default_rng(40)
        for _ in range(5):
            yield rng.uniform(-40.0, 40.0, 1_000_000)
        yield from np.array_split(np.linspace(-40.0, 40.0, 4_000_001), 4)
        for edge in cls.EDGES:
            for c in (edge, -edge):
                yield np.concatenate([
                    c + rng.uniform(-1e-6, 1e-6, 100_000),
                    c + np.arange(-1000, 1001) * np.spacing(c)])

    def test_matches_scipy_on_every_branch(self):
        count = 0
        tiny = np.finfo(float).tiny
        for a in self._chunks():
            count += a.size
            got, want = ndtr(a), scipy_ndtr(a)
            assert ((got == 0.0) == (want == 0.0)).all()
            normal = want >= tiny
            rel = np.abs(got[normal] - want[normal]) / want[normal]
            assert (rel <= self.REL).all()
            assert (np.abs(got - want)[~normal] <= self.SUBNORMAL).all()
            # below |x| = 1 no exp is called: both sides round the same
            # operations in the same order, so they agree bit for bit
            erf = np.abs(a * SQRT1_2) < 1.0
            np.testing.assert_array_equal(got[erf], want[erf])
        assert count >= 10_000_000

    def test_special_values(self):
        a = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300,
                      5e-324, -5e-324])
        got = ndtr(a)
        np.testing.assert_array_equal(got, scipy_ndtr(a))
        np.testing.assert_array_equal(
            got, [np.nan, 1.0, 0.0, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5])

    def test_keeps_the_input_shape(self):
        rng = np.random.default_rng(41)
        stack = rng.uniform(-12.0, 12.0, (7, 300))
        got = ndtr(stack)
        assert got.shape == (7, 300)
        np.testing.assert_array_equal(got, ndtr(stack.ravel()).reshape(7, 300))
        for scalar in (0.3, np.float64(-2.5), np.array(11.5)):
            value = ndtr(scalar)
            assert value.shape == ()
            assert value == ndtr(np.array([scalar]))[0]
        assert ndtr(np.empty((0, 3))).shape == (0, 3)


class TestStackedCandidates:
    """A leading candidate axis gives each row what a one-candidate call
    gives it, bit for bit."""

    def _stack(self):
        rng = np.random.default_rng(30)
        rows = [rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.5), 570)
                for _ in range(5)]
        rows += [rng.lognormal(0.0, rng.uniform(0.2, 1.2), 570)
                 for _ in range(3)]
        return np.array(rows)

    @pytest.mark.parametrize("beta", [0.5, 0.9, 0.99, 0.999])
    def test_threshold_rows_match_per_row_calls(self, beta):
        stack = self._stack()
        model = fit_kde(stack)
        found = threshold_from_kde(model, beta)
        assert found.shape == (len(stack),)
        for row, bandwidth, h_r in zip(stack, model.bandwidth, found):
            one = fit_kde(row)
            assert bandwidth == one.bandwidth
            assert h_r == threshold_from_kde(one, beta)
            # the one-candidate search in scalars, from np.quantile
            assert h_r == scalar_newton_threshold(one, beta)

    def test_matches_scalar_search_on_random_mixtures(self):
        # sizes from 2 up, so that the written-out quantile start meets
        # its edge cases
        rng = np.random.default_rng(32)
        for _ in range(150):
            size = int(rng.integers(2, 700))
            samples = rng.lognormal(0.0, rng.uniform(0.1, 1.5), size)
            beta = float(rng.choice([0.3, 0.5, 0.9, 0.99, 0.999,
                                     rng.uniform(0.01, 0.99)]))
            model = fit_kde(samples)
            assert (threshold_from_kde(model, beta)
                    == scalar_newton_threshold(model, beta))

    def test_row_without_density_gets_nan_alone(self):
        stack = self._stack()[:4].copy()
        stack[1] = 0.25
        stack[2, 7] = np.inf
        model = fit_kde(stack)
        found = threshold_from_kde(model, 0.99)
        assert np.isnan(model.bandwidth[[1, 2]]).all()
        assert np.isnan(found[[1, 2]]).all()
        for i in (0, 3):
            assert found[i] == threshold_from_kde(fit_kde(stack[i]), 0.99)
        with pytest.raises(ValueError, match="zero spread"):
            fit_kde(stack[1])
        with pytest.raises(ValueError, match="finite"):
            fit_kde(stack[2])

    def test_statistic_and_alarms_match_per_row_calls(self):
        rng = np.random.default_rng(31)
        h_d, h_s, h_t = rng.uniform(0.0, 2.0, (3, 40))
        h_d[:5] = h_s[:5] = h_t[:5] = np.nan
        times = np.arange(1.0, 41.0)
        alphas = rng.dirichlet((1.0, 1.0, 1.0), 6)
        cal = DetectorParams(max_hd=1.5, max_hs=2.0, max_ht=1.25, h_r=1.0)
        h = multiscale_statistic(h_d, h_s, h_t, cal, alphas)
        h_r = rng.uniform(0.5, 1.5, 6)
        h_r[2] = 10.0   # never alarms
        out = detect(times, h, cal, h_r)
        for i, alpha in enumerate(alphas):
            p = dataclasses.replace(cal, alpha=tuple(alpha), h_r=h_r[i])
            row = multiscale_statistic(h_d, h_s, h_t, p)
            assert np.array_equal(h[i], row, equal_nan=True)
            one = detect(times, row, p)
            assert np.array_equal(out.alarms[i], one.alarms)
            assert (np.isnan(out.t_f[i]) if one.t_f is None
                    else out.t_f[i] == one.t_f)
        assert np.isnan(out.t_f[2])


class TestDetect:
    def _params(self, h_r):
        return DetectorParams(max_hd=1.0, max_hs=1.0, max_ht=1.0, h_r=h_r)

    def test_strict_crossing(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.array([0.5, 1.0, 1.0000000001, 0.2])
        out = detect(times, h, self._params(1.0))
        # equality does not alarm; strict crossing does
        assert out.alarms.tolist() == [False, False, True, False]
        assert out.t_f == 3.0

    def test_no_alarm(self):
        times = np.arange(1.0, 5.0)
        out = detect(times, np.full(4, 0.1), self._params(1.0))
        assert out.t_f is None
        assert not out.alarms.any()

    def test_warmup_never_alarms(self):
        times = np.arange(1.0, 6.0)
        h = np.array([np.nan, np.nan, 5.0, 0.1, 7.0])
        out = detect(times, h, self._params(1.0))
        assert out.alarms.tolist() == [False, False, True, False, True]
        assert out.t_f == 3.0
