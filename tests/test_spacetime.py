"""Tests for smooth-surface compensation and the per-window paper references."""

import math

import numpy as np
import pytest

from packdiag.pack import LAYOUT
from packdiag.pipeline import _SMOOTH_PROJECTOR, COMPLEMENT_BASIS, compensate
from paper_oracles import decompose_window, exhaustive_fuzzy, fuzzy_entropy


def rank_n_oracle(window, n):
    """Best rank-n approximation built from an eigendecomposition of the Gram matrix."""
    gram = window.T @ window
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1][:n]
    approx = np.zeros_like(window, dtype=float)
    for i in order:
        lam = math.sqrt(max(evals[i], 0.0))
        if lam < 1e-12:
            continue
        v = evecs[:, i]
        u = window @ v / lam
        approx += lam * np.outer(u, v)
    return approx


def surface_residual_oracle(temps, coords):
    """Per-frame least-squares quadratic surface fit; the residual is returned.

    Positions are standardized first: the span of the surfaces does not
    change, and the fit stays well conditioned.
    """
    x, y = ((coords - coords.mean(axis=0)) / coords.std(axis=0)).T
    basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
    out = np.empty_like(temps, dtype=float)
    for j, frame in enumerate(temps):
        beta, *_ = np.linalg.lstsq(basis, frame, rcond=None)
        out[j] = frame - basis @ beta
    return out


class TestCompensate:
    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(10)
        coords = LAYOUT.cell_centers
        # near zero, so the oracle's own fit adds no offset rounding; the
        # offset is covered by test_unit_zero_and_frame_sum
        temps = rng.normal(0.0, 0.5, (40, 24))
        np.testing.assert_allclose(compensate(temps),
                                   surface_residual_oracle(temps, coords),
                                   rtol=0.0, atol=1e-12)

    def test_smooth_surfaces_vanish(self):
        rng = np.random.default_rng(11)
        coords = LAYOUT.cell_centers
        x, y = coords.T
        c = rng.normal(size=(5, 6))
        temps = (290.0 + c[:, :1] + c[:, 1:2] * x + c[:, 2:3] * y
                 + c[:, 3:4] * x * x + c[:, 4:5] * x * y + c[:, 5:6] * y * y)
        assert np.abs(compensate(temps)).max() < 1e-12

    def test_hot_spot_stands_out_where_it_is(self):
        coords = LAYOUT.cell_centers
        x = coords[:, 0]
        for cell in (0, 3, 10, 22):
            temps = 300.0 + 40.0 * x[None, :]   # a cooling gradient
            temps[0, cell] += 0.5
            excess = compensate(temps)[0]
            assert int(np.argmax(excess)) == cell
            assert excess[cell] > 0.2

    def test_unit_zero_and_frame_sum(self):
        rng = np.random.default_rng(12)
        kelvin = 300.0 + rng.normal(0.0, 0.3, (30, 24))
        a = compensate(kelvin)
        b = compensate(kelvin - 273.15)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)
        assert np.abs(a.sum(axis=1)).max() < 1e-12


class TestComplementBasis:
    def test_orthonormal_and_kept_by_the_projector(self):
        q = COMPLEMENT_BASIS
        assert q.shape == (24, 18)
        np.testing.assert_allclose(q.T @ q, np.eye(18), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(_SMOOTH_PROJECTOR @ q, q,
                                   rtol=0.0, atol=1e-14)

    def test_keeps_each_frame_norm(self):
        rng = np.random.default_rng(13)
        excess = compensate(300.0 + rng.normal(0.0, 0.3, (50, 24)))
        reduced = excess @ COMPLEMENT_BASIS
        np.testing.assert_allclose(np.linalg.norm(reduced, axis=1),
                                   np.linalg.norm(excess, axis=1),
                                   rtol=1e-13, atol=0.0)

    def test_no_surface_leaks_in(self):
        # every quadratic surface over the cell positions, in the raw
        # coordinates, has no component along the basis
        coords = LAYOUT.cell_centers
        x, y = coords.T
        q = COMPLEMENT_BASIS
        for surface in (np.ones_like(x), x, y, x * x, x * y, y * y):
            leak = np.linalg.norm(surface @ q) / np.linalg.norm(surface)
            assert leak < 1e-13


class TestDecomposition:
    def test_orthonormal_factors(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((24, 27))
        dec = decompose_window(y, order=5)
        assert dec.phi.shape == (24, 5)
        assert dec.coeffs.shape == (5, 27)
        assert np.allclose(dec.phi.T @ dec.phi, np.eye(5), atol=1e-8)
        assert np.allclose(dec.coeffs @ dec.coeffs.T, np.eye(5), atol=1e-8)
        assert (np.diff(dec.lam) <= 1e-12).all()

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_rows = int(rng.integers(3, 9))
            n_cols = int(rng.integers(3, 9))
            order = int(rng.integers(1, min(n_rows, n_cols) + 1))
            y = rng.standard_normal((n_rows, n_cols))
            dec = decompose_window(y, order=order)
            assert np.abs(dec.reconstruct() - rank_n_oracle(y, order)).max() < 1e-8

    def test_full_order_reconstructs_exactly(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((6, 6))
        dec = decompose_window(y, order=6)
        assert np.abs(dec.reconstruct() - y).max() < 1e-10

    def test_rank_one_window(self):
        u = np.arange(1.0, 7.0)
        v = np.array([2.0, -1.0, 0.5, 3.0])
        y = np.outer(u, v)
        dec = decompose_window(y, order=3)
        assert dec.degenerate
        assert dec.effective_rank == 1
        assert dec.lam[0] > 1.0
        assert np.allclose(dec.lam[1:], 0.0, atol=1e-10)
        assert np.allclose(dec.phi[:, 1:], 0.0)
        assert np.abs(dec.reconstruct() - y).max() < 1e-10

    def test_order_bounds_checked(self):
        y = np.zeros((4, 5))
        with pytest.raises(ValueError):
            decompose_window(y, order=0)
        with pytest.raises(ValueError):
            decompose_window(np.ones((4, 5)), order=5)


class TestFuzzyEntropy:
    def test_constant_series_is_zero(self):
        assert fuzzy_entropy(np.full(30, 3.3)) == 0.0

    def test_linear_ramp_explicit_r(self):
        got = fuzzy_entropy(np.array([1.0, 2.0, 3.0, 4.0]), m=2, r=0.2)
        assert abs(got - 0.0) < 1e-12

    def test_frozen_oracle_values(self):
        a = np.array([0.1, 0.5, 0.2, 0.9, 0.4, 0.7])
        got = fuzzy_entropy(a, m=2, r=0.2)
        assert abs(got - 0.4894512589268187) < 1e-12
        got_adaptive = fuzzy_entropy(a, m=2)
        assert abs(got_adaptive - 1.2577667602203353) < 1e-12

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            w = int(rng.integers(5, 13))
            a = rng.standard_normal(w)
            r = 0.2 * a.std()
            got = fuzzy_entropy(a, m=2, r=r)
            want = exhaustive_fuzzy(a, 2, r)
            assert abs(got - want) < 1e-10

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            fuzzy_entropy(np.array([1.0, 2.0, 3.0]), m=2)

    def test_noise_more_irregular_than_ramp(self):
        rng = np.random.default_rng(8)
        ramp = np.linspace(0, 1, 40)
        noise = rng.standard_normal(40)
        assert fuzzy_entropy(noise, m=2) > fuzzy_entropy(ramp, m=2)
