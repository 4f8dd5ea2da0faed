"""Tests for the MI clamp, MI estimation, and SNR estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgnlink import metrics
from wgnlink.metrics import (RingConstellation, _fitted,
                             build_ring_constellation, estimate_mi,
                             estimate_mi_discrete, estimate_snr,
                             qam16_constellation)
from wgnlink.signals import ComplexSignal, generate_wgn


def _awgn_pair(n, snr_db, seed, power=1.0):
    """Constructed reference/received pair at exactly the requested SNR."""
    rng = np.random.default_rng(seed)
    x = np.sqrt(power / 2) * (rng.standard_normal(n)
                              + 1j * rng.standard_normal(n))
    nv = power / 10 ** (snr_db / 10)
    y = x + np.sqrt(nv / 2) * (rng.standard_normal(n)
                               + 1j * rng.standard_normal(n))
    return (ComplexSignal(x, 30e9), ComplexSignal(y, 30e9))


def _discrete_awgn_mi(points, noise_var, half_width=None, n_grid=220):
    """Numerical-integration oracle: MI of a uniform discrete constellation
    over a complex AWGN channel, via a 2-D grid."""
    points = np.asarray(points, dtype=complex)
    k = points.size
    if half_width is None:
        half_width = np.max(np.abs(points)) + 5 * np.sqrt(noise_var)
    axis = np.linspace(-half_width, half_width, n_grid)
    dxdy = (axis[1] - axis[0]) ** 2
    yy = axis[None, :] + 1j * axis[:, None]
    total = 0.0
    for x in points:
        p_yx = np.exp(-np.abs(yy - x) ** 2 / noise_var) / (np.pi * noise_var)
        p_y = np.zeros_like(p_yx)
        for xp in points:
            p_y += np.exp(-np.abs(yy - xp) ** 2 / noise_var) / (np.pi * noise_var)
        p_y /= k
        mask = p_yx > 1e-300
        total += np.sum(p_yx[mask] * np.log2(p_yx[mask] / p_y[mask])) * dxdy
    return total / k


class TestBuildRingConstellation:
    def test_default_16_rings(self):
        rings = build_ring_constellation(16)
        assert rings.n_rings == 16
        assert rings.phase_points == 64
        assert rings.n_points == 1024

    def test_invalid_ring_count(self):
        with pytest.raises(ValueError):
            build_ring_constellation(0)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=64),
           p=st.floats(min_value=0.01, max_value=50.0))
    def test_power_normalization(self, n, p):
        # the clamp of a scale-invariant estimate has no power
        assert build_ring_constellation(n, mean_power=p) == \
            build_ring_constellation(n)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            RingConstellation(0, 64)
        with pytest.raises(ValueError):
            RingConstellation(16, 2)


class TestEstimateMi:
    def test_noiseless_reaches_cap(self):
        rings = build_ring_constellation(16, 1.0)
        sig = generate_wgn(50_000, 30e9, 1.0, seed=2)
        mi = estimate_mi(sig, sig, rings)
        assert mi == pytest.approx(np.log2(16 * 64), abs=0.01)

    def test_independent_signals_near_zero(self):
        rings = build_ring_constellation(16, 1.0)
        x = generate_wgn(200_000, 30e9, 1.0, seed=4)
        y = generate_wgn(200_000, 30e9, 1.0, seed=5)
        assert estimate_mi(x, y, rings) < 0.05

    def test_monotone_in_snr(self):
        rings = build_ring_constellation(16, 1.0)
        mis = []
        for snr in range(0, 26):
            x, y = _awgn_pair(120_000, float(snr), seed=100 + snr)
            mis.append(estimate_mi(x, y, rings))
        assert np.all(np.diff(mis) > 0)

    def test_lower_bound_property(self):
        rings = build_ring_constellation(16, 1.0)
        for snr in (0.0, 7.0, 13.0, 20.0, 25.0):
            x, y = _awgn_pair(200_000, snr, seed=int(snr) + 50)
            mi = estimate_mi(x, y, rings)
            assert mi <= np.log2(1 + 10 ** (snr / 10)) + 0.05

    def test_scale_invariance(self):
        rings = build_ring_constellation(16, 1.0)
        x, y = _awgn_pair(150_000, 15.0, seed=6)
        base = estimate_mi(x, y, rings)
        c = 2.7 * np.exp(0.4j)
        scaled = estimate_mi(
            ComplexSignal(c * x.samples, x.sample_rate),
            ComplexSignal(c * y.samples, y.sample_rate), rings)
        assert abs(scaled - base) < 0.01

    def test_ring_count_convergence(self):
        x, y = _awgn_pair(200_000, 20.0, seed=7)
        mi = {n: estimate_mi(x, y, build_ring_constellation(n, 1.0))
              for n in (8, 16, 32)}
        assert mi[16] - mi[8] >= -0.01
        assert mi[32] - mi[16] <= 0.05

    def test_phase_point_convergence(self):
        x, y = _awgn_pair(150_000, 15.0, seed=8)
        a = estimate_mi(x, y, build_ring_constellation(16, 1.0, 64))
        b = estimate_mi(x, y, build_ring_constellation(16, 1.0, 128))
        assert abs(a - b) < 0.01

    def test_length_mismatch_rejected(self):
        rings = build_ring_constellation(4, 1.0)
        a = generate_wgn(100, 1.0, 1.0, seed=0)
        b = generate_wgn(99, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            estimate_mi(a, b, rings)


def _mi_discrete_oracle(symbols, received, points):
    """The mismatched-decoding bound of ``estimate_mi_discrete`` evaluated
    directly: the distances to every point, then a log-sum-exp shifted by
    each sample's largest exponent."""
    x, y = np.asarray(symbols), np.asarray(received)
    y = y / (np.vdot(x, y) / np.vdot(x, x))
    err = np.abs(y - x) ** 2
    s = max(np.mean(err), 1e-10 * np.mean(np.abs(points) ** 2))
    d = (err[:, None] - np.abs(y[:, None] - points[None, :]) ** 2) / s
    peak = d.max(axis=1)
    lse = peak + np.log(np.exp(d - peak[:, None]).sum(axis=1))
    cap = np.log2(len(points))
    return float(np.clip(cap - np.mean(lse) / np.log(2.0), 0.0, cap)), d


def _off_grid_points():
    """16QAM rotated and perturbed off its grid, at unit mean power."""
    rng = np.random.default_rng(17)
    pts = (qam16_constellation() * np.exp(0.1j)
           + 0.05 * (rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


_CONSTELLATIONS = {"16qam": qam16_constellation(),
                   "8psk": np.exp(2j * np.pi * np.arange(8) / 8),
                   "off-grid": _off_grid_points()}


class TestEstimateMiDiscrete:
    @pytest.mark.parametrize("snr_db", [-5, 0, 10, 20, 30, 40])
    @pytest.mark.parametrize("name", list(_CONSTELLATIONS))
    def test_matches_the_log_sum_exp_oracle(self, name, snr_db):
        pts = _CONSTELLATIONS[name]
        rng = np.random.default_rng(snr_db + 50)
        sym = pts[rng.integers(0, len(pts), 60_000)]
        nv = np.mean(np.abs(pts) ** 2) * 10 ** (-snr_db / 10)
        noise = np.sqrt(nv / 2) * (rng.standard_normal(len(sym))
                                   + 1j * rng.standard_normal(len(sym)))
        # a common complex gain, which the fit removes
        y = 0.7 * np.exp(0.3j) * (sym + noise)
        mi = estimate_mi_discrete(sym, ComplexSignal(y, 30e9), pts)
        assert mi == pytest.approx(_mi_discrete_oracle(sym, y, pts)[0],
                                   rel=0, abs=1e-12)

    # overflow: near-zero noise and one sample moved most of the way to a
    # neighbouring point; underflow: one symbol far off the constellation
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case, noise_var", [("overflow", 1e-10),
                                                 ("underflow", 0.1)])
    def test_chunk_out_of_range_takes_the_shifted_form(self, case,
                                                       noise_var):
        pts = qam16_constellation()
        rng = np.random.default_rng(18)
        sym = pts[rng.integers(0, 16, 20_000)]
        y = sym + np.sqrt(noise_var / 2) * (
            rng.standard_normal(len(sym)) + 1j * rng.standard_normal(len(sym)))
        j = 12_345
        if case == "overflow":
            near = pts[np.argsort(np.abs(pts - sym[j]))[1]]
            y[j] = sym[j] + 0.6 * (near - sym[j])
        else:
            y[j] += 8 + 8j - sym[j]
            sym[j] = 8 + 8j
        want, d = _mi_discrete_oracle(sym, y, pts)
        # the case is what it claims: exp of sample j's exponents leaves
        # float64 range (the largest float64 is e^709.8, the smallest
        # subnormal e^-744.4)
        if case == "overflow":
            assert d[j].max() > 710
        else:
            assert d[j].max() < -745
        mi = estimate_mi_discrete(sym, ComplexSignal(y, 30e9), pts)
        assert 0 < want < 4
        assert mi == pytest.approx(want, rel=0, abs=1e-12)

    def test_noiseless_16qam_is_4_bits(self):
        pts = qam16_constellation()
        rng = np.random.default_rng(9)
        sym = pts[rng.integers(0, 16, 50_000)]
        mi = estimate_mi_discrete(sym, ComplexSignal(sym, 30e9), pts)
        assert mi == pytest.approx(4.0, abs=1e-6)

    def test_20db_against_integration_oracle(self):
        pts = qam16_constellation()
        rng = np.random.default_rng(10)
        sym = pts[rng.integers(0, 16, 400_000)]
        nv = 10 ** (-20 / 10)
        noise = np.sqrt(nv / 2) * (rng.standard_normal(len(sym))
                                   + 1j * rng.standard_normal(len(sym)))
        mi = estimate_mi_discrete(sym, ComplexSignal(sym + noise, 30e9), pts)
        oracle = _discrete_awgn_mi(pts, nv)
        assert mi == pytest.approx(oracle, abs=0.05)

    def test_wgn_exceeds_16qam_at_high_snr(self):
        snr_db = 25.0
        pts = qam16_constellation()
        rng = np.random.default_rng(11)
        sym = pts[rng.integers(0, 16, 200_000)]
        nv = 10 ** (-snr_db / 10)
        noise = np.sqrt(nv / 2) * (rng.standard_normal(len(sym))
                                   + 1j * rng.standard_normal(len(sym)))
        qam_mi = estimate_mi_discrete(sym, ComplexSignal(sym + noise, 30e9),
                                      pts)
        x, y = _awgn_pair(200_000, snr_db, seed=12)
        wgn_mi = estimate_mi(x, y, build_ring_constellation(16, 1.0))
        assert qam_mi < 4.0 + 1e-9
        assert wgn_mi > qam_mi + 1.0


class TestEstimateSnr:
    def test_identical_signals_capped(self):
        x = generate_wgn(10_000, 1.0, 1.0, seed=13)
        assert estimate_snr(x, x) == 80.0

    def test_constructed_10db(self):
        x, y = _awgn_pair(1_000_000, 10.0, seed=14)
        assert estimate_snr(x, y) == pytest.approx(10.0, abs=0.1)

    def test_pure_gain_capped(self):
        x = generate_wgn(10_000, 1.0, 1.0, seed=15)
        y = ComplexSignal(2.0 * x.samples, 1.0)
        assert estimate_snr(x, y) == 80.0

    @settings(max_examples=15, deadline=None)
    @given(snr=st.floats(min_value=0.0, max_value=40.0),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_tracks_construction(self, snr, seed):
        x, y = _awgn_pair(100_000, snr, seed=seed)
        assert estimate_snr(x, y) == pytest.approx(snr, abs=0.3)


class TestSharedFit:
    def test_fitted_field_gives_the_same_estimates(self, monkeypatch):
        # the MI and SNR of one fitted pair: one fit, the same numbers
        x, y = _awgn_pair(50_000, 12.0, seed=16)
        pts = qam16_constellation()
        sym = pts[np.random.default_rng(17).integers(0, 16, 50_000)]
        z = ComplexSignal(sym + (y.samples - x.samples), 30e9)
        rings = build_ring_constellation(16)
        want = (estimate_mi(x, y, rings), estimate_snr(x, y),
                estimate_mi_discrete(sym, z, pts), estimate_snr(
                    ComplexSignal(sym, 30e9), z))
        calls = []  # (fitted field or None, the arrays _fit returned)
        fit = metrics._fit

        def counted(x, f_eq):
            out = fit(x, f_eq)
            calls.append((getattr(f_eq, "normalized", None), out[0]))
            return out

        monkeypatch.setattr(metrics, "_fit", counted)
        fy, fz = _fitted(x.samples, y), _fitted(sym, z)
        got = (estimate_mi(x, fy, rings), estimate_snr(x, fy),
               estimate_mi_discrete(sym, fz, pts),
               estimate_snr(ComplexSignal(sym, 30e9), fz))
        assert got == want
        # two fits, then each estimate reads the one it was handed
        assert len(calls) == 6
        assert all(held is None for held, _ in calls[:2])
        assert all(held is y_ for held, y_ in calls[2:])

    def test_another_reference_is_fitted_afresh(self):
        # the fit belongs to one reference array; an equal copy of it, or
        # another reference, gets its own fit
        x, y = _awgn_pair(20_000, 15.0, seed=18)
        other, _ = _awgn_pair(20_000, 15.0, seed=19)
        f = _fitted(x.samples, y)
        assert estimate_snr(other, f) == estimate_snr(other, y)
        copy = ComplexSignal(x.samples.copy(), 30e9)
        assert estimate_snr(copy, f) == estimate_snr(x, y)
