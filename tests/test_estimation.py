"""Tests for inverted-role channel estimation, MDL spectra, impulse responses."""

import numpy as np
import pytest

from wgnlink.channel import (MimoChannel, add_awgn, apply_channel,
                             dispersion_phase, synthesize_mimo_channel)
from wgnlink.estimation import (compare_channels, estimate_channel,
                                impulse_response_from_channel,
                                mdl_from_channel)
from wgnlink.pipeline import PipelineConfig, fde_lms_equalize
from wgnlink.signals import MimoSignal, generate_wgn_mimo

BLOCK = 4096
RATE = 60e9
SPACING = RATE / BLOCK


def _flat_channel(mats_2x2, n_bins=BLOCK, spacing=SPACING):
    mats = np.broadcast_to(mats_2x2, (n_bins, 2, 2)).astype(complex)
    return MimoChannel(mats.copy(), spacing)


class TestEstimateChannel:
    def test_identity_link(self):
        sig = generate_wgn_mimo(2, 300_000, RATE, 1.0, seed=1)
        cfg = PipelineConfig(filter_bw=None, lms_step=0.5, lms_passes=3)
        est = estimate_channel(sig, sig, cfg)
        err = np.linalg.norm(est.matrices - np.eye(2)[None], axis=(1, 2))
        assert np.max(err) < 1e-2

    def test_taps_only_call_matches_full_call(self):
        sig = generate_wgn_mimo(2, 100_000, RATE, 1.0, seed=17)
        truth = synthesize_mimo_channel(2, 1.0, 1e-10, BLOCK, SPACING,
                                        seed=18)
        out = add_awgn(apply_channel(sig, truth), 30.0, seed=19)
        cfg = PipelineConfig(filter_bw=None)
        f_eq, taps_only = fde_lms_equalize(sig, out, cfg, n_output=0)
        _, full = fde_lms_equalize(sig, out, cfg)
        assert f_eq.data.shape == (2, 0) and f_eq.sample_rate == RATE
        assert np.array_equal(taps_only.covariance, full.covariance)
        assert taps_only.residual_nmse_db == full.residual_nmse_db
        assert np.array_equal(taps_only.taps, full.taps)
        assert np.array_equal(taps_only.channel, full.channel)

    def test_known_channel_at_30db(self):
        sig = generate_wgn_mimo(2, 500_000, RATE, 1.0, seed=2)
        truth = synthesize_mimo_channel(2, 2.0, 2e-10, BLOCK, SPACING, seed=3)
        out = add_awgn(apply_channel(sig, truth), 30.0, seed=4)
        cfg = PipelineConfig(filter_bw=None, lms_step=0.4, lms_passes=4)
        est = estimate_channel(sig, out, cfg)
        _, summary = compare_channels(est, truth)
        assert summary < -25.0

    def test_pure_dispersion_phase_profile(self):
        sig = generate_wgn_mimo(2, 400_000, RATE, 1.0, seed=5)
        rot = np.exp(1j * dispersion_phase(np.fft.fftfreq(len(sig), 1 / RATE),
                                           17.0, 78.0, 1550.0))
        out = MimoSignal(np.fft.ifft(np.fft.fft(sig.data, axis=1) * rot,
                                     axis=1), RATE)
        cfg = PipelineConfig(lms_step=0.4, lms_passes=4)
        est = estimate_channel(sig, out, cfg)
        freqs = est.frequencies
        # estimated response is ~ e^{j phi(f)} I; compare the phase of the
        # diagonal average against the analytic profile, modulo the global
        # phase ambiguity (referenced at the bin closest to DC)
        diag = est.matrices[:, 0, 0] + est.matrices[:, 1, 1]
        expected = dispersion_phase(freqs, 17.0, 78.0, 1550.0)
        resid = np.unwrap(np.angle(
            (diag * np.exp(-1j * expected))[np.argsort(freqs)]))
        f_sorted = np.sort(freqs)
        band_s = np.abs(f_sorted) <= 13e9
        # constant and linear phase (global phase + bulk delay) are
        # unobservable; remove them before comparing the quadratic profile
        fit = np.polynomial.polynomial.polyfit(f_sorted[band_s],
                                               resid[band_s], 1)
        detrended = resid[band_s] - np.polynomial.polynomial.polyval(
            f_sorted[band_s], fit)
        assert np.max(np.abs(detrended)) < 0.05


class TestMdlFromChannel:
    def test_unitary_is_zero(self):
        ch = synthesize_mimo_channel(2, 0.0, 1e-10, 512, SPACING, seed=6)
        mdl = mdl_from_channel(ch)
        assert np.all(np.abs(mdl.mdl_db[mdl.valid]) < 1e-6)

    def test_diag_half_gain(self):
        ch = _flat_channel(np.diag([1.0, 0.5]))
        mdl = mdl_from_channel(ch)
        assert np.all(np.abs(mdl.mdl_db - 20 * np.log10(2)) < 1e-9)
        assert mdl.mean_mdl_db() == pytest.approx(6.0206, abs=1e-3)

    def test_multisection_6x6_against_direct_svd(self):
        ch = synthesize_mimo_channel(6, 4.0, 3e-10, 1024, SPACING, seed=7)
        mdl = mdl_from_channel(ch)
        sv = np.linalg.svd(ch.matrices, compute_uv=False)
        direct = np.sort(20 * np.log10(sv[:, 0] / sv[:, -1]))
        assert np.mean(mdl.mdl_db[mdl.valid]) == pytest.approx(
            np.mean(direct), abs=0.1)

    def test_singular_bin_flagged(self):
        mats = np.broadcast_to(np.eye(2), (64, 2, 2)).astype(complex).copy()
        mats[10] = np.array([[1.0, 0.0], [0.0, 0.0]])
        mdl = mdl_from_channel(MimoChannel(mats, SPACING))
        assert np.sum(~mdl.valid) == 1
        assert np.all(np.isfinite(mdl.mdl_db[mdl.valid]))

    def test_frequencies_ascending(self):
        ch = synthesize_mimo_channel(2, 1.0, 0.0, 128, SPACING, seed=8)
        mdl = mdl_from_channel(ch)
        assert np.all(np.diff(mdl.frequencies) > 0)

    def test_svd_consistency_single_section(self):
        # dgd = 0, one section: recomputed MDL equals the request to 1e-6
        from wgnlink.channel import MultiSectionModel
        model = MultiSectionModel(4, 5.0, 0.0, seed=9, n_sections=1)
        ch = model.sample(256, SPACING)
        mdl = mdl_from_channel(ch)
        assert np.all(np.abs(mdl.mdl_db - 5.0) < 1e-6)

    def test_unitary_invariance(self):
        from wgnlink.channel import _random_unitary
        rng = np.random.default_rng(10)
        ch = synthesize_mimo_channel(4, 3.0, 1e-10, 128, SPACING, seed=11)
        u = _random_unitary(4, rng)
        v = _random_unitary(4, rng)
        rotated = MimoChannel(np.einsum("ij,kjl,lm->kim", u, ch.matrices, v),
                              ch.bin_spacing)
        a = mdl_from_channel(ch)
        b = mdl_from_channel(rotated)
        assert np.max(np.abs(a.mdl_db - b.mdl_db)) < 1e-9

    def test_single_mode_rejected(self):
        ch = MimoChannel(np.ones((16, 1, 1), dtype=complex), SPACING)
        with pytest.raises(ValueError):
            mdl_from_channel(ch)


class TestImpulseResponse:
    def test_flat_channel_is_delta(self):
        # the taper's pulse: zero delay, no cross terms, and beyond the
        # support region (n // 16 taps) 100 dB below the peak
        ch = _flat_channel(np.eye(2))
        ir = impulse_response_from_channel(ch)
        power = ir.summed_power()
        peak = int(np.argmax(power))
        assert ir.delays[peak] == pytest.approx(0.0, abs=1e-15)
        assert np.all(ir.taps[:, 0, 1] == 0) and np.all(ir.taps[:, 1, 0] == 0)
        far = np.abs(np.arange(len(power)) - peak) > len(power) // 16
        assert 10 * np.log10(np.max(power[far]) / power[peak]) < -100
        assert ir.dynamic_range_db > 100

    def test_shift_theorem_peak_at_17(self):
        n = 512
        freqs = np.fft.fftfreq(n, d=1.0 / (n * SPACING))
        tau = 17 / (n * SPACING)
        mats = (np.exp(-2j * np.pi * freqs * tau)[:, None, None]
                * np.eye(2)[None])
        ir = impulse_response_from_channel(MimoChannel(mats, SPACING))
        peak = int(np.argmax(ir.summed_power()))
        assert ir.delays[peak] == pytest.approx(17 * ir.tap_spacing,
                                                rel=1e-12)

    def test_parseval_energy(self):
        # the taper is flat to 90 % of the band edge and falls as cos^2 to
        # zero at it; the IFFT keeps the tapered channel's energy
        ch = synthesize_mimo_channel(2, 2.0, 2e-10, 256, SPACING, seed=12)
        edge = 0.3 * 256 * SPACING
        ir = impulse_response_from_channel(ch, band_edge=edge)
        af = np.abs(ch.frequencies)
        ramp = np.clip((af - 0.9 * edge) / (0.1 * edge), 0.0, 1.0)
        w = np.where(af <= edge, np.cos(0.5 * np.pi * ramp) ** 2, 0.0)
        time_energy = float(np.sum(np.abs(ir.taps) ** 2))
        freq_energy = float(np.mean(
            w ** 2 * np.sum(np.abs(ch.matrices) ** 2, axis=(1, 2))))
        assert time_energy == pytest.approx(freq_energy, rel=1e-6)


class TestCompareChannels:
    def test_equal_channels_capped(self):
        ch = synthesize_mimo_channel(2, 1.0, 1e-10, 128, SPACING, seed=13)
        per_bin, summary = compare_channels(ch, ch)
        assert summary == -120.0
        assert np.all(per_bin == -120.0)

    def test_global_phase_invariant(self):
        ch = synthesize_mimo_channel(2, 1.0, 1e-10, 128, SPACING, seed=14)
        rotated = MimoChannel(ch.matrices * np.exp(0.7j), ch.bin_spacing)
        _, summary = compare_channels(rotated, ch)
        assert summary == -120.0

    def test_dimension_mismatch(self):
        a = synthesize_mimo_channel(2, 0.0, 0.0, 64, SPACING, seed=0)
        b = synthesize_mimo_channel(4, 0.0, 0.0, 64, SPACING, seed=0)
        with pytest.raises(ValueError):
            compare_channels(a, b)

    def test_reciprocity_of_roles(self):
        # noiseless invertible channel: the estimated channel agrees with the
        # inverse of the forward equalizer per bin
        sig = generate_wgn_mimo(2, 300_000, RATE, 1.0, seed=15)
        truth = synthesize_mimo_channel(2, 1.0, 1e-10, BLOCK, SPACING,
                                        seed=16)
        out = apply_channel(sig, truth)
        cfg = PipelineConfig(filter_bw=None, lms_step=0.4, lms_passes=4)
        est = estimate_channel(sig, out, cfg)
        _, state = fde_lms_equalize(sig, out, cfg)
        inv = np.linalg.inv(state.taps)
        _, summary = compare_channels(est, MimoChannel(inv, SPACING))
        assert summary < -25.0
