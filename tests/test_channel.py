"""Tests for the linear MIMO channel model and recirculating-loop simulation."""

import math
import warnings

import numpy as np
import pytest

from wgnlink.channel import (_COUPLING_CHUNK, SPEED_OF_LIGHT, LinkConfig,
                             MimoChannel, MultiSectionModel,
                             _dispersion_response, add_awgn, apply_channel,
                             apply_frequency_offset, apply_phase_noise,
                             dispersion_phase, run_link,
                             span_noise_power_ratio, synthesize_mimo_channel)
from wgnlink.pipeline import PipelineConfig, _front_end
from wgnlink.signals import MimoSignal, MimoSpectrum, generate_wgn_mimo


def _nmse_db(est, ref):
    return 10 * np.log10(np.sum(np.abs(est - ref) ** 2)
                         / np.sum(np.abs(ref) ** 2))


def _loop_reference(sig: MimoSignal, cfg: LinkConfig, n_rec: int,
                    seed: int) -> np.ndarray:
    """The link's spectrum loop by loop, whatever its MDL: per loop one span
    of dispersion, the coupling model of the link's seed (if any), then one
    (M, 2N) noise draw at the span ratio times the power measured there."""
    m, n = sig.data.shape
    model_seed, noise_seed, _ = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(noise_seed)
    disp = _dispersion_response(n, sig.sample_rate, cfg.dispersion_coeff,
                                cfg.span_length, cfg.center_wavelength, +1.0)
    model = None
    if cfg.mdl_per_span > 0 or cfg.dgd_per_span > 0:
        model = MultiSectionModel(m, cfg.mdl_per_span, cfg.dgd_per_span,
                                  model_seed, cfg.n_sections)
        rot = model.delay_rotation(np.fft.fftfreq(n, d=1 / sig.sample_rate))
    ratio = span_noise_power_ratio(cfg)
    want = np.fft.fft(sig.data, axis=1)
    for _ in range(n_rec):
        want *= disp
        if model is not None:
            model.apply_spectrum(want, rot)
        power = np.vdot(want, want).real / (m * n * n)
        noise = rng.standard_normal((m, 2 * n)).view(np.complex128)
        noise *= np.sqrt(n * power * ratio / 2.0)
        want += noise
    return want


def _disperse(sig: MimoSignal, cfg: LinkConfig) -> MimoSignal:
    """One span of the fiber's dispersion, as a spectral multiply."""
    rot = _dispersion_response(len(sig), sig.sample_rate, cfg.dispersion_coeff,
                               cfg.span_length, cfg.center_wavelength, +1.0)
    return MimoSignal(np.fft.ifft(np.fft.fft(sig.data, axis=1) * rot, axis=1),
                      sig.sample_rate)


class TestDispersion:
    def test_zero_length_is_identity(self):
        rot = _dispersion_response(4096, 40e9, 17.0, 0.0, 1550.0, +1.0)
        assert np.array_equal(rot, np.ones(4096))

    def test_phase_oracle(self):
        # independently evaluated: pi * lambda0^2 * D * L * f^2 / c
        d_si = 17.0 * 1e-12 / (1e-9 * 1e3)       # s/m^2
        lam = 1550e-9
        expected = (math.pi * lam ** 2 * d_si * 78e3 * (15e9) ** 2
                    / SPEED_OF_LIGHT)
        assert expected == pytest.approx(7.51, abs=0.01)
        got = dispersion_phase(np.array([15e9]), 17.0, 78.0, 1550.0)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_edc_inverts_forward(self):
        fiber, edc = (_dispersion_response(16384, 60e9, 17.0, 78.0, 1550.0,
                                           sign) for sign in (+1.0, -1.0))
        assert np.max(np.abs(fiber * edc - 1.0)) < 1e-12

    def test_invalid_wavelength(self):
        with pytest.raises(ValueError, match="wavelength"):
            _dispersion_response(64, 60e9, 17.0, 78.0, 0.0, +1.0)


class TestSynthesizeChannel:
    def test_zero_mdl_zero_dgd_unitary(self):
        ch = synthesize_mimo_channel(2, 0.0, 0.0, 256, 1e8, seed=3)
        sv = np.linalg.svd(ch.matrices, compute_uv=False)
        assert np.all(np.abs(sv - 1.0) < 1e-9)

    def test_mdl_ratio_exact(self):
        ch = synthesize_mimo_channel(2, 6.0206, 0.0, 128, 1e8, seed=4)
        sv = np.linalg.svd(ch.matrices, compute_uv=False)
        ratio = sv[:, 0] / sv[:, -1]
        assert np.all(np.abs(ratio - 10 ** (6.0206 / 20)) < 1e-6)

    def test_requested_mdl_recovered_per_bin(self):
        for mdl in (0.0, 3.0, 9.5):
            ch = synthesize_mimo_channel(6, mdl, 1e-10, 64, 5e8, seed=5)
            sv = np.linalg.svd(ch.matrices, compute_uv=False)
            got = 20 * np.log10(sv[:, 0] / sv[:, -1])
            assert np.all(np.abs(got - mdl) < 1e-6)

    def test_dgd_sets_delay_spread(self):
        # 1 ns total DGD over a 30 GHz grid: impulse energy spans ~1 ns
        n_bins, spacing = 1024, 30e9 / 1024
        ch = synthesize_mimo_channel(6, 0.0, 1e-9, n_bins, spacing, seed=6)
        taps = np.fft.ifft(ch.matrices, axis=0)
        power = np.sum(np.abs(taps) ** 2, axis=(1, 2))
        t = np.arange(n_bins) / (n_bins * spacing)
        t[t > 0.5 / spacing] -= 1.0 / spacing
        mean_t = np.sum(t * power) / np.sum(power)
        spread = np.sqrt(np.sum((t - mean_t) ** 2 * power) / np.sum(power))
        # delays uniform over [-0.5, 0.5] ns have std ~0.29 ns
        assert 0.15e-9 < spread < 0.5e-9
        support = t[power > power.max() * 1e-3]
        assert support.max() - support.min() > 0.8e-9

    def test_deterministic_per_seed(self):
        a = synthesize_mimo_channel(2, 3.0, 1e-10, 64, 1e8, seed=7)
        b = synthesize_mimo_channel(2, 3.0, 1e-10, 64, 1e8, seed=7)
        assert np.array_equal(a.matrices, b.matrices)

    def test_odd_mode_count_rejected(self):
        with pytest.raises(ValueError):
            synthesize_mimo_channel(3, 0.0, 0.0, 64, 1e8, seed=0)


class TestApplyChannel:
    def test_identity_channel(self):
        sig = generate_wgn_mimo(2, 1024, 1e9, 1.0, seed=8)
        mats = np.broadcast_to(np.eye(2), (1024, 2, 2)).astype(complex)
        ch = MimoChannel(mats.copy(), 1e9 / 1024)
        out = apply_channel(sig, ch)
        assert np.allclose(out.as_array(), sig.as_array(), atol=1e-12)

    def test_diagonal_scaling(self):
        sig = generate_wgn_mimo(2, 65536, 1e9, 1.0, seed=9)
        mats = np.broadcast_to(np.diag([1.0, 0.5]), (256, 2, 2)).astype(complex)
        ch = MimoChannel(mats.copy(), 1e9 / 256)
        out = apply_channel(sig, ch)
        p_in = np.mean(np.abs(sig.tributaries[1].samples) ** 2)
        p_out = np.mean(np.abs(out.tributaries[1].samples) ** 2)
        assert p_out / p_in == pytest.approx(0.25, rel=1e-9)

    def test_unitary_power_conservation(self):
        sig = generate_wgn_mimo(2, 4096, 1e9, 1.0, seed=10)
        ch = synthesize_mimo_channel(2, 0.0, 1e-9, 4096, 1e9 / 4096, seed=11)
        out = apply_channel(sig, ch)
        p_in = np.mean(np.abs(sig.as_array()) ** 2)
        p_out = np.mean(np.abs(out.as_array()) ** 2)
        assert abs(p_out / p_in - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        sig = generate_wgn_mimo(2, 64, 1e9, 1.0, seed=0)
        ch = synthesize_mimo_channel(6, 0.0, 0.0, 64, 1e7, seed=0)
        with pytest.raises(ValueError):
            apply_channel(sig, ch)


class TestAddAwgn:
    def test_infinite_snr_unchanged(self):
        sig = generate_wgn_mimo(2, 1000, 1e9, 1.0, seed=12)
        out = add_awgn(sig, float("inf"), seed=1)
        assert np.array_equal(out.as_array(), sig.as_array())

    def test_measured_snr(self):
        sig = generate_wgn_mimo(2, 1_000_000, 1e9, 1.0, seed=13)
        out = add_awgn(sig, 10.0, seed=2)
        noise = out.as_array() - sig.as_array()
        snr = (np.mean(np.abs(sig.as_array()) ** 2)
               / np.mean(np.abs(noise) ** 2))
        assert 10 * np.log10(snr) == pytest.approx(10.0, abs=0.1)

    def test_seeds_differ_statistics_match(self):
        sig = generate_wgn_mimo(2, 100_000, 1e9, 1.0, seed=14)
        a = add_awgn(sig, 10.0, seed=1)
        b = add_awgn(sig, 10.0, seed=2)
        assert not np.array_equal(a.as_array(), b.as_array())
        pa = np.mean(np.abs(a.as_array() - sig.as_array()) ** 2)
        pb = np.mean(np.abs(b.as_array() - sig.as_array()) ** 2)
        assert pa == pytest.approx(pb, rel=0.05)


class TestPhaseNoise:
    def test_zero_linewidth_unchanged(self):
        sig = generate_wgn_mimo(2, 1000, 40e9, 1.0, seed=15)
        out = apply_phase_noise(sig, 0.0, seed=1)
        assert np.array_equal(out.as_array(), sig.as_array())

    def test_increment_variance(self):
        sig = MimoSignal(np.ones((1, 1_000_000), dtype=complex), 40e9)
        out = apply_phase_noise(sig, 10e3, seed=3)
        phi = np.unwrap(np.angle(out.tributaries[0].samples))
        var = np.var(np.diff(phi))
        assert var == pytest.approx(2 * np.pi * 10e3 / 40e9, rel=0.05)

    def test_common_across_tributaries(self):
        sig = MimoSignal(np.ones((3, 1000), dtype=complex), 40e9)
        out = apply_phase_noise(sig, 1e6, seed=4)
        arr = out.as_array()
        assert np.allclose(arr[0], arr[1]) and np.allclose(arr[0], arr[2])

    def test_long_term_drift_small_at_1hz(self):
        # linewidth 1 Hz at 40 GS/s: drift std over 8M samples is
        # sqrt(2*pi*1*0.2e-3) ~ 0.035 rad << 1
        sig = MimoSignal(np.ones((1, 8_000_000), dtype=complex), 40e9)
        drifts = []
        for seed in range(5):
            out = apply_phase_noise(sig, 1.0, seed=seed)
            phi = np.unwrap(np.angle(out.tributaries[0].samples))
            drifts.append(phi[-1] - phi[0])
        expected_std = np.sqrt(2 * np.pi * 1.0 * 8e6 / 40e9)
        assert expected_std < 0.05
        assert np.max(np.abs(drifts)) < 5 * expected_std


class TestFrequencyOffset:
    def test_zero_offset_unchanged(self):
        sig = generate_wgn_mimo(2, 100, 1e9, 1.0, seed=16)
        assert np.array_equal(apply_frequency_offset(sig, 0.0).as_array(),
                              sig.as_array())

    def test_tone_shifts(self):
        n = 4096
        t = np.arange(n) / 40e9
        sig = MimoSignal(np.exp(2j * np.pi * 2e9 * t)[None, :], 40e9)
        out = apply_frequency_offset(sig, 1e9)
        spec = np.abs(np.fft.fft(out.tributaries[0].samples))
        f = np.fft.fftfreq(n, d=1 / 40e9)
        assert f[np.argmax(spec)] == pytest.approx(3e9, abs=40e9 / n)

    def test_offset_round_trip(self):
        sig = generate_wgn_mimo(2, 1000, 40e9, 1.0, seed=17)
        out = apply_frequency_offset(apply_frequency_offset(sig, 1.7e9),
                                     -1.7e9)
        assert np.allclose(out.as_array(), sig.as_array(), atol=1e-12)

    def test_beyond_nyquist_rejected(self):
        sig = generate_wgn_mimo(2, 100, 1e9, 1.0, seed=0)
        with pytest.raises(ValueError):
            apply_frequency_offset(sig, 0.6e9)


class TestScalarArguments:
    @pytest.mark.parametrize("call, name", [
        (lambda s: add_awgn(s, math.nan, seed=1), "snr_db"),
        (lambda s: add_awgn(s, -math.inf, seed=1), "snr_db"),
        (lambda s: apply_phase_noise(s, math.nan, seed=1), "linewidth"),
        (lambda s: apply_phase_noise(s, math.inf, seed=1), "linewidth"),
        (lambda s: apply_frequency_offset(s, math.nan), "offset"),
        # finite, but 10 ** (snr_db / 10) underflows to 0 or overflows
        (lambda s: add_awgn(s, -4000.0, seed=1), "snr_db"),
        (lambda s: add_awgn(s, 4000.0, seed=1), "snr_db"),
    ], ids=["awgn-nan", "awgn-minus-inf", "phase-nan", "phase-inf",
            "offset-nan", "awgn-underflow", "awgn-overflow"])
    def test_rejected_by_name(self, call, name):
        # named where the scalar enters, with no numpy warning on the way
        sig = generate_wgn_mimo(2, 100, 1e9, 1.0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=name):
                call(sig)


class TestRunLink:
    def test_noise_accumulates_linearly(self):
        cfg = LinkConfig(span_snr_db=20.0, nlin_coeff=0.0)
        sig = generate_wgn_mimo(2, 400_000, 40e9, 1.0, seed=18)
        powers = []
        for n_rec in (1, 4):
            out = run_link(sig, cfg, n_rec, seed=5)
            clean = sig.as_array()
            for _ in range(n_rec):
                clean = np.fft.ifft(
                    np.fft.fft(clean, axis=1)
                    * np.exp(1j * dispersion_phase(
                        np.fft.fftfreq(clean.shape[1], d=1 / 40e9),
                        17.0, 78.0, 1550.0))[None, :], axis=1)
            powers.append(np.mean(np.abs(out.as_array() - clean) ** 2))
        # loop l adds r times the power it measures, which the earlier
        # loops' noise has raised to (1 + r)^l: geometric, not linear
        r = span_noise_power_ratio(cfg)
        assert powers[1] / powers[0] == pytest.approx(((1 + r) ** 4 - 1) / r,
                                                      rel=0.01)

    def test_noiseless_link_edc_invertible(self):
        # zero noise / MDL / DGD: EDC alone inverts the whole link
        cfg = LinkConfig(span_snr_db=float("inf"), nlin_coeff=0.0)
        sig = generate_wgn_mimo(2, 65536, 40e9, 1.0, seed=19)
        out = run_link(sig, cfg, 3, seed=6)
        back = _front_end(out, PipelineConfig(target_rate=40e9,
                                              filter_bw=None),
                          cfg, 3 * cfg.span_length)
        assert _nmse_db(np.fft.ifft(back.data, axis=1),
                        sig.as_array()) < -80

    def test_deterministic(self):
        cfg = LinkConfig(mdl_per_span=1.0, dgd_per_span=1e-10)
        sig = generate_wgn_mimo(2, 20_000, 40e9, 1.0, seed=20)
        a = run_link(sig, cfg, 2, seed=7)
        b = run_link(sig, cfg, 2, seed=7)
        assert np.array_equal(a.as_array(), b.as_array())

    def test_noiseless_coupled_link_matches_materialized_channel(self):
        # the spectral loop with its once-built DGD rotation against the
        # per-span time-domain chain: dispersion, then the sampled matrices;
        # n spans two full coupling chunks and a partial one.  With MDL the
        # link runs span by span; DGD alone takes the one-pass path, the
        # dispersion of all three spans in one multiply
        n, rate, seed = 2 * _COUPLING_CHUNK + 7232, 40e9, 11
        sig = generate_wgn_mimo(2, n, rate, 1.0, seed=22)
        model_seed = np.random.SeedSequence(seed).spawn(3)[0]
        for mdl in (2.0, 0.0):
            cfg = LinkConfig(span_snr_db=float("inf"), nlin_coeff=0.0,
                             mdl_per_span=mdl, dgd_per_span=5e-11)
            out = run_link(sig, cfg, 3, seed=seed)
            channel = MultiSectionModel(2, mdl, cfg.dgd_per_span, model_seed,
                                        cfg.n_sections).sample(n, rate / n)
            ref = sig
            for _ in range(3):
                ref = apply_channel(_disperse(ref, cfg), channel)
            np.testing.assert_allclose(out.as_array(), ref.as_array(),
                                       rtol=0, atol=1e-10)

    def test_span_noise_power_and_whiteness(self):
        cfg = LinkConfig(span_snr_db=20.0, nlin_coeff=0.0)
        sig = generate_wgn_mimo(2, 400_000, 40e9, 1.0, seed=23)
        out = run_link(sig, cfg, 1, seed=12)
        clean = _disperse(sig, cfg).as_array()
        noise = out.as_array() - clean
        ratio = np.mean(np.abs(noise) ** 2) / np.mean(np.abs(clean) ** 2)
        assert ratio == pytest.approx(0.01, rel=0.02)
        spec = np.abs(np.fft.fft(noise, axis=1)) ** 2
        inner = np.abs(np.fft.fftfreq(noise.shape[1])) < 0.25
        assert (np.mean(spec[:, inner]) / np.mean(spec[:, ~inner])
                == pytest.approx(1.0, rel=0.03))

    @pytest.mark.parametrize("impairments", [
        {}, {"lo_linewidth": 1e5}, {"frequency_offset": 1e9}],
        ids=["spectral", "lo-noise", "offset"])
    def test_spectrum_in_spectrum_out(self, impairments):
        cfg = LinkConfig(mdl_per_span=1.0, dgd_per_span=1e-10, **impairments)
        sig = generate_wgn_mimo(2, 20_000, 40e9, 1.0, seed=24)
        spec = MimoSpectrum.of(sig)
        bins = spec.data.copy()
        out = run_link(spec, cfg, 2, seed=8)
        assert isinstance(out, MimoSpectrum) and out.sample_rate == 40e9
        assert np.array_equal(spec.data, bins)
        ref = np.fft.fft(run_link(sig, cfg, 2, seed=8).data, axis=1)
        assert np.max(np.abs(out.data - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_mode_count_mismatch(self):
        cfg = LinkConfig(n_modes=6)
        sig = generate_wgn_mimo(2, 1000, 40e9, 1.0, seed=0)
        with pytest.raises(ValueError):
            run_link(sig, cfg, 1, seed=0)

    def test_invalid_recirculations(self):
        cfg = LinkConfig()
        sig = generate_wgn_mimo(2, 1000, 40e9, 1.0, seed=0)
        with pytest.raises(ValueError):
            run_link(sig, cfg, 0, seed=0)


class TestSpanNoise:
    def test_peak_at_quarter_power_law(self):
        # P/(N + eta P^3) peaks at P = (N / 2 eta)^(1/4)
        cfg = LinkConfig(span_snr_db=22.0, nlin_coeff=0.00315)
        n_ase = 10 ** (-22.0 / 10)
        p_star_dbm = 10 * np.log10((n_ase / (2 * 0.00315)) ** 0.25)
        grid = np.linspace(-6, 6, 121)
        ratios = [span_noise_power_ratio(
            LinkConfig(span_snr_db=22.0, nlin_coeff=0.00315,
                       launch_power_dbm=p)) for p in grid]
        assert grid[int(np.argmin(ratios))] == pytest.approx(p_star_dbm,
                                                             abs=0.1)
        assert abs(p_star_dbm) < 1.0  # default calibration peaks near 0 dBm

    def test_noise_drawn_in_chunks_is_one_draw(self):
        # each row's 2 x 40,001 floats take two full chunks of the draw
        # buffer and a ragged one; a link with MDL, which adds its noise
        # loop by loop, must add the numbers of one (M, 2N) draw per span,
        # bit for bit
        cfg = LinkConfig(span_snr_db=20.0, mdl_per_span=0.5)
        n, rate, seed = 40_001, 40e9, 13
        assert 2 * _COUPLING_CHUNK < 2 * n < 6 * _COUPLING_CHUNK
        sig = generate_wgn_mimo(2, n, rate, 1.0, seed=26)
        got = run_link(MimoSpectrum.of(sig), cfg, 2, seed=seed).data
        assert np.array_equal(got, _loop_reference(sig, cfg, 2, seed))

    @pytest.mark.parametrize("dgd", [0.0, 1e-11], ids=["plain", "dgd"])
    def test_one_loop_without_mdl_is_the_loop(self, dgd):
        # one loop of the one-draw path: the dispersion of one span and the
        # loop's gain r, so the same numbers as the loop
        cfg = LinkConfig(span_snr_db=20.0, dgd_per_span=dgd)
        sig = generate_wgn_mimo(2, 40_001, 40e9, 1.0, seed=27)
        got = run_link(MimoSpectrum.of(sig), cfg, 1, seed=14).data
        assert np.array_equal(got, _loop_reference(sig, cfg, 1, 14))

    @pytest.mark.parametrize("n_rec", [5, 20])
    @pytest.mark.parametrize("dgd", [0.0, 1e-11], ids=["plain", "dgd"])
    def test_one_draw_noise_matches_the_loop(self, n_rec, dgd):
        # output noise power per bin, summed over 32 seeds and both
        # tributaries and read in 16 bands of 256 bins: each band holds
        # 16,384 exponential terms, so one draw over the loop is 1 +- 1.1%
        # per band; bound 5%.  The loops draw from other seeds, so the two
        # sides are independent.  Both totals, 262,144 terms each, match
        # (1 + r)^L - 1 within 1% (0.2% expected)
        cfg = LinkConfig(span_snr_db=20.0, nlin_coeff=0.0, dgd_per_span=dgd)
        quiet = LinkConfig(span_snr_db=float("inf"), nlin_coeff=0.0,
                           dgd_per_span=dgd)
        n, rate, seeds = 4096, 40e9, range(32)
        sig = generate_wgn_mimo(2, n, rate, 1.0, seed=28)
        spec = MimoSpectrum.of(sig)

        def noise_power(out, seed):  # per bin, summed over the tributaries
            clean = run_link(spec, quiet, n_rec, seed).data
            return np.sum(np.abs(out - clean) ** 2, axis=0)

        one = sum(noise_power(run_link(spec, cfg, n_rec, s).data, s)
                  for s in seeds)
        loop = sum(noise_power(_loop_reference(sig, cfg, n_rec, 1000 + s),
                               1000 + s) for s in seeds)
        bands = one.reshape(16, -1).sum(1) / loop.reshape(16, -1).sum(1)
        assert np.all(np.abs(bands - 1) < 0.05), bands
        r = span_noise_power_ratio(cfg)
        # the noise of each seed carries (1 + r)^L - 1 times the power of
        # the spans' unitary output, which is the input's
        expect = (np.vdot(spec.data, spec.data).real * len(seeds)
                  * ((1 + r) ** n_rec - 1))
        assert one.sum() == pytest.approx(expect, rel=0.01)
        assert loop.sum() == pytest.approx(expect, rel=0.01)


class TestNoiseOverflow:
    # at 100 dBm the span noise ratio is about 3e17: over 20 loops the
    # one-draw gain leaves float64, and with MDL a later loop's power does
    @pytest.mark.parametrize("mdl", [0.0, 0.5], ids=["one-draw", "mdl"])
    def test_named_by_power_coefficient_and_loops(self, mdl):
        cfg = LinkConfig(launch_power_dbm=100.0, mdl_per_span=mdl)
        spec = MimoSpectrum.of(generate_wgn_mimo(2, 4096, 40e9, 1.0, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"launch_power_dbm 100, "
                               r"nlin_coeff 0\.00315, 20 loops"):
                run_link(spec, cfg, 20, seed=1)

    @pytest.mark.parametrize("mdl", [0.0, 0.5], ids=["one-draw", "mdl"])
    def test_below_the_overflow_stays_finite(self, mdl):
        cfg = LinkConfig(launch_power_dbm=100.0, mdl_per_span=mdl)
        spec = MimoSpectrum.of(generate_wgn_mimo(2, 4096, 40e9, 1.0, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_link(spec, cfg, 5, seed=1)
        assert np.isfinite(out.data).all()


class TestLinkConfig:
    def test_odd_modes_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig(n_modes=3)

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig(span_length=-1.0)

    def test_negative_mdl_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig(mdl_per_span=-0.5)
