"""Tests for the linear MIMO channel model and recirculating-loop simulation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wgnlink import channel
from wgnlink.channel import (_COUPLING_CHUNK, SPEED_OF_LIGHT, LinkConfig,
                             MimoChannel, MultiSectionModel,
                             _dispersion_response, _grid_size, _link_response,
                             add_awgn, apply_channel, apply_frequency_offset,
                             apply_phase_noise, dispersion_phase, run_link,
                             span_noise_power_ratio, synthesize_mimo_channel)
from wgnlink.pipeline import PipelineConfig, _front_end
from wgnlink.signals import MimoSignal, MimoSpectrum, generate_wgn_mimo


def _nmse_db(est, ref):
    with np.errstate(divide="ignore"):  # -inf where the two are equal
        return 10 * np.log10(np.sum(np.abs(est - ref) ** 2)
                             / np.sum(np.abs(ref) ** 2))


def _loop_reference(sig: MimoSignal, cfg: LinkConfig, n_rec: int,
                    seed: int, noise_seed=None) -> np.ndarray:
    """The link's spectrum loop by loop: per loop one span of dispersion,
    the coupling model of the link's seed (if any), then one (M, 2N) noise
    draw at the span ratio times the power measured there.  The noise comes
    from the link's seed, or from `noise_seed` if given."""
    m, n = sig.data.shape
    model_seed, link_noise_seed, _ = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(link_noise_seed if noise_seed is None
                                else noise_seed)
    disp = _dispersion_response(n, sig.sample_rate, cfg.dispersion_coeff,
                                cfg.span_length, cfg.center_wavelength, +1.0)
    span = None
    if cfg.mdl_per_span > 0 or cfg.dgd_per_span > 0:
        span = MultiSectionModel(m, cfg.mdl_per_span, cfg.dgd_per_span,
                                 model_seed, cfg.n_sections).sample(
                                     n, sig.sample_rate / n).matrices
    ratio = span_noise_power_ratio(cfg)
    want = np.fft.fft(sig.data, axis=1)
    for _ in range(n_rec):
        want *= disp
        if span is not None:
            want = np.einsum("kij,jk->ik", span, want)
        power = np.vdot(want, want).real / (m * n * n)
        noise = rng.standard_normal((m, 2 * n)).view(np.complex128)
        noise *= np.sqrt(n * power * ratio / 2.0)
        want += noise
    return want


def _one_pass_reference(sig: MimoSignal, cfg: LinkConfig, n_rec: int,
                        seed: int) -> np.ndarray:
    """The spectrum of a link without DGD in one pass: the dispersion of
    all the spans per bin, then the constant ``T`` and, per chunk of
    ``_COUPLING_CHUNK`` bins, one (M, 2k) draw coloured by the Cholesky
    factor of ``N P K``, with ``(T, K)`` from :func:`_link_response` at one
    frequency and P the launched power.  Each entry is added to the output
    in the link's order, so the numbers are the link's."""
    assert cfg.dgd_per_span == 0
    spec = MimoSpectrum.of(sig).data
    m, n = spec.shape
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
    t, cov = (a[:, :, 0] for a in _link_response(cfg, n_rec, seed,
                                                  np.zeros(1)))
    power = np.vdot(spec, spec).real / (m * n * n)
    factor = np.linalg.cholesky(cov * (n * power / 2.0))
    k = np.arange(n)
    k[(n + 1) // 2:] -= n
    x = spec * np.exp(1j * dispersion_phase(
        k * (sig.sample_rate / n), cfg.dispersion_coeff,
        n_rec * cfg.span_length, cfg.center_wavelength))
    want = np.zeros_like(x)
    for s in range(0, n, _COUPLING_CHUNK):
        chunk = slice(s, s + _COUPLING_CHUNK)
        z = rng.standard_normal((m, 2 * x[:, chunk].shape[1])).view(complex)
        for i in range(m):
            for j in range(m):
                want[i, chunk] += t[i, j] * x[j, chunk]
            for j in range(i + 1):
                want[i, chunk] += factor[i, j] * z[j]
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
        (lambda s: synthesize_mimo_channel(2, 1.0, -1e-10, 64, 1e6, seed=1),
         "dgd"),
        (lambda s: synthesize_mimo_channel(2, 1.0, 1e-10, 64, 1e6, seed=1,
                                           n_sections=0), "n_sections"),
    ], ids=["awgn-nan", "awgn-minus-inf", "phase-nan", "phase-inf",
            "offset-nan", "awgn-underflow", "awgn-overflow",
            "model-negative-dgd", "model-no-sections"])
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
        # the one pass against the per-span time-domain chain: dispersion,
        # then the sampled matrices, three times.  n spans two full
        # coupling chunks and a partial one.  The pass interpolates H^3
        # from its grid; over 5e-11 s of DGD per span the cubic's error
        # reads below -250 dB here, rounding included; bound -140 dB
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
            assert _nmse_db(out.as_array(), ref.as_array()) < -140

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

    @pytest.mark.parametrize("n_rec", [1, 5])
    @pytest.mark.parametrize("mdl", [0.0, 0.5], ids=["plain", "mdl"])
    def test_link_without_dgd_is_the_one_pass(self, mdl, n_rec):
        # 40,001 bins take two full chunks and a ragged one, each with its
        # own (M, 2k) draw; a link without DGD, coupled by MDL or not, adds
        # the numbers of the one-pass reference bit for bit
        cfg = LinkConfig(span_snr_db=20.0, mdl_per_span=mdl)
        n, rate, seed = 40_001, 40e9, 13
        assert 2 * _COUPLING_CHUNK < n < 3 * _COUPLING_CHUNK
        sig = generate_wgn_mimo(2, n, rate, 1.0, seed=26)
        got = run_link(MimoSpectrum.of(sig), cfg, n_rec, seed=seed).data
        assert np.array_equal(got,
                              _one_pass_reference(sig, cfg, n_rec, seed))

    @pytest.mark.parametrize("n_rec", [1, 5, 20])
    def test_uncoupled_response_is_the_closed_form(self, n_rec):
        # without MDL and DGD, H = I: T = I and K = ((1 + r)^L - 1) I at
        # every frequency, the loops' noise at the output
        cfg = LinkConfig(span_snr_db=20.0)
        freqs = np.linspace(-20e9, 20e9, 7)
        t, cov = _link_response(cfg, n_rec, 3, freqs)
        eye = np.eye(2)[:, :, None]
        r = span_noise_power_ratio(cfg)
        assert t.shape == cov.shape == (2, 2, 7)
        assert np.max(np.abs(t - eye)) < 1e-12
        assert np.max(np.abs(cov - ((1 + r) ** n_rec - 1) * eye)) < 1e-12

    @pytest.mark.parametrize("mdl", [0.0, 0.5], ids=["plain", "mdl"])
    def test_field_of_no_power_stays_zero(self, mdl):
        # the noise scales with the launched power: a field of none leaves
        # the link all zero, with coupling too, where K = 0 has no Cholesky
        # factor, and without a warning
        cfg = LinkConfig(span_snr_db=20.0, mdl_per_span=mdl)
        spec = MimoSpectrum.of(MimoSignal(np.zeros((2, 4096), complex), 40e9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_link(spec, cfg, 5, seed=1)
        assert not out.data.any()

    @pytest.mark.parametrize("n_rec", [1, 5, 20])
    @pytest.mark.parametrize("n_modes, mdl, dgd", [
        (2, 0.0, 0.0), (2, 0.0, 1e-11), (2, 0.5, 1e-11), (4, 0.5, 1e-11),
        (2, 0.5, 0.0)], ids=["plain", "dgd", "mdl-2", "mdl-4", "mdl-only"])
    def test_one_draw_noise_matches_the_loop(self, n_rec, n_modes, mdl,
                                             dgd):
        # the output noise's M x M covariance, summed over 32 link seeds
        # and read in 16 bands of 256 bins, against the link's own N P K
        # and against the loop's noise.  The loop takes the coupling of
        # the same seed and draws from other seeds, so the two noises are
        # independent.  Each band sums 8,192 outer products, so its
        # covariance errs by about 1/sqrt(8192) = 1.1% of its trace, and
        # the worst band of each case read up to 2.0% (2.7% between the
        # two estimates); bound 3.5% (4.5%).  White noise at K's trace
        # reads 5% off K with MDL at two modes and 20 loops.  Without MDL
        # K is (1 + r)^L - 1 times the identity, and both traces match
        # that within 1%
        cfg = LinkConfig(n_modes=n_modes, span_snr_db=20.0, nlin_coeff=0.0,
                         mdl_per_span=mdl, dgd_per_span=dgd)
        quiet = LinkConfig(n_modes=n_modes, span_snr_db=float("inf"),
                           nlin_coeff=0.0, mdl_per_span=mdl, dgd_per_span=dgd)
        n, rate, seeds = 4096, 40e9, range(32)
        sig = generate_wgn_mimo(n_modes, n, rate, 1.0, seed=28)
        spec = MimoSpectrum.of(sig)
        power = np.vdot(spec.data, spec.data).real / (n_modes * n * n)
        freqs = np.fft.fftfreq(n, d=1 / rate)

        def bands(noise):  # (16, M, M): outer products summed per band
            noise = noise.reshape(n_modes, 16, -1)
            return np.einsum("ibk,jbk->bij", noise, noise.conj())

        one, loop, expect = 0, 0, 0
        for s in seeds:
            one = one + bands(run_link(spec, cfg, n_rec, s).data
                              - run_link(spec, quiet, n_rec, s).data)
            loop = loop + bands(
                _loop_reference(sig, cfg, n_rec, s, noise_seed=1000 + s)
                - _loop_reference(sig, quiet, n_rec, s))
            cov = _link_response(cfg, n_rec, s, freqs)[1]
            expect = expect + n * power * cov.reshape(
                n_modes, n_modes, 16, -1).sum(axis=3).transpose(2, 0, 1)

        def error(got, want):  # per band, relative to the band's trace
            return (np.linalg.norm(got - want, axis=(1, 2))
                    / np.trace(want, axis1=1, axis2=2).real)

        assert np.all(error(one, expect) < 0.035), error(one, expect)
        assert np.all(error(loop, expect) < 0.035), error(loop, expect)
        assert np.all(error(one, loop) < 0.045), error(one, loop)
        if mdl == 0:
            r = span_noise_power_ratio(cfg)
            total = (np.vdot(spec.data, spec.data).real * len(seeds)
                     * ((1 + r) ** n_rec - 1))
            for got in (one, loop):
                assert np.trace(got, axis1=1, axis2=2).sum().real == \
                    pytest.approx(total, rel=0.01)


class TestNoiseOverflow:
    # at 100 dBm the span noise ratio is about 3e17: over 20 loops a later
    # loop's power in the recursion of K leaves float64, on a link without
    # coupling ("one-draw") as on one with MDL
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


class TestOnePass:
    # every link applies T = D^L H^L and adds noise of covariance N P K in
    # one pass: with DGD, H^L and K come from a grid of B + 1 frequencies,
    # without it from one frequency, and without MDL either H = I
    @pytest.mark.parametrize("n_rec", [1, 5, 20])
    @pytest.mark.parametrize("n_modes, mdl, dgd", [
        (2, 0.5, 1e-11), (4, 0.5, 1e-11), (6, 0.5, 1e-11), (2, 0.0, 0.0),
        (2, 0.5, 0.0)], ids=["2", "4", "6", "plain", "mdl"])
    def test_noiseless_link_matches_the_loop(self, n_modes, mdl, dgd, n_rec):
        # 0.5 dB MDL and 10 ps DGD per span: the cubic interpolation of
        # H^L reads below -250 dB; bound -140 dB.  Without DGD nothing is
        # interpolated
        cfg = LinkConfig(n_modes=n_modes, span_snr_db=float("inf"),
                         nlin_coeff=0.0, mdl_per_span=mdl, dgd_per_span=dgd)
        sig = generate_wgn_mimo(n_modes, 40_001, 40e9, 1.0, seed=29)
        got = run_link(MimoSpectrum.of(sig), cfg, n_rec, seed=15).data
        ref = _loop_reference(sig, cfg, n_rec, 15)
        assert _nmse_db(got, ref) < -140

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_long_delay_spread_matches_the_loop(self, seed):
        # 2 ns of DGD per span over 20 loops spread the paths over up to
        # 40 ns, 1,600 samples: B = 65,536 grid steps, fewer than the
        # 200,000 bins.  Six coupling realizations read -151 to -179 dB;
        # linear interpolation on this grid read -81 to -95 dB.  Bound
        # -90 dB
        cfg = LinkConfig(span_snr_db=float("inf"), nlin_coeff=0.0,
                         mdl_per_span=0.5, dgd_per_span=2e-9)
        sig = generate_wgn_mimo(2, 200_000, 40e9, 1.0, seed=30)
        assert _grid_size(cfg, 20, 40e9, 200_000) == 65_536
        got = run_link(MimoSpectrum.of(sig), cfg, 20, seed=seed).data
        assert _nmse_db(got, _loop_reference(sig, cfg, 20, seed)) < -90

    @pytest.mark.parametrize("n", [1001, 4096])
    def test_grid_of_the_bins_is_exact(self, n):
        # at B = N the grid holds the FFT bins themselves, odd N included:
        # 0.5 ns DGD per span over 5 loops reads below -280 dB, where a
        # grid half a step off the bins read -120 dB at N = 1001; bound
        # -250 dB
        cfg = LinkConfig(span_snr_db=float("inf"), nlin_coeff=0.0,
                         mdl_per_span=0.5, dgd_per_span=5e-10)
        sig = generate_wgn_mimo(2, n, 40e9, 1.0, seed=32)
        assert _grid_size(cfg, 5, 40e9, n) == n
        got = run_link(MimoSpectrum.of(sig), cfg, 5, seed=2).data
        assert _nmse_db(got, _loop_reference(sig, cfg, 5, 2)) < -250

    @pytest.mark.parametrize("dgd, n_rec, n, b", [
        (1e-11, 20, 1 << 20, 4096), (1e-11, 20, 1000, 1000),
        (2e-9, 20, 1 << 20, 65_536), (2e-9, 1, 1 << 20, 4096),
        (2e-9, 20, 40_001, 40_001), (0.0, 5, 1 << 20, 0),
        (0.0, 20, 1000, 0)])
    def test_grid_size(self, dgd, n_rec, n, b):
        # the smallest power of two of at least 4096 and 40 steps per
        # sample of the L * dgd spread, at most the bin count; without DGD
        # none, the one point of a flat H
        cfg = LinkConfig(mdl_per_span=0.5, dgd_per_span=dgd)
        assert _grid_size(cfg, n_rec, 40e9, n) == b

    @pytest.mark.parametrize("n_rec", [1, 20])
    def test_one_point_matches_the_grid(self, monkeypatch, n_rec):
        # an MDL-only link takes (T, K) at one frequency and applies it as
        # constant matrices; forced through the grid of 4,097 points and
        # the cubic, the same link, noise included, reads about -300 dB
        # from it: the cubic interpolates a constant to within rounding.
        # Bound -250 dB
        cfg = LinkConfig(n_modes=4, span_snr_db=20.0, mdl_per_span=0.5)
        spec = MimoSpectrum.of(generate_wgn_mimo(4, 40_001, 40e9, 1.0,
                                                 seed=33))
        assert _grid_size(cfg, n_rec, 40e9, 40_001) == 0
        got = run_link(spec, cfg, n_rec, seed=18).data
        monkeypatch.setattr(channel, "_grid_size",
                            lambda cfg, n_rec, rate, n: 4096)
        ref = run_link(spec, cfg, n_rec, seed=18).data
        assert _nmse_db(got, ref) < -250

    def test_one_point_skips_its_zero_entries(self):
        # a one-point grid applies only its nonzero entries, so T = I and
        # the diagonal factor of a link without coupling cost M
        # multiply-adds per bin, not M^2.  Rows 0 and 2 stay finite while
        # mode 1 carries nan, which a multiply by their zero entries (0, 1)
        # and (2, 1) would spread to them
        values = np.diag([1.0, 2.0, 3.0]).astype(complex)[:, :, None]
        x = np.ones((3, 5), complex)
        x[1] = np.nan
        out = np.zeros((3, 5), complex)
        channel._add_mat_vec(values, None, x, out)
        assert np.array_equal(out[0], np.ones(5))
        assert np.array_equal(out[2], np.full(5, 3.0))
        channel._add_mat_vec(values, None, x, out, lower=True)
        assert np.array_equal(out[2], np.full(5, 6.0))

    def test_link_holds_its_spectrum_and_a_chunk(self):
        # the link holds its copy of the spectrum (2N complex, 16 MB); the
        # grid of 4,099 frequencies, the chunk buffers and the chunk's
        # temporaries take about 4.8 MB.  A per-bin 2 x 2 transfer held at
        # full length (4N complex), a full-length dispersion (N) or a
        # frequency grid (N floats, and fftfreq's integers) would exceed
        # the bound
        n = 1 << 19
        spec = MimoSpectrum.of(generate_wgn_mimo(2, n, 40e9, 1.0, seed=31))
        cfg = LinkConfig(mdl_per_span=0.5, dgd_per_span=1e-11)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_link(spec, cfg, 20, seed=17)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = 2 * n * 16
        assert peak < held + 7 * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("mdl", [0.0, 0.5], ids=["plain", "mdl"])
    def test_link_without_dgd_holds_its_spectrum_and_a_chunk(self, mdl):
        # without DGD there is no grid: beyond its copy of the spectrum the
        # link holds one chunk's dispersion, draw and temporaries, 1.9 MB
        # here.  A full-length dispersion (N complex and N floats, 12 MB)
        # or the grid of 4,099 frequencies (4.8 MB) would exceed the bound
        n = 1 << 19
        spec = MimoSpectrum.of(generate_wgn_mimo(2, n, 40e9, 1.0, seed=31))
        cfg = LinkConfig(mdl_per_span=mdl)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_link(spec, cfg, 20, seed=17)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * 16 + 3 * 2 ** 20, peak / 2 ** 20


class TestSpanNoiseOverflow:
    # finite config values whose span noise terms leave float64 range
    @pytest.mark.parametrize("cfg", [LinkConfig(launch_power_dbm=1100.0),
                                     LinkConfig(span_snr_db=-4000.0)],
                             ids=["cube", "ase"])
    def test_overflowing_term_is_inf(self, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert span_noise_power_ratio(cfg) == math.inf

    def test_cube_does_not_count_without_nlin(self):
        # 10**-2.2 mW of ASE over 1e110 mW: a finite ratio, a working link
        cfg = LinkConfig(launch_power_dbm=1100.0, nlin_coeff=0.0)
        spec = MimoSpectrum.of(generate_wgn_mimo(2, 4096, 40e9, 1.0, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = span_noise_power_ratio(cfg)
            out = run_link(spec, cfg, 5, seed=1)
        assert ratio == pytest.approx(10 ** -2.2 / 1e110, rel=1e-12)
        assert np.isfinite(out.data).all()

    def test_ase_overflow_is_named(self):
        cfg = LinkConfig(span_snr_db=-4000.0)
        spec = MimoSpectrum.of(generate_wgn_mimo(2, 4096, 40e9, 1.0, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"overflows: span_snr_db -4000, 5 loops"):
                run_link(spec, cfg, 5, seed=1)


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
