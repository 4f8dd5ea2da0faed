"""Tests for alignment, EDC, FDE equalization, and phase recovery."""

import dataclasses
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import signal as sp_signal

from wgnlink import channel as channel_module
from wgnlink import pipeline, runner, signals
from wgnlink.channel import (_BIN_CHUNK, SPEED_OF_LIGHT, LinkConfig,
                             MimoChannel, MultiSectionModel, apply_channel,
                             apply_phase_noise, dispersion_phase, run_link,
                             synthesize_mimo_channel)
from wgnlink.config import ExperimentConfig
from wgnlink.errors import AlignmentError, ConfigError
from wgnlink.estimation import compare_channels, estimate_channel
from wgnlink.metrics import build_ring_constellation, estimate_mi
from wgnlink.pipeline import (PipelineConfig, align_by_crosscorrelation,
                              fde_lms_equalize, phase_recovery, run_pipeline,
                              trim_aligned)
from wgnlink.signals import (ComplexSignal, MimoSignal, MimoSpectrum,
                             generate_wgn_mimo)


def _nmse_db(est, ref):
    return 10 * np.log10(np.sum(np.abs(est - ref) ** 2)
                         / np.sum(np.abs(ref) ** 2))


def _delay(sig: MimoSignal, lag: int) -> MimoSignal:
    return MimoSignal(np.roll(sig.as_array(), lag, axis=1), sig.sample_rate)


def _full_length_lag(f_in: MimoSignal, f_out: MimoSignal,
                     max_lag: int) -> int:
    """The lag of the largest circular cross-correlation over the two
    captures' common length, within [-max_lag, max_lag]."""
    n = min(len(f_in), len(f_out))
    cross = sum(np.conj(np.fft.fft(a[:n])) * np.fft.fft(b[:n])
                for a, b in zip(f_in.data, f_out.data))
    lags = np.arange(-max_lag, max_lag + 1)
    return int(lags[np.argmax(np.abs(np.fft.ifft(cross))[lags])])


def _count_calls(monkeypatch, calls: list, module, *names) -> list:
    """Wrap `names` in `module` so that each call appends its name to
    `calls`, which is returned."""

    def counting(name, f):
        def counted(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    return calls


class TestAlignment:
    def test_zero_lag(self):
        sig = generate_wgn_mimo(2, 100_000, 40e9, 1.0, seed=1)
        res = align_by_crosscorrelation(sig, sig, max_lag=1000)
        assert res.lag == 0
        assert abs(res.phase) < 1e-9
        assert res.peak_ratio > 10

    def test_known_delay_and_rotation(self):
        sig = generate_wgn_mimo(2, 200_000, 40e9, 1.0, seed=2)
        out = MimoSignal(_delay(sig, 1000).data * np.exp(1j * np.pi / 4),
                         sig.sample_rate)
        res = align_by_crosscorrelation(sig, out, max_lag=5000)
        assert res.lag == 1000
        assert res.phase == pytest.approx(np.pi / 4, abs=1e-6)

    def test_negative_lag(self):
        sig = generate_wgn_mimo(2, 200_000, 40e9, 1.0, seed=3)
        res = align_by_crosscorrelation(sig, _delay(sig, -777), max_lag=5000)
        assert res.lag == -777

    def test_independent_noise_rejected(self):
        a = generate_wgn_mimo(2, 1_000_000, 40e9, 1.0, seed=4)
        b = generate_wgn_mimo(2, 1_000_000, 40e9, 1.0, seed=5)
        with pytest.raises(AlignmentError, match="may be unrelated"):
            align_by_crosscorrelation(a, b, max_lag=10_000)

    def test_zero_power_capture_named(self):
        # an all-zero correlation reads ratio 0, not inf: the alignment
        # fails and says why, before the channel solve meets a singular
        # covariance
        sig = generate_wgn_mimo(2, 20_000, 60e9, 1.0, seed=6)
        zeros = MimoSignal(np.zeros_like(sig.data), 60e9)
        for a, b in ((sig, zeros), (zeros, sig), (zeros, zeros)):
            with pytest.raises(AlignmentError, match="peak ratio 0.00 .*"
                               "may be unrelated or hold no power"):
                align_by_crosscorrelation(a, b, max_lag=100)
        with pytest.raises(AlignmentError, match="peak ratio 0.00"):
            estimate_channel(sig, zeros, PipelineConfig(filter_bw=None))

    # (modes, lag at the 40 GS/s capture rate); the front end resamples to
    # 60 GS/s, so the aligned lag is 1.5 times larger
    @pytest.mark.parametrize("m, lag", [(2, 1000), (2, -778), (6, 322),
                                        (6, -46)])
    def test_front_end_spectra_give_the_signals_alignment(self, m, lag):
        # the front end's spectra, inverted in place, align as the full
        # length does, with the phase of the linear correlation over the
        # prefix at the lag
        sig = generate_wgn_mimo(m, 60_000, 40e9, 1.0, seed=40 + m)
        noise = generate_wgn_mimo(m, 60_000, 40e9, 0.1, seed=50 + m)
        out = MimoSignal(_delay(sig, lag).as_array() + noise.as_array(), 40e9)
        cfg = PipelineConfig()
        f_in, f_out = (pipeline._as_signal(pipeline._front_end(s, cfg))
                       for s in (sig, out))
        got = align_by_crosscorrelation(f_in, f_out, max_lag=5000)
        assert got.lag == _full_length_lag(f_in, f_out, 5000) \
            == round(1.5 * lag)
        p = 20_000
        a, b = f_in.data[:, :p], f_out.data[:, :p]
        a, b = ((a[:, :p - got.lag], b[:, got.lag:]) if got.lag >= 0
                else (a[:, -got.lag:], b[:, :p + got.lag]))
        assert got.phase == pytest.approx(
            np.angle(np.sum(b * np.conj(a))), abs=1e-9)

    def test_unequal_lengths_read_only_the_prefix(self):
        # the first 4 * max_lag samples of each capture are all that is
        # read: the longer capture's extra samples and everything past the
        # prefix leave the result unchanged
        sig = generate_wgn_mimo(2, 100_000, 40e9, 1.0, seed=60)
        longer = MimoSignal(
            np.concatenate([_delay(sig, 300).as_array(),
                            sig.as_array()[:, :500]], axis=1), 40e9)
        got = align_by_crosscorrelation(sig, longer, max_lag=5000)
        assert got.lag == 300
        cut = [MimoSignal(x.data.copy(), 40e9) for x in (sig, longer)]
        for x in cut:
            x.data[:, 20_000:] = 0
        assert align_by_crosscorrelation(*cut, max_lag=5000) == got

    def test_paths_the_prefix_cannot_separate_read_at_full_length(self):
        # two paths one sample apart, the later one 2% stronger over the
        # 20,000-sample prefix and the earlier one 2% stronger after it:
        # the prefix reads them 1.7 off-peak RMS apart, the later one
        # first, so the whole common length decides, for the earlier one
        sig = generate_wgn_mimo(2, 100_000, 40e9, 1.0, seed=62)
        later = np.arange(100_000) < 20_000
        out = MimoSignal(_delay(sig, 300).data * np.where(later, 1.0, 1.02)
                         + _delay(sig, 301).data * np.where(later, 1.02, 1.0),
                         40e9)
        res = align_by_crosscorrelation(sig, out, max_lag=5000)
        assert res.lag == _full_length_lag(sig, out, 5000) == 300

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    def test_lag_at_the_edge_of_the_range(self, sign):
        sig = generate_wgn_mimo(2, 50_000, 40e9, 1.0, seed=65)
        noise = generate_wgn_mimo(2, 50_000, 40e9, 0.3, seed=66)
        out = MimoSignal(_delay(sig, sign * 2000).data + noise.data, 40e9)
        res = align_by_crosscorrelation(sig, out, max_lag=2000)
        assert res.lag == sign * 2000

    # links of 20 loops with MDL and DGD, the received capture delayed by
    # 0, +3,702 and -4,500 samples at the target rate within a 6,000-sample
    # lag range: the prefix finds the lag of the full-length correlation
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("link", [
        {"span_snr_db": 22.0}, {"span_snr_db": 12.0},
        {"span_snr_db": 22.0, "lo_linewidth": 1e6},
        {"span_snr_db": 22.0, "lo_linewidth": 1e5}],
        ids=["22dB", "12dB", "lo-1MHz", "lo-100kHz"])
    def test_prefix_agrees_with_the_full_length(self, link, seed):
        link = LinkConfig(mdl_per_span=0.5, dgd_per_span=1e-11, **link)
        cfg = PipelineConfig(align_max_lag=6000)
        sig = generate_wgn_mimo(2, 60_000, 40e9, 1.0, seed=100 + seed)
        rx = run_link(sig, link, 20, seed=200 + seed)
        f_in = pipeline._as_signal(pipeline._front_end(sig, cfg))
        for shift in (0, 2468, -3000):
            f_out = pipeline._as_signal(pipeline._front_end(
                _delay(rx, shift), cfg, link, 20 * link.span_length))
            res = align_by_crosscorrelation(f_in, f_out, 6000,
                                            cfg.align_threshold)
            assert res.lag == _full_length_lag(f_in, f_out, 6000)
            # the coupled link's strongest path sits a few samples off
            assert abs(res.lag - 1.5 * shift) <= 5

    @pytest.mark.parametrize("n", [100_000, 400_000])
    def test_transforms_bounded_by_the_lag_range(self, monkeypatch, n):
        # the prefix's transforms are 5 * max_lag long, so the alignment's
        # working memory does not grow with the capture
        sig = generate_wgn_mimo(2, n, 40e9, 1.0, seed=67)
        out = _delay(sig, 123)
        sizes = []
        for name in ("fft", "ifft"):
            def sized(a, *args, _f=getattr(np.fft, name), **kwargs):
                res = _f(a, *args, **kwargs)
                sizes.append(res.shape[-1])
                return res
            monkeypatch.setattr(np.fft, name, sized)
        tracemalloc.start()
        try:
            res = align_by_crosscorrelation(sig, out, max_lag=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.lag == 123
        assert sizes and max(sizes) <= 5 * 2000
        # the sum, one row's two spectra and the lag window
        assert peak < 5 * (5 * 2000 * 16)

    def test_spectra_rejected(self):
        # the alignment reads time signals only; a spectrum is named
        sig = generate_wgn_mimo(2, 20_000, 40e9, 1.0, seed=61)
        spec = MimoSpectrum.of(sig)
        with pytest.raises(TypeError, match="f_in is a spectrum"):
            align_by_crosscorrelation(spec, sig, max_lag=1000)
        with pytest.raises(TypeError, match="f_out is a spectrum"):
            align_by_crosscorrelation(sig, spec, max_lag=1000)

    def test_lag_range_without_an_off_peak_lag_rejected(self):
        # with max_lag 0 the peak ratio has nothing to compare against
        a = generate_wgn_mimo(2, 3, 40e9, 1.0, seed=1)
        b = generate_wgn_mimo(2, 3, 40e9, 1.0, seed=2)
        with pytest.raises(ValueError, match="max_lag must be >= 1"):
            align_by_crosscorrelation(a, b, max_lag=0)

    def test_shortest_alignable_capture(self):
        sig = generate_wgn_mimo(2, 4, 60e9, 1.0, seed=1)
        res = run_pipeline(sig, sig, None, PipelineConfig(
            align_threshold=1.0, filter_bw=None, block_size=2))
        assert res.alignment.lag == 0
        assert np.isfinite(res.alignment.peak_ratio)
        assert len(res.f_eq) == 4

    def test_mismatched_spectra_rejected(self):
        # a spectrum of one tributary against a 2-mode signal
        sig = generate_wgn_mimo(2, 20_000, 40e9, 1.0, seed=63)
        spec = MimoSpectrum.of(MimoSignal(sig.data[:1], sig.sample_rate))
        with pytest.raises(ValueError, match="f_in has 1, f_out has 2"):
            align_by_crosscorrelation(spec, sig, max_lag=1000)

    def test_tributary_count_mismatch_named(self):
        # a 2-mode and a 4-mode capture once aligned on their first two
        # rows: lag 0 and a peak ratio of about 200
        a = generate_wgn_mimo(4, 20_000, 40e9, 1.0, seed=64)
        b = MimoSignal(a.data[:2], a.sample_rate)
        with pytest.raises(ValueError, match="f_in has 2, f_out has 4"):
            align_by_crosscorrelation(b, a, max_lag=1000)
        with pytest.raises(ValueError, match="f_in has 4, f_out has 2"):
            align_by_crosscorrelation(a, b, max_lag=1000)

    def test_trim_positive_lag(self):
        sig = generate_wgn_mimo(2, 50_000, 40e9, 1.0, seed=6)
        out = _delay(sig, 100)
        a, b, start = trim_aligned(sig, out, 100)
        assert start == 0
        assert len(a) == len(b) == 50_000 - 100
        assert np.allclose(a.as_array(), b.as_array())

    def test_trim_negative_lag(self):
        sig = generate_wgn_mimo(2, 50_000, 40e9, 1.0, seed=7)
        out = _delay(sig, -100)
        a, b, start = trim_aligned(sig, out, -100)
        assert start == 100
        assert np.allclose(a.as_array(), b.as_array()[:, :len(a)])

    @pytest.mark.parametrize("lag", [100, -100, 0])
    def test_trim_returns_views(self, lag):
        sig = generate_wgn_mimo(2, 5_000, 40e9, 1.0, seed=8)
        out = _delay(sig, lag)
        a, b, _ = trim_aligned(sig, out, lag)
        assert np.shares_memory(a.data, sig.data)
        assert np.shares_memory(b.data, out.data)

    @pytest.mark.parametrize("n_in, n_out, rate, n", [
        (0, 0, 60e9, 0), (1, 1, 60e9, 1), (2, 2, 60e9, 2), (3, 3, 60e9, 3),
        (1000, 1, 60e9, 1), (0, 0, 40e9, 0), (2, 2, 40e9, 3)],
        ids=["0-0", "1-1", "2-2", "3-3", "1000-1", "0-0-40GSps", "2-2-40GSps"])
    def test_capture_too_short_to_align_named(self, monkeypatch, n_in,
                                              n_out, rate, n):
        # n: the shorter capture's length at the 60 GS/s target rate, checked
        # before the front end transforms either capture
        calls = _count_calls(monkeypatch, [], pipeline, "_front_end")
        a = MimoSignal(np.ones((2, n_in), dtype=complex), rate)
        b = MimoSignal(np.ones((2, n_out), dtype=complex), rate)
        with pytest.raises(ValueError, match=f"capture of {n} samples"):
            estimate_channel(a, b, PipelineConfig(filter_bw=None))
        assert calls == []

    def test_lag_range_fits_the_shorter_capture(self):
        # the received capture is 4,000 samples of a 12,000-sample reference,
        # shorter than twice the default align_max_lag
        sig = generate_wgn_mimo(2, 12_000, 60e9, 1.0, seed=9)
        out = MimoSignal(sig.data[:, 300:4300], sig.sample_rate)
        res = run_pipeline(sig, out, None, PipelineConfig(filter_bw=None,
                                                          block_size=1024))
        assert res.alignment.lag == -300
        assert res.trim_start_in == 300 and len(res.f_in) == 4000


class TestEdc:
    # the front end at the capture's own rate, unfiltered: EDC alone
    CFG = PipelineConfig(filter_bw=None)

    def test_zero_length_identity(self):
        sig = generate_wgn_mimo(2, 4096, 60e9, 1.0, seed=8)
        out = pipeline._front_end(sig, self.CFG, LinkConfig(), 0.0)
        assert np.allclose(np.fft.ifft(out.data, axis=1), sig.as_array(),
                           atol=1e-12)

    def test_wrong_length_leaves_residual_phase(self):
        sig = generate_wgn_mimo(1, 8192, 60e9, 1.0, seed=9)
        spec = np.fft.fft(sig.data, axis=1)
        fiber = np.exp(1j * dispersion_phase(np.fft.fftfreq(8192, 1 / 60e9),
                                             17.0, 78.0, 1550.0))
        disp = MimoSignal(np.fft.ifft(spec * fiber, axis=1), 60e9)
        back = pipeline._front_end(disp, self.CFG, LinkConfig(), 60.0)
        ratio = back.data[0] / spec[0]
        freqs = np.fft.fftfreq(8192, d=1 / 60e9)
        expected = dispersion_phase(freqs, 17.0, 18.0, 1550.0)
        err = np.angle(ratio * np.exp(-1j * expected))
        assert np.max(np.abs(err)) < 1e-6


class TestFrontEnd:
    LINK = LinkConfig(dispersion_coeff=17.0, center_wavelength=1550.0)

    def _reference(self, sig, cfg, edc_km):
        """scipy's resampler per tributary, then the filter and EDC
        responses written out from their formulas."""
        rate = cfg.target_rate
        n = round(len(sig) * rate / sig.sample_rate)
        spec = np.fft.fft([sp_signal.resample(row, n) for row in sig.data],
                          axis=1)
        f = np.fft.fftfreq(n, d=1 / rate)
        if cfg.filter_bw is not None:
            spec *= np.exp(-np.log(2) / 2 * (np.abs(f) / cfg.filter_bw)
                           ** (2 * cfg.filter_order))
        if edc_km is not None:
            # exp(-j pi lambda^2 D L f^2 / c), D in s/m^2 and L in m
            lam = self.LINK.center_wavelength * 1e-9
            d = self.LINK.dispersion_coeff * 1e-6
            spec *= np.exp(-1j * np.pi * lam ** 2 * d * edc_km * 1e3 * f ** 2
                           / SPEED_OF_LIGHT)
        return MimoSignal(np.fft.ifft(spec, axis=1), rate)

    @pytest.mark.parametrize("rate, n, filter_bw, edc_km", [
        (40e9, 30_000, 15e9, 156.0),
        (40e9, 30_001, None, None),
        (40e9, 30_000, 15e9, None),
        (40e9, 30_001, None, 78.0),
        (90e9, 45_000, 15e9, 78.0),
        (60e9, 30_000, 15e9, 78.0),
        # at the target rate and unfiltered: EDC alone takes the spectral path
        (60e9, 30_000, None, 78.0),
    ])
    def test_equals_resample_filter_edc_chain(self, rate, n, filter_bw,
                                              edc_km):
        sig = generate_wgn_mimo(3, n, rate, 1.0, seed=n)
        cfg = PipelineConfig(target_rate=60e9, filter_bw=filter_bw)
        link = None if edc_km is None else self.LINK
        spec = pipeline._front_end(sig, cfg, link, edc_km or 0.0)
        assert isinstance(spec, MimoSpectrum)
        ref = self._reference(sig, cfg, edc_km)
        assert spec.sample_rate == ref.sample_rate == 60e9
        a, b = np.fft.ifft(spec.data, axis=1), ref.as_array()
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("rate, filter_bw, edc_km", [
        (40e9, 15e9, 156.0), (40e9, None, None), (60e9, 15e9, None),
        (60e9, None, 78.0),
        # at the target rate with no stage: the bins are only copied
        (60e9, None, None)])
    def test_spectrum_takes_the_signal_path(self, rate, filter_bw, edc_km):
        sig = generate_wgn_mimo(2, 30_000, rate, 1.0, seed=7)
        spec = MimoSpectrum.of(sig)
        bins = spec.data.copy()
        cfg = PipelineConfig(target_rate=60e9, filter_bw=filter_bw)
        link = None if edc_km is None else self.LINK
        out = pipeline._front_end(spec, cfg, link, edc_km or 0.0)
        ref = self._reference(sig, cfg, edc_km)
        a, b = pipeline._as_signal(out).as_array(), ref.as_array()
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))
        # the output's bins are its own, so inverting them in place leaves
        # the caller's bins as they were
        assert not np.shares_memory(out.data, spec.data)
        assert np.array_equal(spec.data, bins)

    @staticmethod
    def _full_length(sig, cfg, link, edc_km):
        """The front end with each response built at the output's full
        length on the ``fftfreq`` grid, in place and in the order of each
        formula: the resampled bins times the filter, then times the EDC."""
        rate = cfg.target_rate
        n_out = pipeline._front_end_length(sig, cfg)
        spec = (sig if isinstance(sig, MimoSpectrum)
                else MimoSpectrum.of(sig)).data
        spec = signals._resample_spectrum(spec, n_out).copy()
        if cfg.filter_bw is not None:
            h = np.fft.fftfreq(n_out, d=1.0 / rate)
            np.abs(h, out=h)
            h /= cfg.filter_bw
            h **= 2 * cfg.filter_order
            h *= -0.5 * np.log(2.0)
            spec *= np.exp(h, out=h)
        if link is not None:
            lam = link.center_wavelength * 1e-9
            scale = (np.pi * lam * lam * (link.dispersion_coeff * 1e-6)
                     * (edc_km * 1e3))
            phase = np.fft.fftfreq(n_out, d=1.0 / rate)
            np.square(phase, out=phase)
            phase *= scale
            phase /= SPEED_OF_LIGHT
            edc = np.multiply(phase, -1.0 * 1j)
            spec *= np.exp(edc, out=edc)
        return spec

    @pytest.mark.parametrize("stages", ["filter", "edc", "both"])
    @pytest.mark.parametrize("spectral", [False, True],
                             ids=["signal", "spectrum"])
    @pytest.mark.parametrize("rate, n", [
        (40e9, 10_000),                  # 15,000 bins: below one chunk
        (60e9, _BIN_CHUNK),              # one chunk, at the capture's rate
        (30e9, _BIN_CHUNK // 2),         # one chunk, upsampled
        (40e9, 40_002),                  # 60,003 bins: odd, a partial chunk
        (40e9, 40_000),                  # 60,000 bins: even, a partial chunk
        (90e9, 90_001)])                 # 60,001 bins, downsampled
    def test_chunks_equal_the_full_length_responses(self, rate, n, spectral,
                                                    stages):
        sig = generate_wgn_mimo(2, n, rate, 1.0, seed=n)
        cfg = PipelineConfig(target_rate=60e9, filter_bw=(
            None if stages == "edc" else 15e9))
        link = None if stages == "filter" else self.LINK
        want = self._full_length(sig, cfg, link, 390.0)
        got = pipeline._front_end(MimoSpectrum.of(sig) if spectral else sig,
                                  cfg, link, 390.0)
        assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("rate", [60e9, 40e9])
    def test_holds_nothing_of_capture_length_but_its_output(self, rate):
        # a 2-mode spectrum of over 3 chunks at the target rate (its bins
        # copied) or resampled to it, filtered and compensated: the old
        # full-length responses held 32 bytes per bin more
        n = 3 * _BIN_CHUNK + 7232
        spec = MimoSpectrum.of(generate_wgn_mimo(2, n, rate, 1.0, seed=2))
        cfg = PipelineConfig(target_rate=60e9)
        tracemalloc.start()
        try:
            out = pipeline._front_end(spec, cfg, self.LINK, 390.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.size >= 3 * 2 * _BIN_CHUNK
        assert peak < out.data.nbytes + 2 ** 20

    def test_target_rate_without_stages_is_unchanged(self):
        sig = generate_wgn_mimo(2, 10_000, 60e9, 1.0, seed=3)
        cfg = PipelineConfig(target_rate=60e9, filter_bw=None)
        assert pipeline._front_end(sig, cfg) is sig

    def test_filter_above_nyquist_warns(self):
        sig = generate_wgn_mimo(2, 10_000, 20e9, 1.0, seed=4)
        cfg = PipelineConfig(target_rate=20e9, filter_bw=15e9)
        with pytest.warns(UserWarning, match="Nyquist"):
            pipeline._front_end(sig, cfg)


def _block_spectra(parts, first: int, stop: int, hop: int) -> np.ndarray:
    """The one-thread equalizer's block spectra: blocks ``first..stop-1``
    of the stacked rows of `parts`, as a contiguous (2*hop, rows, blocks)
    array."""
    n = parts[0].shape[1]
    lo = (first - 1) * hop
    buf = np.zeros((sum(len(p) for p in parts), (stop - first + 1) * hop),
                   dtype=complex)
    a, b = max(lo, 0), min(stop * hop, n)
    np.concatenate([p[:, a:b] for p in parts], out=buf[:, a - lo:b - lo])
    frames = np.lib.stride_tricks.sliding_window_view(
        buf, 2 * hop, axis=1)[:, ::hop]
    return np.ascontiguousarray(np.fft.fft(frames, axis=2).transpose(2, 0, 1))


def _equalize_reference(f_in: MimoSignal, f_out: MimoSignal,
                        cfg: PipelineConfig, n_output=None):
    """The equalizer on one thread, as it was before its passes were split
    over two: the oracle that :func:`fde_lms_equalize` matches bit for
    bit."""
    m, n = f_in.n_tributaries, len(f_in)
    n_output = n if n_output is None else min(n_output, n)
    block = cfg.block_size
    hop = block // 2
    n_blocks = -(-n // hop)
    size = pipeline._CHUNK_BLOCKS
    chunks = [(b, min(b + size, n_blocks)) for b in range(0, n_blocks, size)]
    corr = np.zeros((block, 2 * m, 2 * m), dtype=complex)
    for first, stop in chunks:
        spec = _block_spectra((f_out.data, f_in.data), first, stop, hop)
        corr += spec @ np.conj(spec.transpose(0, 2, 1))
    state = pipeline.EqualizerState(corr)
    out = np.empty((m, n_output), dtype=complex)
    taps = state.taps if n_output else None
    for first, stop in chunks:
        if first * hop >= n_output:
            break
        spec_x = _block_spectra((f_out.data,), first, stop, hop)
        y = np.fft.ifft(taps @ spec_x, axis=0)[hop:]
        seg = slice(first * hop, min(stop * hop, n_output))
        y = y.transpose(1, 2, 0).reshape(m, -1)
        out[:, seg] = y[:, :seg.stop - seg.start]
    return MimoSignal(out, f_in.sample_rate), state


def _random_pair(m: int, n: int, dtype, seed: int):
    """Independent reference and input captures of `dtype`."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, m, n)) + 1j * rng.standard_normal((2, m, n))
    return tuple(MimoSignal(v.astype(dtype), 60e9) for v in x)


def _affinity(monkeypatch, cpus: set) -> None:
    """Let the equalizer see `cpus` as the CPUs it may run on."""
    monkeypatch.setattr(pipeline.os, "sched_getaffinity",
                        lambda pid: set(cpus), raising=False)


class TestFdeLms:
    def test_identity_channel_low_nmse(self):
        sig = generate_wgn_mimo(2, 100_000, 60e9, 1.0, seed=10)
        cfg = PipelineConfig()
        f_eq, state = fde_lms_equalize(sig, sig, cfg)
        assert _nmse_db(f_eq.as_array(), sig.as_array()) < -40
        # the diagonal load leaves -90 dB; a reference with no power reads
        # the -300 dB floor, without a warning
        zeros = MimoSignal(np.zeros_like(sig.data), sig.sample_rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state.residual_nmse_db < -40
            _, silent = fde_lms_equalize(zeros, sig, cfg)
            assert silent.residual_nmse_db == -300.0

    @pytest.mark.parametrize("silent, read", [("transmitted", "channel"),
                                              ("received", "taps")])
    def test_capture_of_no_power_named(self, silent, read):
        # no diagonal load makes a solve against zeros regular: the
        # capture is named instead of numpy's singular-matrix error
        sig = generate_wgn_mimo(2, 20_000, 60e9, 1.0, seed=21)
        zeros = MimoSignal(np.zeros_like(sig.data), sig.sample_rate)
        pair = (zeros, sig) if silent == "transmitted" else (sig, zeros)
        cfg = PipelineConfig(block_size=256)
        _, state = fde_lms_equalize(*pair, cfg, n_output=0)
        match = f"the {silent} capture has no power"
        with pytest.raises(ValueError, match=match):
            getattr(state, read)
        if silent == "received":
            # the output pass reads the taps
            with pytest.raises(ValueError, match=match):
                fde_lms_equalize(*pair, cfg)

    def test_static_rotation_taps(self):
        theta = np.pi / 6
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]], dtype=complex)
        sig = generate_wgn_mimo(2, 200_000, 60e9, 1.0, seed=11)
        out = MimoSignal(rot @ sig.as_array(), 60e9)
        cfg = PipelineConfig(lms_step=0.5, lms_passes=3)
        _, state = fde_lms_equalize(sig, out, cfg)
        inv = rot.T  # inverse of a real rotation
        err = np.linalg.norm(state.taps - inv[None, :, :], axis=(1, 2))
        assert np.max(err) < 1e-3

    def test_multisection_channel_tracks_inversion_floor(self):
        # the achievable NMSE floor is set by per-bin inversion at this SNR:
        # tap error from noisy LMS cannot beat noise/(signal * averaging)
        from wgnlink.channel import add_awgn
        m, n = 6, 400_000
        sig = generate_wgn_mimo(m, n, 60e9, 1.0, seed=12)
        ch = synthesize_mimo_channel(m, 2.0, 5e-10, 4096, 60e9 / 4096, seed=13)
        out = add_awgn(apply_channel(sig, ch), 20.0, seed=14)
        cfg = PipelineConfig(filter_bw=None, lms_step=0.4, lms_passes=4)
        f_eq, _ = fde_lms_equalize(sig, out, cfg)
        nmse = _nmse_db(f_eq.as_array(), sig.as_array())
        # the additive noise alone puts the floor at -20 dB; the equalized
        # output must sit within 2 dB of that physical limit
        assert nmse < -18.0

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    def test_result_independent_of_chunking(self, monkeypatch, chunk):
        # 157 blocks of 256 samples; 1000 puts them all in one chunk
        sig = generate_wgn_mimo(2, 20_000, 60e9, 1.0, seed=15)
        ch = synthesize_mimo_channel(2, 1.0, 1e-10, 256, 60e9 / 256, seed=16)
        out = apply_channel(sig, ch)
        cfg = PipelineConfig(filter_bw=None, block_size=256)
        f_ref, ref = fde_lms_equalize(sig, out, cfg)
        monkeypatch.setattr(pipeline, "_CHUNK_BLOCKS", chunk)
        f_eq, state = fde_lms_equalize(sig, out, cfg)
        assert np.max(np.abs(state.taps - ref.taps)) < 1e-12
        assert np.max(np.abs(f_eq.as_array() - f_ref.as_array())) < 1e-12
        assert state.residual_nmse_db == pytest.approx(ref.residual_nmse_db,
                                                       abs=1e-9)

    def test_one_block_six_modes_finite(self):
        # two overlap-save blocks cannot determine six modes per bin: the
        # diagonal load keeps the per-bin solve regular
        sig = generate_wgn_mimo(6, 4096, 60e9, 1.0, seed=33)
        out = generate_wgn_mimo(6, 4096, 60e9, 1.0, seed=34)
        f_eq, state = fde_lms_equalize(sig, out, PipelineConfig())
        assert np.all(np.isfinite(state.taps))
        assert np.isfinite(state.residual_nmse_db)
        assert len(f_eq) == 4096

    # (samples, block size, margin in dB): 0.0002 and 0.083 dB measured
    @pytest.mark.parametrize("n, block, margin", [(400_000, 4096, 0.05),
                                                  (20_000, 256, 0.15)])
    def test_residual_nmse_matches_the_output_pass(self, n, block, margin):
        # the covariance's closed-form NMSE against the output pass's NMSE
        # over the whole capture; they differ only at the block edges
        from wgnlink.channel import add_awgn
        sig = generate_wgn_mimo(2, n, 60e9, 1.0, seed=17)
        ch = synthesize_mimo_channel(2, 1.0, 1e-10, block, 60e9 / block,
                                     seed=18)
        out = add_awgn(apply_channel(sig, ch), 20.0, seed=32)
        cfg = PipelineConfig(filter_bw=None, block_size=block)
        f_eq, state = fde_lms_equalize(sig, out, cfg)
        measured = _nmse_db(f_eq.as_array(), sig.as_array())
        assert abs(state.residual_nmse_db - measured) < margin
        # the additive noise alone puts the floor at -20 dB
        assert -20.5 < state.residual_nmse_db < -15.5

    def test_state_holds_only_the_covariance(self):
        sig = generate_wgn_mimo(2, 20_000, 60e9, 1.0, seed=35)
        _, state = fde_lms_equalize(sig, sig, PipelineConfig(block_size=256))
        assert [f.name for f in dataclasses.fields(state)] == ["covariance"]
        assert state.covariance.shape == (256, 4, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.covariance = None

    def test_length_mismatch_rejected(self):
        a = generate_wgn_mimo(2, 10_000, 60e9, 1.0, seed=19)
        b = generate_wgn_mimo(2, 10_001, 60e9, 1.0, seed=19)
        with pytest.raises(ValueError):
            fde_lms_equalize(a, b, PipelineConfig())

    def test_negative_output_length_named(self):
        sig = generate_wgn_mimo(2, 10_000, 60e9, 1.0, seed=20)
        with pytest.raises(ValueError, match="n_output must be >= 0, got -1"):
            fde_lms_equalize(sig, sig, PipelineConfig(), n_output=-1)

    def test_block_size_must_be_power_of_two(self):
        # 0 & -1 == 0 passes a bare power-of-two bit test
        for bad in (4000, 1, 0):
            with pytest.raises(ValueError, match="block_size"):
                PipelineConfig(block_size=bad)


class TestTwoThreadEqualizer:
    """Both passes split over the calling thread and one pool thread, in
    buffers the calling thread allocates: the same bits as one thread."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        _affinity(monkeypatch, {0, 1})

    # 16 blocks fill one chunk, 17 leave a one-block chunk, and 40 blocks
    # less a sample (not a multiple of the hop above block size 2) spread
    # three chunks over the two threads
    @pytest.mark.parametrize("blocks, short", [(16, 0), (17, 0), (40, 1)])
    @pytest.mark.parametrize("block", [2, 64, 4096])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_same_bits_as_one_thread(self, m, dtype, block, blocks, short):
        hop = block // 2
        n = blocks * hop - short
        sig, out = _random_pair(m, n, dtype, seed=m * block + blocks)
        cfg = PipelineConfig(block_size=block)
        # none, one sample, a window ending inside a block of the last
        # chunk that runs, and the whole capture
        for n_output in (0, 1, n - hop // 2 - 1, None):
            f_ref, ref = _equalize_reference(sig, out, cfg, n_output)
            f_eq, state = fde_lms_equalize(sig, out, cfg, n_output)
            assert np.array_equal(state.covariance, ref.covariance)
            assert np.array_equal(state.taps, ref.taps)
            assert np.array_equal(state.channel, ref.channel)
            assert np.array_equal(f_eq.data, f_ref.data)

    def test_one_cpu_runs_the_split_inline(self, monkeypatch):
        sig, out = _random_pair(2, 40 * 128 - 1, np.complex64, seed=90)
        cfg = PipelineConfig(block_size=256)
        f_ref, ref = _equalize_reference(sig, out, cfg)
        _affinity(monkeypatch, {0})

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started on one CPU")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        f_eq, state = fde_lms_equalize(sig, out, cfg)
        assert np.array_equal(state.covariance, ref.covariance)
        assert np.array_equal(f_eq.data, f_ref.data)

    @pytest.mark.parametrize("cpus, workers, pooled", [
        ({0, 1}, 2, False), ({0, 1, 2}, 2, False), ({0, 1, 2, 3}, 2, True),
        ({0}, 3, False)])
    def test_pool_workers_share_the_cpus(self, monkeypatch, cpus, workers,
                                         pooled):
        # each of a sweep's pool workers takes its share of the CPUs, at
        # least one: 2 workers on 2 or 3 CPUs run the split inline, on 4
        # they split it.  The same bits either way
        sig, out = _random_pair(2, 40 * 128 - 1, np.complex64, seed=94)
        cfg = PipelineConfig(block_size=256)
        f_ref, ref = _equalize_reference(sig, out, cfg)
        _affinity(monkeypatch, cpus)
        monkeypatch.setattr(pipeline, "_WORKERS", 1)  # restored afterwards
        pipeline._share_cpus(workers)
        assert pipeline._cpus() == max(1, len(cpus) // workers)
        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Recorded)
        f_eq, state = fde_lms_equalize(sig, out, cfg)
        assert len(pools) == pooled
        assert np.array_equal(state.covariance, ref.covariance)
        assert np.array_equal(f_eq.data, f_ref.data)

    def test_repeated_calls_give_the_same_bits(self):
        sig, out = _random_pair(6, 40 * 2048 - 1, np.complex128, seed=91)
        cfg = PipelineConfig()
        f_ref, ref = _equalize_reference(sig, out, cfg, 50_000)
        for _ in range(5):
            f_eq, state = fde_lms_equalize(sig, out, cfg, 50_000)
            assert np.array_equal(state.covariance, ref.covariance)
            assert np.array_equal(f_eq.data, f_ref.data)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Recorded)
        sig, out = _random_pair(2, 40 * 128 - 1, np.complex128, seed=92)
        before = threading.active_count()
        fde_lms_equalize(sig, out, PipelineConfig(block_size=256))
        assert len(pools) == 1 and pools[0]._max_workers == 1
        # the pool ran its thread and joined it before the call returned
        assert len(pools[0]._threads) == 1
        assert not any(t.is_alive() for t in pools[0]._threads)
        assert threading.active_count() == before

    def test_peak_memory_of_a_six_mode_covariance(self):
        # taps only, 6 modes, 40 blocks of 4096 samples: the (4096, 12, 12)
        # covariance is 9.4 MB and a chunk's (12, 16, 4096) block spectra
        # 12.6 MB.  Measured 31.7 MiB; the one-thread equalizer, which also
        # held each chunk's spectra transposed and conjugated, 51.5 MiB
        sig, out = _random_pair(6, 40 * 2048, np.complex64, seed=93)
        tracemalloc.start()
        try:
            _, state = fde_lms_equalize(sig, out, PipelineConfig(),
                                        n_output=0)
            state.taps
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20


class TestMeasuredWindow:
    """Equalizer output and phase recovery over the first samples only."""

    LINK = LinkConfig(span_snr_db=25.0, mdl_per_span=0.5, dgd_per_span=1e-11,
                      lo_linewidth=1e5)

    def test_equalizer_window_is_the_full_output_cut(self):
        # 256-sample blocks at a hop of 128 and 16 blocks per chunk: the
        # window ends inside a block of the fourth chunk
        sig = generate_wgn_mimo(2, 20_000, 60e9, 1.0, seed=70)
        ch = synthesize_mimo_channel(2, 1.0, 1e-10, 256, 60e9 / 256, seed=71)
        out = apply_channel(sig, ch)
        cfg = PipelineConfig(filter_bw=None, block_size=256)
        full, ref = fde_lms_equalize(sig, out, cfg)
        n = 7_001
        part, state = fde_lms_equalize(sig, out, cfg, n_output=n)
        assert np.array_equal(part.data, full.data[:, :n])
        assert np.array_equal(state.taps, ref.taps)
        assert np.array_equal(state.channel, ref.channel)
        # the NMSE is the covariance's, over the whole capture either way
        assert state.residual_nmse_db == ref.residual_nmse_db

    @pytest.mark.parametrize("n", [1, 9_999, 40_000, 10 ** 9])
    def test_pipeline_window_is_the_full_output_cut(self, n):
        # LO phase noise: phase recovery has a trajectory to follow
        sig = generate_wgn_mimo(2, 40_000, 40e9, 1.0, seed=72)
        out = run_link(sig, self.LINK, 2, seed=73)
        cfg = PipelineConfig()
        full = run_pipeline(sig, out, self.LINK, cfg, n_recirculations=2)
        part = run_pipeline(sig, out, self.LINK, cfg, n_recirculations=2,
                            n_measured=n)
        assert len(part.f_eq) == min(n, len(full.f_in))
        # phase recovery's complex products may round differently on
        # arrays at another memory alignment: the window is bounded at 4 ulp
        # of the largest sample (0.6 ulp seen), and exact elsewhere
        want = full.f_eq.data[:, :n]
        assert (np.max(np.abs(part.f_eq.data - want))
                <= 4 * np.finfo(float).eps * np.max(np.abs(want)))
        assert np.array_equal(part.f_in.data, full.f_in.data)
        assert np.array_equal(part.channel.matrices, full.channel.matrices)
        assert part.alignment == full.alignment

    def test_negative_window_rejected(self):
        sig = generate_wgn_mimo(2, 10_000, 40e9, 1.0, seed=76)
        with pytest.raises(ValueError, match="n_measured"):
            run_pipeline(sig, sig, LinkConfig(), PipelineConfig(),
                         n_measured=-1)

    def test_phase_recovery_window_is_the_full_output_cut(self):
        sig = generate_wgn_mimo(2, 30_000, 60e9, 1.0, seed=74)
        noisy = apply_phase_noise(sig, 1e6, seed=75)
        window, n = 200, 12_345
        full = phase_recovery(sig, noisy, window)
        cut = [MimoSignal(x.data[:, :n + window], x.sample_rate)
               for x in (sig, noisy)]
        part = phase_recovery(*cut, window)
        assert np.array_equal(part.data[:, :n], full.data[:, :n])


class TestPhaseRecovery:
    def test_constant_offset_removed(self):
        sig = generate_wgn_mimo(2, 50_000, 60e9, 1.0, seed=21)
        rotated = MimoSignal(sig.data * np.exp(1j * np.pi / 3),
                             sig.sample_rate)
        out = phase_recovery(sig, rotated, window=200)
        resid = np.angle(np.sum(out.as_array() * np.conj(sig.as_array())))
        assert abs(resid) < 1e-6

    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_rows_summed_as_the_axis_sum(self, m):
        # the cross product is summed row by row; the estimate is that of
        # the sum over axis 0 bit for bit
        sig = generate_wgn_mimo(m, 30_001, 60e9, 1.0, seed=24)
        noisy = apply_phase_noise(sig, 1e6, seed=25)
        cross = np.sum(np.conj(sig.data) * noisy.data, axis=0)
        phi = np.angle(pipeline._centered_moving_sum(cross, 200))
        want = noisy.data * np.exp(-1j * phi)[None, :]
        assert np.array_equal(phase_recovery(sig, noisy, 200).data, want)

    def test_mean_phase_zero_after_recovery(self):
        sig = generate_wgn_mimo(2, 200_000, 60e9, 1.0, seed=22)
        noisy = apply_phase_noise(sig, 50e3, seed=23)
        out = phase_recovery(sig, noisy, window=200)
        mean_phase = np.angle(np.sum(out.as_array()
                                     * np.conj(sig.as_array())))
        assert abs(mean_phase) < 1e-3

    def test_wiener_tracking_bound(self):
        # residual phase variance stays within 1.5x of the oracle: the
        # windowed circular mean of the same Wiener trajectory
        n, window, lw, fs = 500_000, 200, 10e3, 60e9
        sig = MimoSignal(np.ones((1, n), dtype=complex), fs)
        noisy = apply_phase_noise(sig, lw, seed=24)
        phi = np.unwrap(np.angle(noisy.tributaries[0].samples))
        kernel = np.ones(window) / window
        oracle_est = np.angle(np.convolve(np.exp(1j * phi), kernel,
                                          mode="same"))
        oracle_var = np.var(np.angle(np.exp(1j * (phi - oracle_est))))
        out = phase_recovery(sig, noisy, window=window)
        resid = np.angle(out.tributaries[0].samples)
        assert np.var(resid) <= 1.5 * max(oracle_var, 1e-12)

    def test_mode_count_mismatch_rejected(self):
        sig = generate_wgn_mimo(2, 100, 60e9, 1.0, seed=0)
        with pytest.raises(ValueError, match="mode count"):
            phase_recovery(sig, MimoSignal(sig.data[:1], 60e9))

    # pieces of 1, 7 and 64 samples against one pass over the whole arrays:
    # lengths below, at and above a piece, and windows below and above them
    @pytest.mark.parametrize("piece", [1, 7, 64])
    @pytest.mark.parametrize("m, n, window", [
        (1, 1, 1), (1, 2, 5), (2, 9, 4), (1, 130, 1), (2, 131, 200),
        (3, 1001, 201), (2, 1001, 5000)])
    def test_pieces_are_the_whole_pass(self, monkeypatch, piece, m, n,
                                       window):
        rng = np.random.default_rng(n + window)
        ref, eq = (MimoSignal(rng.standard_normal((m, n))
                              + 1j * rng.standard_normal((m, n)), 60e9)
                   for _ in range(2))
        kept = eq.data.copy()
        cross = np.sum(np.conj(ref.data) * eq.data, axis=0)
        phi = np.angle(pipeline._centered_moving_sum(cross, window))
        want = eq.data * np.exp(-1j * phi)[None, :]
        monkeypatch.setattr(pipeline, "_PHASE_PIECE", piece)
        assert np.array_equal(phase_recovery(ref, eq, window).data, want)
        assert np.array_equal(eq.data, kept)
        out = np.empty_like(kept)
        got = phase_recovery(ref, eq, window, out=out)
        assert got.data is out and np.array_equal(out, want)
        got = phase_recovery(ref, eq, window, out=eq.data)
        assert got.data is eq.data and np.array_equal(eq.data, want)

    @pytest.mark.parametrize("out", [np.empty((2, 99), dtype=complex),
                                     np.empty((2, 100), dtype=np.complex64)],
                             ids=["shape", "dtype"])
    def test_out_of_another_shape_or_dtype_rejected(self, out):
        sig = generate_wgn_mimo(2, 100, 60e9, 1.0, seed=0)
        with pytest.raises(ValueError, match="out must be"):
            phase_recovery(sig, sig, out=out)

    def test_in_place_holds_no_capture_sized_array(self):
        # 2 x 1M samples: a capture-sized complex array is 32 MB, one row
        # 16 MB
        sig = generate_wgn_mimo(2, 1_000_000, 60e9, 1.0, seed=26)
        eq = MimoSignal(sig.data * np.exp(0.5j), sig.sample_rate)
        tracemalloc.start()
        try:
            phase_recovery(sig, eq, 200, out=eq.data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert np.allclose(eq.data, sig.data, rtol=0, atol=1e-9)

    def test_window_validation(self):
        sig = generate_wgn_mimo(1, 100, 60e9, 1.0, seed=0)
        with pytest.raises(ValueError):
            phase_recovery(sig, sig, window=0)

    @pytest.mark.parametrize("n, window", [(1, 1), (7, 4), (1000, 200),
                                           (1000, 201), (50, 5000)])
    def test_moving_sum_matches_truncated_windows(self, n, window):
        rng = np.random.default_rng(n + window)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        half_lo = (window - 1) // 2
        lo = np.clip(np.arange(n) - half_lo, 0, n)
        hi = np.clip(np.arange(n) + window - half_lo, 0, n)
        # the same prefix sums, gathered at the clipped window edges
        csum = np.concatenate([[0j], np.cumsum(x)])
        got = pipeline._centered_moving_sum(x, window)
        assert np.array_equal(got, csum[hi] - csum[lo])
        direct = [np.sum(x[a:b]) for a, b in zip(lo, hi)]
        np.testing.assert_allclose(got, direct, rtol=0, atol=1e-9)


class TestOneFormPerCapture:
    """The receiver holds each capture as its front-end spectrum until it
    inverts it in place, then as its time signal, never both."""

    def test_peak_memory_in_capture_sized_arrays(self):
        # 2 modes, 400k samples at 40 GS/s: a capture-sized array is the
        # (2, 600k) complex capture at the 60 GS/s target rate
        link = LinkConfig(span_snr_db=25.0)
        tracemalloc.start()
        try:
            captures = [MimoSpectrum.of(
                generate_wgn_mimo(2, 400_000, 40e9, 1.0, seed=80))]
            captures.append(run_link(captures[0], link, 2, seed=81))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_pipeline(captures.pop(0), captures.pop(), link,
                         PipelineConfig(), n_recirculations=2,
                         n_measured=100_000)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # beyond the two raw captures handed in (2/3 of an array each): the
        # two front-end captures, 1.7 arrays measured; both forms of both
        # captures through the alignment read 3.9
        assert peak < 2.5 * (2 * 600_000 * 16)

    def test_caller_spectrum_at_the_target_rate_unchanged(self):
        # unfiltered, at the target rate and with no link the front end has
        # nothing to do to the bins; the inverse FFT in place must not
        # reach the caller's arrays
        sig = generate_wgn_mimo(2, 20_000, 60e9, 1.0, seed=82)
        out = _delay(sig, 40)
        cfg = PipelineConfig(filter_bw=None, block_size=1024)
        spectra = [MimoSpectrum.of(x) for x in (sig, out)]
        bins = [s.data.copy() for s in spectra]
        got = run_pipeline(*spectra, None, cfg)
        for s, b in zip(spectra, bins):
            assert np.array_equal(s.data, b)
        want = run_pipeline(sig, out, None, cfg)
        assert got.alignment.lag == want.alignment.lag == 40
        assert _close(got.f_eq.data, want.f_eq.data)

    def test_unequal_lengths_align_the_inverted_signals(self):
        # filtered captures of two lengths: each front-end spectrum is
        # inverted in place, then the two signals are aligned on a prefix
        link = LinkConfig(span_snr_db=25.0, mdl_per_span=0.5,
                          dgd_per_span=1e-11)
        sig = generate_wgn_mimo(2, 120_000, 40e9, 1.0, seed=83)
        out = run_link(sig, link, 2, seed=84)
        out = MimoSignal(out.data[:, 500:100_000], out.sample_rate)
        cfg = PipelineConfig()
        res = run_pipeline(sig, out, None, cfg, n_measured=0)
        f_in, f_out = (MimoSignal(np.fft.ifft(pipeline._front_end(x, cfg)
                                              .data, axis=1), 60e9)
                       for x in (sig, out))
        alignment = align_by_crosscorrelation(
            f_in, f_out, min(cfg.align_max_lag, len(f_out) // 2 - 1),
            cfg.align_threshold)
        f_in, f_out, start = trim_aligned(f_in, f_out, alignment.lag)
        _, state = fde_lms_equalize(f_in, f_out, cfg, n_output=0)
        assert res.alignment == alignment
        assert res.trim_start_in == start
        assert np.array_equal(res.f_in.data, f_in.data)
        assert np.array_equal(res.channel.matrices, state.channel)


class TestRunPipeline:
    def test_dimension_mismatch(self):
        a = generate_wgn_mimo(2, 10_000, 40e9, 1.0, seed=25)
        b = generate_wgn_mimo(4, 10_000, 40e9, 1.0, seed=25)
        with pytest.raises(ValueError):
            run_pipeline(a, b, LinkConfig(), PipelineConfig())

    def test_dispersion_only_link_round_trip(self):
        link = LinkConfig(span_snr_db=float("inf"), nlin_coeff=0.0)
        sig = generate_wgn_mimo(2, 200_000, 40e9, 1.0, seed=26)
        out = run_link(sig, link, 1, seed=27)
        res = run_pipeline(sig, out, link, PipelineConfig())
        assert _nmse_db(res.f_eq.as_array(), res.f_in.as_array()) < -35

    def test_recovers_from_bulk_delay(self):
        link = LinkConfig(span_snr_db=float("inf"), nlin_coeff=0.0)
        sig = generate_wgn_mimo(2, 200_000, 40e9, 1.0, seed=28)
        out = _delay(run_link(sig, link, 1, seed=29), 5000)
        res = run_pipeline(sig, out, link, PipelineConfig())
        assert _nmse_db(res.f_eq.as_array(), res.f_in.as_array()) < -30

    @pytest.mark.parametrize("cfg", [
        PipelineConfig(),
        PipelineConfig(target_rate=40e9, filter_bw=None),  # pass-through
    ], ids=["resampled", "pass-through"])
    def test_channel_equals_estimate_channel(self, cfg):
        # without dispersion the EDC is the identity, so both see one pair
        link = LinkConfig(span_snr_db=25.0, mdl_per_span=0.5,
                          dgd_per_span=1e-11, dispersion_coeff=0.0)
        sig = generate_wgn_mimo(2, 120_000, 40e9, 1.0, seed=32)
        out = run_link(sig, link, 2, seed=33)
        res = run_pipeline(sig, out, link, cfg, n_recirculations=2)
        est = estimate_channel(sig, out, cfg)
        assert res.channel.bin_spacing == est.bin_spacing
        if cfg.filter_bw is not None:
            assert np.array_equal(res.channel.matrices, est.matrices)
        else:
            # a passed-through capture round-trips an FFT for the EDC step
            np.testing.assert_allclose(res.channel.matrices, est.matrices,
                                       rtol=0, atol=1e-12)

    def test_one_alignment_and_one_equalizer_call(self, monkeypatch):
        calls = _count_calls(monkeypatch, [], pipeline, "_front_end",
                             "align_by_crosscorrelation", "fde_lms_equalize",
                             "phase_recovery")
        link = LinkConfig(span_snr_db=25.0, mdl_per_span=0.5,
                          dgd_per_span=1e-11)
        sig = generate_wgn_mimo(2, 60_000, 40e9, 1.0, seed=34)
        res = run_pipeline(sig, run_link(sig, link, 2, seed=35), link,
                           PipelineConfig(), n_recirculations=2)
        assert sorted(calls) == ["_front_end", "_front_end",
                                 "align_by_crosscorrelation",
                                 "fde_lms_equalize", "phase_recovery"]
        assert res.channel.matrices.shape == (4096, 2, 2)

    def test_estimate_channel_takes_the_same_path(self, monkeypatch):
        # run_pipeline with no link and nothing measured: one alignment, one
        # taps-only equalizer call and no phase recovery
        calls = _count_calls(monkeypatch, [], pipeline, "_front_end",
                             "align_by_crosscorrelation", "phase_recovery")
        equalize = pipeline.fde_lms_equalize

        def taps_only(*args, n_output):
            calls.append(n_output)
            return equalize(*args, n_output=n_output)

        monkeypatch.setattr(pipeline, "fde_lms_equalize", taps_only)
        link = LinkConfig(span_snr_db=25.0, mdl_per_span=0.5,
                          dgd_per_span=1e-11)
        sig = generate_wgn_mimo(2, 60_000, 40e9, 1.0, seed=34)
        out = run_link(sig, link, 2, seed=35)
        est = estimate_channel(sig, out, PipelineConfig())
        assert sorted(calls, key=str) == [0, "_front_end", "_front_end",
                                          "align_by_crosscorrelation"]
        assert est.matrices.shape == (4096, 2, 2)
        res = run_pipeline(sig, out, None, PipelineConfig(), n_measured=0)
        # nothing measured, yet the taps' NMSE is there, from the covariance
        assert len(res.f_eq) == 0 and np.isfinite(res.state.residual_nmse_db)
        assert np.array_equal(res.channel.matrices, est.matrices)
        assert res.channel.bin_spacing == est.bin_spacing

    def test_one_solve_per_derived_value(self, monkeypatch):
        # the channel estimate alone solves only for the channel; a measured
        # run solves for the taps too, each once
        calls = _count_calls(monkeypatch, [], pipeline, "_wiener")
        link = LinkConfig(span_snr_db=25.0)
        sig = generate_wgn_mimo(2, 60_000, 40e9, 1.0, seed=34)
        out = run_link(sig, link, 1, seed=35)
        estimate_channel(sig, out, PipelineConfig())
        assert calls == ["_wiener"]
        calls.clear()
        run_pipeline(sig, out, link, PipelineConfig(), n_measured=1_000)
        assert calls == ["_wiener", "_wiener"]

    def test_channel_against_the_coupled_dispersive_link(self):
        # 20 loops of dispersion and coupling; the truth is the span model
        # seeded as run_link seeds it, raised to the loop count, times the
        # dispersion of the whole link
        link = LinkConfig(span_snr_db=22.0, mdl_per_span=0.5,
                          dgd_per_span=1e-11)
        loops, seed, cfg = 20, 37, PipelineConfig()
        sig = generate_wgn_mimo(2, 400_000, 40e9, 1.0, seed=36)
        res = run_pipeline(sig, run_link(sig, link, loops, seed), link, cfg,
                           n_recirculations=loops)
        model_seed = np.random.SeedSequence(seed).spawn(3)[0]
        model = MultiSectionModel(2, link.mdl_per_span, link.dgd_per_span,
                                  model_seed, link.n_sections)
        block, rate = cfg.block_size, cfg.target_rate
        span = model.sample(block, rate / block).matrices
        fiber = np.exp(1j * dispersion_phase(
            np.fft.fftfreq(block, 1 / rate), link.dispersion_coeff,
            loops * link.span_length, link.center_wavelength))
        truth = MimoChannel(np.linalg.matrix_power(span, loops)
                            * fiber[:, None, None], rate / block)
        _, nmse = compare_channels(res.channel, truth, band_edge=15e9)
        # -27.3 dB measured; an estimate from the pair without EDC leaks at
        # the block edges from the dispersion spread and reads -26.0 dB
        assert nmse < -26.5

    def test_baud_rate_agnostic_per_second_mi(self):
        # per-sample MI is invariant to the assumed symbol grid, so
        # baud * oversampling * MI/symbol is grid-independent within 2%
        link = LinkConfig(span_snr_db=15.0, nlin_coeff=0.0)
        sig = generate_wgn_mimo(2, 400_000, 40e9, 1.0, seed=30)
        out = run_link(sig, link, 1, seed=31)
        res = run_pipeline(sig, out, link, PipelineConfig())
        rings = build_ring_constellation(16)
        per_second = []
        for k in (2, 3):   # 30 Gbaud and 20 Gbaud interpretations
            x = ComplexSignal(res.f_in.tributaries[0].samples[::k], 60e9 / k)
            y = ComplexSignal(res.f_eq.tributaries[0].samples[::k], 60e9 / k)
            mi = estimate_mi(x, y, rings)
            per_second.append((60e9 / k) * k * mi)
        assert per_second[0] == pytest.approx(per_second[1], rel=0.02)


def _point_config(**link) -> ExperimentConfig:
    # 60k samples at 40 GS/s; the MI reads the first 15k of 45k symbols
    return ExperimentConfig(link=LinkConfig(span_snr_db=22.0, **link),
                            sweep_values=(2,), seeds=(3,), n_samples=60_000,
                            mi_max_symbols=15_000, emit_plots=False)


def _receiver(monkeypatch, as_signals: bool) -> list:
    """Route the runner's link and receive chain through MimoSignal
    captures when `as_signals`, else leave them as the runner passes them.
    Returns a list that collects the link's input type, then the receive
    chain's input types and its PipelineResult."""
    calls = []

    def given(c):
        if as_signals and isinstance(c, MimoSpectrum):
            return MimoSignal(np.fft.ifft(c.data, axis=1), c.sample_rate)
        return c

    def link(x, *args):
        calls.append(type(given(x)))
        return run_link(given(x), *args)

    def receive(a, b, *args, **kwargs):
        a, b = given(a), given(b)
        res = run_pipeline(a, b, *args, **kwargs)
        calls.append((type(a), type(b), res))
        return res

    monkeypatch.setattr(runner, "run_link", link)
    monkeypatch.setattr(runner, "run_pipeline", receive)
    return calls


def _close(a, b, rel=1e-9) -> bool:
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


class TestSpectralHandOff:
    """A sweep point passes spectra from the transmitter through the link
    to the front end; MimoSignal captures must give the same numbers."""

    @pytest.mark.parametrize("kind, link", [
        ("wgn", {"mdl_per_span": 0.5, "dgd_per_span": 1e-11}),
        ("qam16", {}),
        # LO phase noise: the link's time-domain branch
        ("wgn", {"lo_linewidth": 1e5})], ids=["wgn", "qam16", "lo-noise"])
    def test_point_matches_the_signal_path(self, monkeypatch, kind, link):
        cfg = _point_config(**link)
        point = ((lambda: runner._wgn_point(cfg, 2, 3, True))
                 if kind == "wgn" else (lambda: runner._qam_point(cfg, 2, 3)))
        runs = []
        for as_signals in (False, True):
            calls = _receiver(monkeypatch, as_signals)
            runs.append((point(), calls))
        (spec_out, spec_calls), (sig_out, sig_calls) = runs
        kinds = (MimoSpectrum, MimoSpectrum, MimoSpectrum)
        assert (spec_calls[0], *spec_calls[1][:2]) == kinds
        kinds = (MimoSignal, MimoSignal, MimoSignal)
        assert (sig_calls[0], *sig_calls[1][:2]) == kinds
        got, want = spec_calls[1][2], sig_calls[1][2]
        assert got.alignment.lag == want.alignment.lag
        assert got.trim_start_in == want.trim_start_in
        assert len(got.f_eq) == len(want.f_eq) == 30_000
        assert _close(got.f_eq.data, want.f_eq.data)
        assert _close(got.channel.matrices, want.channel.matrices)
        assert len(spec_out["rows"]) == len(sig_out["rows"]) == 2
        for a, b in zip(spec_out["rows"], sig_out["rows"]):
            for key in ("bits_per_symbol", "snr_db"):
                assert a.pop(key) == pytest.approx(b.pop(key), rel=1e-9)
            assert a == b

    # capture-length rows transformed by FFT and inverse FFT in one
    # 60k-sample, 2-mode point: the WGN capture's FFT, one row per mode, the
    # link's inverse and forward rows when LO noise is on, the front end's
    # inverse of each capture's two rows, and the alignment's four forward
    # rows and one inverse.  The 16QAM generator transforms its 45k-symbol
    # rows, shorter than the capture.  A capture this short is its own
    # prefix, so the alignment's rows are the 90k target-rate samples plus
    # the lag range.
    @pytest.mark.parametrize("kind, link, counts", [
        ("wgn", {}, {"fft": 6, "ifft": 5}),
        ("qam16", {}, {"fft": 4, "ifft": 5}),
        ("wgn", {"lo_linewidth": 1e5}, {"fft": 8, "ifft": 7})],
        ids=["wgn", "qam16", "lo-noise"])
    def test_capture_length_transforms_per_point(self, monkeypatch, kind,
                                                 link, counts):
        cfg = _point_config(**link)
        seen = _count_transform_rows(monkeypatch, cfg.n_samples)
        if kind == "wgn":
            runner._wgn_point(cfg, 2, 3, True)
        else:
            runner._qam_point(cfg, 2, 3)
        assert seen == counts


def _count_transform_rows(monkeypatch, length: int) -> dict:
    """Wrap ``np.fft.fft`` and ``np.fft.ifft`` so that a call whose output
    is at least `length` points long is checked to transform one 1-D row,
    and counted, in rows, in the returned dict."""
    seen = {"fft": 0, "ifft": 0}
    for name in seen:
        def counted(a, *args, _f=getattr(np.fft, name), _name=name,
                    **kwargs):
            out = _f(a, *args, **kwargs)
            axis = kwargs.get("axis", -1)
            if out.shape[axis] >= length:
                # a batched transform holds hidden working memory of
                # several rows
                assert np.ndim(a) == 1, (_name, np.shape(a))
                seen[_name] += out.size // out.shape[axis]
            return out
        monkeypatch.setattr(np.fft, name, counted)
    return seen


def _batched(transform, data, out=None):
    """The transform over ``axis=1`` of the whole array at once."""
    return transform(data, axis=1, out=out)


class TestRowTransforms:
    """Capture-length transforms run one 1-D row at a time, with results
    bit-identical to numpy's batched ``axis=1`` transform."""

    def test_stored_pair_of_two_lengths_transforms_rows(self, monkeypatch):
        # filtered captures of two lengths: the front end's FFT of each
        # signal, its inverse, and the alignment's prefix rows
        sig = generate_wgn_mimo(2, 40_000, 40e9, 1.0, seed=90)
        out = _delay(sig, 25)
        out = MimoSignal(out.data[:, :36_000], out.sample_rate)
        seen = _count_transform_rows(monkeypatch, 36_000)
        channel = estimate_channel(sig, out, PipelineConfig(block_size=1024))
        # the alignment transforms the rows of both captures over their
        # common 54k target-rate samples (a prefix no shorter than the
        # capture), zero-padded by the lag range
        assert seen == {"fft": 8, "ifft": 5}
        assert channel.n_modes == 2

    @pytest.fixture(params=[(2, 3001), (2, 4096), (6, 3001), (6, 4096)],
                    ids=["2x3001", "2x4096", "6x3001", "6x4096"])
    def capture(self, request) -> MimoSignal:
        m, n = request.param
        return generate_wgn_mimo(m, n, 40e9, 1.0, seed=91)

    @staticmethod
    def _rows_then_batched(monkeypatch, capture, compute):
        """`compute()` with the row-by-row transforms, each call of the
        capture's length or more checked to get a 1-D row, then with
        numpy's batched ``axis=1`` transform in their place."""
        with pytest.MonkeyPatch.context() as guard:
            seen = _count_transform_rows(guard, len(capture))
            rows = compute()
        assert sum(seen.values()) > 0
        for module in (signals, channel_module, pipeline):
            monkeypatch.setattr(module, "_transform_rows", _batched)
        return rows, compute()

    def test_spectrum_of(self, monkeypatch, capture):
        got, want = self._rows_then_batched(
            monkeypatch, capture, lambda: MimoSpectrum.of(capture).data)
        assert np.array_equal(got, want)

    def test_as_signal(self, monkeypatch, capture):
        bins = np.fft.fft(capture.data, axis=1)
        got, want = self._rows_then_batched(
            monkeypatch, capture, lambda: pipeline._as_signal(
                MimoSpectrum(bins.copy(), capture.sample_rate)).data)
        assert np.array_equal(got, want)

    def test_front_end_of_a_signal(self, monkeypatch, capture):
        link = LinkConfig(n_modes=capture.n_tributaries)
        got, want = self._rows_then_batched(
            monkeypatch, capture, lambda: pipeline._front_end(
                capture, PipelineConfig(), link, 156.0).data)
        assert np.array_equal(got, want)

    def test_link_of_a_signal(self, monkeypatch, capture):
        link = LinkConfig(n_modes=capture.n_tributaries, mdl_per_span=1.0,
                          dgd_per_span=1e-11)
        got, want = self._rows_then_batched(
            monkeypatch, capture,
            lambda: run_link(capture, link, 2, seed=92).data)
        assert np.array_equal(got, want)

    def test_link_of_a_spectrum_with_lo_noise(self, monkeypatch, capture):
        link = LinkConfig(n_modes=capture.n_tributaries, lo_linewidth=1e5,
                          frequency_offset=1e8)
        spec = MimoSpectrum(np.fft.fft(capture.data, axis=1),
                            capture.sample_rate)
        got, want = self._rows_then_batched(
            monkeypatch, capture,
            lambda: run_link(spec, link, 2, seed=93).data)
        assert np.array_equal(got, want)

    def test_apply_channel(self, monkeypatch, capture):
        chan = synthesize_mimo_channel(capture.n_tributaries, 2.0, 2e-11,
                                       len(capture),
                                       capture.sample_rate / len(capture),
                                       seed=94)
        got, want = self._rows_then_batched(
            monkeypatch, capture, lambda: apply_channel(capture, chan).data)
        assert np.array_equal(got, want)


class TestQamCaptureLength:
    """The 16QAM waveform converts between the capture rate and the target
    rate sample for sample, at any ratio of the two."""

    @staticmethod
    def _config(capture_rate, n_samples) -> ExperimentConfig:
        return ExperimentConfig(
            link=LinkConfig(span_snr_db=40.0, nlin_coeff=0.0),
            capture_rate=capture_rate, sweep_values=(1,), seeds=(3,),
            n_samples=n_samples, emit_plots=False)

    def test_symbol_grid_survives_the_rate_ratio(self):
        # 40 dB per span over one loop at 60/45 GS/s: a capture length that
        # is not a multiple of 4 target-rate samples drifts the symbol grid
        # and reads about 5 dB and 2 bits
        rows = runner._qam_point(self._config(45e9, 200_003), 1, 3)["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["snr_db"] > 39.0
            assert row["bits_per_symbol"] > 3.99

    def test_ratio_without_a_fitting_capture_named(self):
        # 60 GS/s over 40 GS/s plus half a hertz: the exact ratio's
        # numerator exceeds any capture length
        with pytest.raises(ConfigError, match="capture_rate 40000000000.5 Hz"):
            runner._qam_point(self._config(40e9 + 0.5, 200_000), 1, 3)


class TestCapturesCheckedOnce:
    """A capture is scanned for NaN and Inf once, where it enters the
    library; no stage re-scans a capture it computed from checked ones."""

    @staticmethod
    def _count_scans(monkeypatch, size: int) -> list:
        """Record each ``np.isfinite`` call on `size` elements or more."""
        calls, isfinite = [], np.isfinite

        def counting(x, *args, **kwargs):
            if np.size(x) >= size:
                calls.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        return calls

    @pytest.mark.parametrize("kind, scans", [("wgn", 1), ("qam16", 0)])
    def test_sweep_point(self, monkeypatch, kind, scans):
        # the WGN point's one scan is its generated capture's entry check
        cfg = ExperimentConfig(link=LinkConfig(span_snr_db=20.0),
                               n_samples=60_000, mi_max_symbols=10_000,
                               emit_plots=False)
        calls = self._count_scans(monkeypatch,
                                  cfg.link.n_modes * cfg.n_samples)
        if kind == "wgn":
            runner._wgn_point(cfg, 1, 3, characterize=True)
        else:
            runner._qam_point(cfg, 1, 3)
        assert len(calls) == scans, calls

    def test_stored_pair(self, monkeypatch, tmp_path):
        # larger than one read piece: read_signal checks the pieces only
        n = 200_000
        assert 2 * n > signals._IO_SAMPLES
        tx = generate_wgn_mimo(2, n, 60e9, 1.0, seed=5)
        rx = run_link(tx, LinkConfig(span_snr_db=25.0), 1, seed=6)
        for name, sig in (("tx.bin", tx), ("rx.bin", rx)):
            with open(tmp_path / name, "wb") as f:
                signals.write_signal(f, sig)
        calls = self._count_scans(monkeypatch, 2 * n)
        pair = []
        for name in ("tx.bin", "rx.bin"):
            with open(tmp_path / name, "rb") as f:
                pair.append(signals.read_signal(f))
        runner.characterize_captures(*pair, PipelineConfig(),
                                     tmp_path / "char", emit_plots=False)
        assert (tmp_path / "char" / "mdl_capture.csv").exists()
        assert calls == []
